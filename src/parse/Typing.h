//===--- Typing.h - Static expression types of the CUDA-C subset -------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Gives every expression its static type: names resolve through the
/// enclosing scopes (undeclared names are `int`), literals take their type
/// from the spelling, calls return the declared function's or a known
/// intrinsic's type, arithmetic follows C's usual conversions. The parser
/// calls assignTypes on each unit it builds; the compile path calls it
/// again after passes rewrote a unit, since passes splice nodes without
/// tracking types. Typing depends only on the tree, so a rewritten unit
/// gets the types that parsing its printed text would give.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_PARSE_TYPING_H
#define DPO_PARSE_TYPING_H

#include "ast/Decl.h"
#include "ast/Stmt.h"

namespace dpo {

/// Types every expression in \p TU, visiting declarations in order.
void assignTypes(TranslationUnit *TU);

/// Types \p F as the only declaration of a unit: the types parsing its
/// printed text alone would give. Passes that build a whole function call
/// this so later passes see the types they would after a re-parse.
void assignTypes(FunctionDecl *F);

/// Types a standalone statement or expression (only the built-in
/// variables in scope).
void assignTypes(Stmt *S);

} // namespace dpo

#endif // DPO_PARSE_TYPING_H
