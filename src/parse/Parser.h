//===--- Parser.h - Recursive-descent parser for the CUDA-C subset ----------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the CUDA-C subset into the AST. Once a unit (or a standalone
/// expression) is built, assignTypes (parse/Typing.h) gives every
/// expression node its static type (the bytecode compiler and the passes
/// rely on this; e.g. pointer subscripts must scale by the pointee size).
///
/// Grammar highlights beyond plain C:
///   - `__global__` / `__device__` / `__host__` / `__shared__` qualifiers
///   - kernel launches `k<<<grid, block[, smem[, stream]]>>>(args)`
///   - `dim3` with constructor syntax `dim3 g(a, b, c)`
///   - preprocessor lines preserved verbatim as RawDecls
///
//===----------------------------------------------------------------------===//

#ifndef DPO_PARSE_PARSER_H
#define DPO_PARSE_PARSER_H

#include "ast/ASTContext.h"
#include "ast/Decl.h"
#include "lex/Token.h"
#include "support/Diagnostics.h"

#include <string_view>
#include <unordered_set>
#include <vector>

namespace dpo {

class Parser {
public:
  Parser(std::vector<Token> Tokens, ASTContext &Ctx, DiagnosticEngine &Diags);

  /// Parses a whole file. Returns null if any error was reported.
  TranslationUnit *parseTranslationUnit();

  /// Parses a single expression (used heavily by tests).
  Expr *parseStandaloneExpr();

  /// Registers an extra name to be treated as a type (e.g. a struct the
  /// surrounding build defines).
  void addTypeName(std::string Name) { TypeNames.insert(std::move(Name)); }

  /// The deepest tree the parser builds: statements, blocks and operands
  /// nested in one another, plus the links of left-folded binary, comma
  /// and postfix chains, all count. Deeper input ends in a diagnostic, so
  /// neither this parser nor the recursive walkers after it run out of
  /// stack. 256 is clang's default bracket depth.
  static constexpr unsigned MaxNestingDepth = 256;

private:
  /// One level of recursive descent, open for the scope's lifetime.
  class NestingScope {
  public:
    explicit NestingScope(Parser &P) : P(P) { ++P.Depth; }
    ~NestingScope() { --P.Depth; }
    /// False, with a diagnostic, once the descent is too deep.
    explicit operator bool() const {
      return P.Depth <= MaxNestingDepth || P.nestingError();
    }

  private:
    Parser &P;
  };

  /// Records \p H as the height of the expression tree just built (read
  /// back through Height). False, with a diagnostic, when the tree would
  /// then reach deeper than MaxNestingDepth.
  bool setHeight(unsigned H);
  /// Reports the nesting limit once; always false.
  bool nestingError();

  // Token stream helpers.
  const Token &cur() const { return Tokens[Pos]; }
  const Token &peek(unsigned Ahead = 1) const {
    size_t Idx = Pos + Ahead;
    return Idx < Tokens.size() ? Tokens[Idx] : Tokens.back();
  }
  Token consume();
  bool tryConsume(TokenKind Kind);
  bool expect(TokenKind Kind, std::string_view Context);
  void error(std::string Message);

  // Type names.
  bool isTypeName(const Token &Tok) const;
  bool startsType(const Token &Tok) const;

  // Declarations.
  Decl *parseTopLevelDecl();
  FunctionQualifiers parseFunctionQualifiers(bool &SawAny);
  Type parseType();
  FunctionDecl *parseFunctionRest(FunctionQualifiers Quals, Type ReturnType,
                                  std::string Name);
  VarDecl *parseDeclarator(Type BaseType, bool IsShared);
  DeclStmt *parseDeclStmt(bool ConsumeSemi);

  // Statements.
  Stmt *parseStmt();
  CompoundStmt *parseCompoundStmt();
  Stmt *parseIfStmt();
  Stmt *parseForStmt();
  Stmt *parseWhileStmt();
  Stmt *parseDoStmt();

  // Expressions (precedence climbing).
  Expr *parseExpr();           ///< Includes comma operator.
  Expr *parseAssignment();
  Expr *parseConditional();
  Expr *parseBinaryRHS(unsigned MinPrec, Expr *LHS);
  Expr *parseUnary();
  Expr *parsePostfix(Expr *Base);
  Expr *parsePrimary();
  /// Parses `args)` after a call's '('; false on error.
  bool parseCallArgs(std::vector<Expr *> &Args);

  std::vector<Token> Tokens;
  size_t Pos = 0;
  unsigned Depth = 0;  ///< Open NestingScopes.
  unsigned Height = 0; ///< Height of the expression last parsed.
  bool NestingReported = false;
  ASTContext &Ctx;
  DiagnosticEngine &Diags;
  std::unordered_set<std::string> TypeNames;
};

/// Convenience entry point: lex + parse \p Source.
TranslationUnit *parseSource(std::string_view Source, ASTContext &Ctx,
                             DiagnosticEngine &Diags);

/// Convenience entry point for a single expression.
Expr *parseExprSource(std::string_view Source, ASTContext &Ctx,
                      DiagnosticEngine &Diags);

} // namespace dpo

#endif // DPO_PARSE_PARSER_H
