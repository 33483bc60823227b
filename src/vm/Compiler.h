//===--- Compiler.h - AST to bytecode ----------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a parsed translation unit to VM bytecode. The compiler is
/// type-driven: it relies on the static types the parser attached to
/// expressions (pointer element sizes, signedness, float vs. int).
///
/// Storage classes:
///  - scalar locals/params live in per-frame slots;
///  - dim3 values occupy three consecutive slots;
///  - address-taken scalars and local arrays live in per-frame *frame
///    memory* (addressable device memory);
///  - __shared__ variables live in a per-block shared segment;
///  - file-scope globals live in a fixed region at GlobalBase.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_VM_COMPILER_H
#define DPO_VM_COMPILER_H

#include "ast/Decl.h"
#include "support/Diagnostics.h"
#include "vm/Bytecode.h"

namespace dpo {

/// Device address where the global-variable image is placed.
constexpr uint64_t GlobalBase = 64;

/// Knobs for bytecode generation.
struct VmCompileOptions {
  /// Run the peephole optimizer (vm/Peephole.cpp) over the emitted
  /// bytecode: constant folding, dead stack-shuffle elimination, and
  /// superinstruction fusion. Semantics-preserving; turn off to inspect
  /// or execute the raw instruction stream (the fuzz equivalence tests
  /// run both settings against each other).
  bool OptimizeBytecode = true;
};

/// Compiles \p TU. Returns an empty program and diagnostics on failure
/// (check Diags.hasErrors()).
VmProgram compileProgram(const TranslationUnit *TU, DiagnosticEngine &Diags,
                         const VmCompileOptions &Opts = {});

} // namespace dpo

#endif // DPO_VM_COMPILER_H
