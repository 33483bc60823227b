//===--- BytecodeIO.h - Versioned VmProgram (de)serialization -------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On-disk format for compiled bytecode images. The service layer
/// (src/service/) caches compile artifacts across processes; this is the
/// program half of that artifact: a deterministic, versioned, checksummed
/// byte image of a VmProgram.
///
/// Contract:
///  - Deterministic bytes: the same VmProgram always serializes to the
///    same image (unordered maps are rebuilt / emitted in sorted order,
///    all integers are little-endian fixed-width).
///  - Round-trip exact: deserialize(serialize(P)) reproduces P
///    observably (same functions, code, globals, launch sites), and
///    serialize(deserialize(Image)) == Image for any image this writer
///    produced. The round-trip fuzz suite (tests/vm/BytecodeIOTest.cpp)
///    pins both, plus bit-identical execution across every engine.
///  - Corruption-safe: truncated, bit-flipped, or stale-version images
///    fail deserialization with a diagnostic — never an abort, never a
///    partially-initialized program.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_VM_BYTECODEIO_H
#define DPO_VM_BYTECODEIO_H

#include "vm/Bytecode.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dpo {

/// Bump when the serialized layout (or anything it embeds, e.g. the
/// opcode set's meaning) changes incompatibly. Old images then fail the
/// version check and callers fall back to a clean recompile.
constexpr uint32_t BytecodeFormatVersion = 1;

/// Bytes before an image's payload: magic, version, payload length and
/// the payload's FNV-1a checksum. The checksum covers the payload only.
constexpr size_t VmImageHeaderBytes = 4 + 4 + 8 + 8;

/// FNV-1a 64-bit over \p Bytes, continuing from \p Seed. Used for the
/// image checksum and (by the service layer) for content-addressed cache
/// keys; stable across platforms and runs.
uint64_t fnv1a64(std::string_view Bytes,
                 uint64_t Seed = 0xcbf29ce484222325ull);

/// Serializes \p Program to the versioned image format. Deterministic:
/// equal programs yield byte-identical images.
std::string serializeVmProgram(const VmProgram &Program);

/// Parses an image back into \p Out. Returns false (with \p Error set
/// and \p Out untouched) on truncation, checksum mismatch, version skew,
/// or any structurally invalid content (bad opcode, bad type kind,
/// duplicate function name, out-of-range counts).
bool deserializeVmProgram(std::string_view Image, VmProgram &Out,
                          std::string &Error);

} // namespace dpo

#endif // DPO_VM_BYTECODEIO_H
