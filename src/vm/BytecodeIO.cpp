//===--- BytecodeIO.cpp - Versioned VmProgram (de)serialization -----------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Image layout (all integers little-endian fixed-width):
//
//   "DPOB"            4-byte magic
//   u32               BytecodeFormatVersion
//   u64               payload length in bytes
//   u64               FNV-1a of the payload bytes
//   payload:
//     u32 function count, then per function:
//       str  name
//       u8   flags (bit0 IsKernel, bit1 ReturnsValue)
//       u32  NumLocals, u32 NumParamSlots, u32 FrameBytes, u32 SharedBytes
//       u32  param count, then per param:
//         u8 kind, u32 pointer depth, u8 qualifiers (bit0 const,
//         bit1 restrict), str name (empty unless kind == Named)
//       u32  instruction count, then per instruction:
//         u8 opcode, i64 A, i64 B, u32 C
//     u32 trap-message count + strings
//     u64 global-image size + raw bytes
//     u32 global-offset count, then (str name, u32 offset) sorted by name
//     u32 launch-site count + strings
//
// str = u32 length + raw bytes. FunctionIndex is not serialized — it is
// derivable (name -> position) and rebuilding it keeps the image
// canonical regardless of unordered_map iteration order.
//
//===----------------------------------------------------------------------===//

#include "vm/BytecodeIO.h"

#include <algorithm>
#include <cstring>

using namespace dpo;

uint64_t dpo::fnv1a64(std::string_view Bytes, uint64_t Seed) {
  uint64_t H = Seed;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

namespace {

const char Magic[4] = {'D', 'P', 'O', 'B'};

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

class Writer {
public:
  /// Writes into \p Out from its current end; \p SizeHint more bytes are
  /// expected, so writes normally land in place without regrowing.
  Writer(std::string &Out, size_t SizeHint) : Out(Out), Pos(Out.size()) {
    Out.resize(Pos + SizeHint);
  }
  /// Trims \p Out to what was written.
  ~Writer() { Out.resize(Pos); }
  Writer(const Writer &) = delete;
  Writer &operator=(const Writer &) = delete;

  void u8(uint8_t V) { word<1>(V); }
  void u32(uint32_t V) { word<4>(V); }
  void u64(uint64_t V) { word<8>(V); }
  void i64(int64_t V) { u64((uint64_t)V); }
  void str(std::string_view S) {
    u32((uint32_t)S.size());
    raw(S.data(), S.size());
  }
  void raw(const void *Data, size_t Size) {
    if (Size)
      std::memcpy(room(Size), Data, Size);
  }
  /// Overwrites the u64 written at offset \p At.
  void patchU64(size_t At, uint64_t V) { le<8>(&Out[At], V); }
  /// The bytes written from offset \p At on.
  std::string_view writtenSince(size_t At) const {
    return std::string_view(Out.data() + At, Pos - At);
  }

private:
  template <int N> static void le(char *At, uint64_t V) {
    for (int I = 0; I < N; ++I)
      At[I] = (char)((V >> (8 * I)) & 0xff);
  }
  /// Little-endian, the same bytes on any host.
  template <int N> void word(uint64_t V) { le<N>(room(N), V); }
  /// Claims \p N bytes at Pos, growing only if the hint fell short.
  char *room(size_t N) {
    if (Pos + N > Out.size())
      Out.resize(std::max(2 * Out.size(), Pos + N));
    char *At = &Out[Pos];
    Pos += N;
    return At;
  }

  std::string &Out;
  size_t Pos;
};

//===----------------------------------------------------------------------===//
// Reader — every accessor bounds-checks; the first failure latches and
// subsequent reads return zeros, so parse code can read linearly and
// check ok() at structural boundaries.
//===----------------------------------------------------------------------===//

class Reader {
public:
  Reader(std::string_view Bytes) : Bytes(Bytes) {}

  bool ok() const { return !Failed; }
  bool atEnd() const { return Pos == Bytes.size(); }

  uint8_t u8() {
    if (!need(1))
      return 0;
    return (uint8_t)Bytes[Pos++];
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= (uint32_t)(uint8_t)Bytes[Pos + I] << (8 * I);
    Pos += 4;
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= (uint64_t)(uint8_t)Bytes[Pos + I] << (8 * I);
    Pos += 8;
    return V;
  }
  int64_t i64() { return (int64_t)u64(); }
  std::string str() {
    uint32_t Len = u32();
    if (!need(Len))
      return {};
    std::string S(Bytes.substr(Pos, Len));
    Pos += Len;
    return S;
  }
  std::string_view raw(uint64_t Size) {
    if (!need(Size))
      return {};
    std::string_view V = Bytes.substr(Pos, Size);
    Pos += Size;
    return V;
  }
  /// Guards count-prefixed loops: a corrupt count must not turn into a
  /// multi-gigabyte allocation. Each counted element occupies at least
  /// \p MinElemBytes, so any honest count fits in the remaining bytes.
  bool plausibleCount(uint64_t Count, uint64_t MinElemBytes) {
    if (Count * MinElemBytes <= Bytes.size() - Pos)
      return true;
    Failed = true;
    return false;
  }

private:
  bool need(uint64_t N) {
    if (!Failed && Pos + N <= Bytes.size())
      return true;
    Failed = true;
    return false;
  }
  std::string_view Bytes;
  size_t Pos = 0;
  bool Failed = false;
};

void writeType(Writer &W, const Type &T) {
  W.u8((uint8_t)T.kind());
  W.u32(T.pointerDepth());
  W.u8((T.isConst() ? 1 : 0) | (T.isRestrict() ? 2 : 0));
  W.str(T.kind() == BuiltinKind::Named ? T.name() : std::string_view());
}

bool readType(Reader &R, Type &Out, std::string &Error) {
  uint8_t Kind = R.u8();
  uint32_t Depth = R.u32();
  uint8_t Quals = R.u8();
  std::string Name = R.str();
  if (!R.ok())
    return false;
  if (Kind > (uint8_t)BuiltinKind::Named) {
    Error = "invalid type kind " + std::to_string(Kind);
    return false;
  }
  if ((BuiltinKind)Kind == BuiltinKind::Named) {
    Out = Type::named(std::move(Name), Depth);
  } else {
    if (!Name.empty()) {
      Error = "non-named type carries a name";
      return false;
    }
    Out = Type((BuiltinKind)Kind, Depth);
  }
  Out.setConst(Quals & 1);
  Out.setRestrict(Quals & 2);
  if (Quals & ~3u) {
    Error = "invalid type qualifier bits";
    return false;
  }
  return true;
}

/// The payload's size, so serialization appends without regrowing.
size_t payloadSize(const VmProgram &P) {
  auto Str = [](std::string_view S) { return 4 + S.size(); };
  size_t Size = 4;
  for (const FuncDef &F : P.Functions) {
    Size += Str(F.Name) + 1 + 5 * 4;
    for (const Type &T : F.ParamTypes)
      Size += 1 + 4 + 1 +
              Str(T.kind() == BuiltinKind::Named ? T.name()
                                                 : std::string_view());
    Size += 4 + F.Code.size() * (1 + 8 + 8 + 4);
  }
  Size += 4;
  for (const std::string &M : P.TrapMessages)
    Size += Str(M);
  Size += 8 + P.GlobalImage.size() + 4;
  for (const auto &[Name, Off] : P.GlobalOffsets)
    Size += Str(Name) + 4;
  Size += 4;
  for (const std::string &S : P.LaunchSiteNames)
    Size += Str(S);
  return Size;
}

void serializePayload(const VmProgram &P, Writer &W) {
  W.u32((uint32_t)P.Functions.size());
  for (const FuncDef &F : P.Functions) {
    W.str(F.Name);
    W.u8((F.IsKernel ? 1 : 0) | (F.ReturnsValue ? 2 : 0));
    W.u32(F.NumLocals);
    W.u32(F.NumParamSlots);
    W.u32(F.FrameBytes);
    W.u32(F.SharedBytes);
    W.u32((uint32_t)F.ParamTypes.size());
    for (const Type &T : F.ParamTypes)
      writeType(W, T);
    W.u32((uint32_t)F.Code.size());
    for (const Instr &I : F.Code) {
      W.u8((uint8_t)I.Code);
      W.i64(I.A);
      W.i64(I.B);
      W.u32(I.C);
    }
  }

  W.u32((uint32_t)P.TrapMessages.size());
  for (const std::string &M : P.TrapMessages)
    W.str(M);

  W.u64(P.GlobalImage.size());
  if (!P.GlobalImage.empty())
    W.raw(P.GlobalImage.data(), P.GlobalImage.size());

  // GlobalOffsets is an unordered_map; emit sorted by name so equal
  // programs always produce byte-identical images.
  std::vector<std::pair<std::string, unsigned>> Offsets(
      P.GlobalOffsets.begin(), P.GlobalOffsets.end());
  std::sort(Offsets.begin(), Offsets.end());
  W.u32((uint32_t)Offsets.size());
  for (const auto &[Name, Off] : Offsets) {
    W.str(Name);
    W.u32(Off);
  }

  W.u32((uint32_t)P.LaunchSiteNames.size());
  for (const std::string &S : P.LaunchSiteNames)
    W.str(S);
}

bool deserializePayload(std::string_view Payload, VmProgram &P,
                        std::string &Error) {
  Reader R(Payload);

  uint32_t NumFuncs = R.u32();
  if (!R.plausibleCount(NumFuncs, 30)) {
    Error = "implausible function count";
    return false;
  }
  P.Functions.reserve(NumFuncs);
  for (uint32_t FI = 0; FI < NumFuncs; ++FI) {
    FuncDef F;
    F.Name = R.str();
    uint8_t Flags = R.u8();
    if (Flags & ~3u) {
      Error = "invalid function flags";
      return false;
    }
    F.IsKernel = Flags & 1;
    F.ReturnsValue = Flags & 2;
    F.NumLocals = R.u32();
    F.NumParamSlots = R.u32();
    F.FrameBytes = R.u32();
    F.SharedBytes = R.u32();

    uint32_t NumParams = R.u32();
    if (!R.plausibleCount(NumParams, 10)) {
      Error = "implausible parameter count in '" + F.Name + "'";
      return false;
    }
    F.ParamTypes.reserve(NumParams);
    for (uint32_t PI = 0; PI < NumParams; ++PI) {
      Type T(BuiltinKind::Int);
      if (!readType(R, T, Error)) {
        if (Error.empty())
          Error = "truncated parameter type in '" + F.Name + "'";
        return false;
      }
      F.ParamTypes.push_back(std::move(T));
    }

    uint32_t NumInstrs = R.u32();
    if (!R.plausibleCount(NumInstrs, 21)) {
      Error = "implausible instruction count in '" + F.Name + "'";
      return false;
    }
    F.Code.reserve(NumInstrs);
    for (uint32_t II = 0; II < NumInstrs; ++II) {
      Instr I;
      uint8_t Op8 = R.u8();
      I.A = R.i64();
      I.B = R.i64();
      I.C = R.u32();
      if (Op8 >= NumOpcodes) {
        Error = "invalid opcode " + std::to_string(Op8) + " in '" + F.Name +
                "'";
        return false;
      }
      I.Code = (Op)Op8;
      F.Code.push_back(I);
    }

    if (!R.ok()) {
      Error = "truncated function record";
      return false;
    }
    if (P.FunctionIndex.count(F.Name)) {
      Error = "duplicate function '" + F.Name + "'";
      return false;
    }
    P.FunctionIndex[F.Name] = (unsigned)P.Functions.size();
    P.Functions.push_back(std::move(F));
  }

  uint32_t NumTraps = R.u32();
  if (!R.plausibleCount(NumTraps, 4)) {
    Error = "implausible trap-message count";
    return false;
  }
  P.TrapMessages.reserve(NumTraps);
  for (uint32_t I = 0; I < NumTraps; ++I)
    P.TrapMessages.push_back(R.str());

  uint64_t ImageSize = R.u64();
  std::string_view Image = R.raw(ImageSize);
  if (!R.ok()) {
    Error = "truncated global image";
    return false;
  }
  P.GlobalImage.assign(Image.begin(), Image.end());

  uint32_t NumGlobals = R.u32();
  if (!R.plausibleCount(NumGlobals, 8)) {
    Error = "implausible global count";
    return false;
  }
  for (uint32_t I = 0; I < NumGlobals; ++I) {
    std::string Name = R.str();
    uint32_t Off = R.u32();
    if (!R.ok())
      break;
    if (Off > P.GlobalImage.size()) {
      Error = "global '" + Name + "' offset out of range";
      return false;
    }
    if (!P.GlobalOffsets.emplace(std::move(Name), Off).second) {
      Error = "duplicate global name";
      return false;
    }
  }

  uint32_t NumSites = R.u32();
  if (!R.plausibleCount(NumSites, 4)) {
    Error = "implausible launch-site count";
    return false;
  }
  P.LaunchSiteNames.reserve(NumSites);
  for (uint32_t I = 0; I < NumSites; ++I)
    P.LaunchSiteNames.push_back(R.str());

  if (!R.ok()) {
    Error = "truncated payload";
    return false;
  }
  if (!R.atEnd()) {
    Error = "trailing bytes after payload";
    return false;
  }
  return true;
}

} // namespace

std::string dpo::serializeVmProgram(const VmProgram &Program) {
  static_assert(VmImageHeaderBytes == sizeof(Magic) + 4 + 8 + 8);
  std::string Image;
  {
    Writer W(Image, VmImageHeaderBytes + payloadSize(Program));
    W.raw(Magic, sizeof(Magic));
    W.u32(BytecodeFormatVersion);
    W.u64(0); // payload length and checksum, patched below
    W.u64(0);
    serializePayload(Program, W);
    std::string_view Payload = W.writtenSince(VmImageHeaderBytes);
    W.patchU64(VmImageHeaderBytes - 16, Payload.size());
    W.patchU64(VmImageHeaderBytes - 8, fnv1a64(Payload));
  }
  return Image;
}

bool dpo::deserializeVmProgram(std::string_view Image, VmProgram &Out,
                               std::string &Error) {
  Reader R(Image);
  std::string_view Head = R.raw(sizeof(Magic));
  if (!R.ok() || std::memcmp(Head.data(), Magic, sizeof(Magic)) != 0) {
    Error = "not a dpopt bytecode image (bad magic)";
    return false;
  }
  uint32_t Version = R.u32();
  if (!R.ok()) {
    Error = "truncated header";
    return false;
  }
  if (Version != BytecodeFormatVersion) {
    Error = "bytecode format version " + std::to_string(Version) +
            " (expected " + std::to_string(BytecodeFormatVersion) + ")";
    return false;
  }
  uint64_t PayloadLen = R.u64();
  uint64_t Checksum = R.u64();
  std::string_view Payload = R.raw(PayloadLen);
  if (!R.ok() || !R.atEnd()) {
    Error = "payload length mismatch";
    return false;
  }
  if (fnv1a64(Payload) != Checksum) {
    Error = "payload checksum mismatch (corrupt image)";
    return false;
  }

  VmProgram P;
  if (!deserializePayload(Payload, P, Error))
    return false;
  Out = std::move(P);
  return true;
}
