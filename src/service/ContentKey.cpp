//===--- ContentKey.cpp - Content addresses for cached artifacts ---------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Two 64-bit lanes absorb 16 bytes per step with a 64x64->128 multiply
// folded back to 64 bits (the wyhash mixing step). Each field is its full
// blocks followed by one tail block: the 0-15 remaining bytes, zero
// padded, with their count in the block's last byte. Full and tail blocks
// use different secrets, so the step sequence spells out every field's
// length and bytes: tails, lengths and field boundaries all reach the
// result.
//
//===----------------------------------------------------------------------===//

#include "service/ContentKey.h"

#include <bit>
#include <cstdint>
#include <cstring>

using namespace dpo;

namespace {

// wyhash's default secret, and the lanes' fixed starting values.
constexpr uint64_t Secret[4] = {0xa0761d6478bd642full, 0xe7037ed1a0b428dbull,
                                0x8ebc6af09c88c6e3ull, 0x589965cc75374cc3ull};
constexpr uint64_t Seed0 = 0x243f6a8885a308d3ull;
constexpr uint64_t Seed1 = 0x13198a2e03707344ull;

/// Little-endian 64-bit load; memcpy keeps unaligned reads well defined.
uint64_t load64(const unsigned char *P) {
  uint64_t V = 0;
  std::memcpy(&V, P, sizeof(V));
  if constexpr (std::endian::native == std::endian::big)
    V = __builtin_bswap64(V);
  return V;
}

/// 64x64->128 multiply, high and low halves folded together.
uint64_t mix(uint64_t A, uint64_t B) {
  unsigned __int128 R = (unsigned __int128)A * B;
  return (uint64_t)R ^ (uint64_t)(R >> 64);
}

struct Lanes {
  uint64_t A = Seed0;
  uint64_t B = Seed1;

  void step(uint64_t W0, uint64_t W1, uint64_t K0, uint64_t K1) {
    A = mix(W0 ^ K0, W1 ^ A);
    B = mix(W1 ^ K1, W0 ^ B);
  }

  void absorb(std::string_view Field) {
    const auto *P = reinterpret_cast<const unsigned char *>(Field.data());
    size_t N = Field.size();
    for (; N >= 16; P += 16, N -= 16)
      step(load64(P), load64(P + 8), Secret[0], Secret[1]);
    unsigned char Tail[16] = {};
    if (N)
      std::memcpy(Tail, P, N);
    Tail[15] = (unsigned char)N; // N < 16, so byte 15 is otherwise padding
    step(load64(Tail), load64(Tail + 8), Secret[2], Secret[3]);
  }
};

} // namespace

std::string dpo::contentKey(std::initializer_list<std::string_view> Fields,
                            std::string_view Prefix) {
  Lanes L;
  for (std::string_view Field : Fields)
    L.absorb(Field);
  const uint64_t Halves[2] = {mix(L.A ^ Secret[1], L.B ^ Secret[2]),
                              mix(L.B ^ Secret[3], L.A ^ Secret[0])};

  static constexpr char Digits[] = "0123456789abcdef";
  std::string Key(Prefix);
  Key.reserve(Prefix.size() + 32);
  for (uint64_t H : Halves)
    for (int Shift = 60; Shift >= 0; Shift -= 4)
      Key.push_back(Digits[(H >> Shift) & 15]);
  return Key;
}
