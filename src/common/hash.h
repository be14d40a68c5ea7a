#ifndef ISUM_COMMON_HASH_H_
#define ISUM_COMMON_HASH_H_

#include <cstdint>
#include <functional>
#include <string_view>

namespace isum {

/// Mixes `value`'s hash into `seed` (boost-style combiner over 64 bits).
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (value + 0x9E3779B97F4A7C15ull + (seed << 12) + (seed >> 4));
}

/// FNV-1a's starting state.
inline constexpr uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ull;

/// One FNV-1a step: folds byte `c` into state `h`.
inline uint64_t FnvStep(uint64_t h, unsigned char c) {
  return (h ^ c) * 0x100000001B3ull;
}

/// FNV-1a over a byte string; stable across platforms and runs so template
/// signatures can be persisted and compared.
inline uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = kFnvOffsetBasis;
  for (unsigned char c : bytes) h = FnvStep(h, c);
  return h;
}

}  // namespace isum

#endif  // ISUM_COMMON_HASH_H_
