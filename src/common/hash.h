#ifndef CHAINSPLIT_COMMON_HASH_H_
#define CHAINSPLIT_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace chainsplit {

/// Mixes `value` into `seed` (boost::hash_combine recipe, 64-bit).
inline void HashCombine(size_t* seed, size_t value) {
  *seed ^= value + 0x9e3779b97f4a7c15ULL + (*seed << 6) + (*seed >> 2);
}

/// Final avalanche over a hash-combine chain (murmur3 finalizer) so
/// linear probing, which masks the low bits, sees well-spread bits.
inline size_t HashFinalize(size_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

/// Hashes a contiguous range of integer ids (tuples, argument lists).
template <typename Int>
size_t HashRange(const Int* data, size_t n) {
  size_t seed = n;
  for (size_t i = 0; i < n; ++i) {
    HashCombine(&seed, static_cast<size_t>(data[i]));
  }
  return seed;
}

template <typename Int>
size_t HashVector(const std::vector<Int>& v) {
  return HashRange(v.data(), v.size());
}

}  // namespace chainsplit

#endif  // CHAINSPLIT_COMMON_HASH_H_
