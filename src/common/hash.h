#ifndef QUAESTOR_COMMON_HASH_H_
#define QUAESTOR_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

namespace quaestor {

/// 64-bit hash of a byte range (MurmurHash3-style finalized avalanche
/// mixing). Stable across runs; used for sharding, Bloom filters, and
/// Zipf scrambling.
uint64_t Hash64(const void* data, size_t len, uint64_t seed = 0);

/// 64-bit hash of a string.
uint64_t Hash64(std::string_view s, uint64_t seed = 0);

/// 64-bit hash of an integer (finalizer-only mix).
uint64_t Hash64(uint64_t x, uint64_t seed = 0);

/// Derives `k` Bloom-filter bit positions in [0, m) from a key using the
/// standard Kirsch-Mitzenmacher double-hashing scheme
/// (g_i = h1 + i * h2 mod m). Writes positions into `out[0..k)`.
void BloomPositions(std::string_view key, size_t k, size_t m, size_t* out);

/// Transparent std::string hash for unordered containers keyed by
/// std::string (with std::equal_to<>): lookups by string_view never
/// allocate.
struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view key) const {
    return std::hash<std::string_view>{}(key);
  }
};

}  // namespace quaestor

#endif  // QUAESTOR_COMMON_HASH_H_
