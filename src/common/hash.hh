/**
 * @file
 * Deterministic non-cryptographic hashing (64-bit FNV-1a) for
 * content-addressed keys: the serving layer hashes a canonical JSON
 * description of a run's inputs to decide whether a cached result can
 * stand in for a fresh simulation. FNV-1a is stable across platforms
 * and runs, unlike std::hash.
 */

#ifndef GOPIM_COMMON_HASH_HH
#define GOPIM_COMMON_HASH_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace gopim {

inline constexpr uint64_t kFnv1aOffsetBasis = 14695981039346656037ULL;
inline constexpr uint64_t kFnv1aPrime = 1099511628211ULL;

/** 64-bit FNV-1a over `data`, chainable via `seed`. */
uint64_t fnv1a64(std::string_view data,
                 uint64_t seed = kFnv1aOffsetBasis);

/** Fixed-width (16 char) lowercase hex rendering of a 64-bit hash. */
std::string hexDigest64(uint64_t hash);

/**
 * Append the native bytes of a fixed-width value to a binary memo key
 * (FingerprintCache). Keys built this way are exact: a double keys by
 * its bit pattern (-0.0 and 0.0 key differently on purpose), and
 * callers prefix each variable-length section with its length so two
 * inputs can never concatenate to the same bytes.
 */
template <typename T>
inline void
packKey(std::string *key, T value)
{
    static_assert(std::is_trivially_copyable_v<T>);
    char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    key->append(bytes, sizeof value);
}

} // namespace gopim

#endif // GOPIM_COMMON_HASH_HH
