// FNV-1a 64-bit hashing, shared by every content-addressing site: the
// model repository's content hash, the artifact store's config-key file
// names, the study plan's fingerprint and the lumping pass's block
// signatures. One implementation so they can never drift apart. Payload
// checksums (artifact and wire frames) use support/lane_checksum.hpp
// instead: byte-serial FNV-1a costs ~13 ms per 9 MB payload.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rrl {

inline constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/// Mix `n` raw bytes into a running FNV-1a state.
inline void fnv1a_mix(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnv1aPrime;
  }
}

}  // namespace rrl
