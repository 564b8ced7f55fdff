// Word-at-a-time payload checksum of the artifact and wire codecs
// (io/artifact_codec, io/wire_codec).
//
// Four independent 64-bit lanes each fold every fourth 8-byte word of the
// payload with xxHash64's round, lane = rotl(lane + word * P2, 31) * P1.
// The lanes' multiply chains overlap, so a multi-megabyte DTMC payload
// costs a fraction of a millisecond, where byte-serial FNV-1a (one
// dependent multiply per byte) spent ~13 ms on 9 MB.
//
// Detection guarantee: every step is a bijection — of the lane for a
// fixed word, and of the word for a fixed lane (an odd multiplier, an
// addition, a rotation) — and the merge folds each lane, then each tail
// word, into the digest through bijections too. So a payload that differs
// from another of the same length in a single 8-byte word always has a
// different digest; in particular every single-bit flip is caught. The
// length is mixed in first, so trailing zero bytes are not free either.
//
// Not a cryptographic hash, and not xxHash64 itself (the short-input path
// and the tail differ). Words are read in native byte order, as the
// codecs write their payloads; both reject foreign-endian frames before
// checksumming.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace rrl {

namespace lane_checksum_detail {

inline constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

[[nodiscard]] inline std::uint64_t rotl(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

[[nodiscard]] inline std::uint64_t word_at(const char* p) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

/// One lane step: bijective in `lane` for a fixed `word` and vice versa.
[[nodiscard]] inline std::uint64_t lane_round(std::uint64_t lane,
                                              std::uint64_t word) noexcept {
  return rotl(lane + word * kP2, 31) * kP1;
}

/// Fold `value` into the digest: bijective in each argument.
[[nodiscard]] inline std::uint64_t fold(std::uint64_t digest,
                                        std::uint64_t value) noexcept {
  return rotl(digest ^ lane_round(0, value), 27) * kP1 + kP4;
}

}  // namespace lane_checksum_detail

/// Bytes one lane block covers: one word per lane.
inline constexpr std::size_t kLaneBlockBytes = 32;

/// Checksum of `bytes` (see the header comment for what it guarantees).
[[nodiscard]] inline std::uint64_t lane_checksum(
    std::span<const char> bytes) noexcept {
  using namespace lane_checksum_detail;
  const char* p = bytes.data();
  const std::size_t n = bytes.size();
  const char* const blocks_end = p + n / kLaneBlockBytes * kLaneBlockBytes;

  std::uint64_t v0 = kP1 + kP2;
  std::uint64_t v1 = kP2;
  std::uint64_t v2 = 0;
  std::uint64_t v3 = 0 - kP1;
  for (; p != blocks_end; p += kLaneBlockBytes) {
    v0 = lane_round(v0, word_at(p));
    v1 = lane_round(v1, word_at(p + 8));
    v2 = lane_round(v2, word_at(p + 16));
    v3 = lane_round(v3, word_at(p + 24));
  }

  std::uint64_t h = fold(kP5, n);
  h = fold(h, v0);
  h = fold(h, v1);
  h = fold(h, v2);
  h = fold(h, v3);
  // Tail: up to three whole words, then up to seven bytes zero-padded to
  // one more word (its byte count is fixed by n, so padding is no alias).
  for (; static_cast<std::size_t>(bytes.data() + n - p) >= 8; p += 8) {
    h = fold(h, word_at(p));
  }
  const auto rest = static_cast<std::size_t>(bytes.data() + n - p);
  if (rest > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, rest);
    h = fold(h, w);
  }
  // Avalanche (each step invertible).
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace rrl
