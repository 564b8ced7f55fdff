// The byte layer under the artifact codec (io/artifact_codec) and the
// wire codec (io/wire_codec): one writer, one bounds-checked reader and
// one envelope. The two codecs keep only their payload layouts.
//
// Envelope layout (every integer in the writer's native byte order):
//
//   magic     8 bytes        names the format ("RRLART\n\0" for artifact
//                            files, "RRLWIR\n\0" for wire frames)
//   version   u32            the format's revision
//   endian    u16 0x0102     read back as 0x0201 on a foreign-endian
//                            machine, where the envelope is rejected
//                            rather than byte-swapped: an artifact is a
//                            cache and a frame comes from the same
//                            binary, so a reader refuses, never guesses
//   type      u16            typed formats only (wire frames): 1..N
//   length    u64            payload byte count
//   payload   length bytes
//   checksum  u64            lane_checksum over the payload
//                            (support/lane_checksum.hpp; any one changed
//                            word always changes it)
//
// Payload scalars and arrays are raw native bytes (raw IEEE-754 bits for
// doubles), so a round trip is bit-exact. Arrays and strings carry a u64
// count first.
//
// Writing adds no payload-sized copy: begin_envelope() appends the header
// with a zero length, the caller's ByteWriter appends the payload in
// place, and seal_envelope() patches the length in and appends the
// checksum. ByteWriter's counting mode sizes a payload first, so the
// buffer is reserved once.
//
// Reading: open_envelope() takes the envelope at the front of a buffer and
// answers "not yet" while it is incomplete (the wire reads byte streams);
// open_whole_envelope() wants a buffer that is exactly one envelope (a
// file, whose own size bounds the buffer). Every failure — bad magic,
// another version, foreign endianness, an unknown type, a length past
// the cap, a checksum mismatch, and in the payload a count the remaining
// bytes cannot hold — throws contract_error before anything is allocated
// from the bad field.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/contracts.hpp"

namespace rrl {

/// Appends native-byte-order scalars, arrays and strings to a buffer, or
/// only counts them when it has none.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out = nullptr) : out_(out) {}

  template <typename T>
  void scalar(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&value, sizeof(T));
  }

  /// A u64 count, then the elements.
  template <typename T>
  void array(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    scalar<std::uint64_t>(values.size());
    bytes(values.data(), values.size() * sizeof(T));
  }

  /// A u64 length, then the bytes.
  void string(std::string_view s) {
    scalar<std::uint64_t>(s.size());
    bytes(s.data(), s.size());
  }

  /// Bytes written (or counted) so far.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  void bytes(const void* data, std::size_t n) {
    if (out_ != nullptr && n > 0) {
      out_->append(static_cast<const char*>(data), n);
    }
    size_ += n;
  }

  std::string* out_;
  std::size_t size_ = 0;
};

/// Bounds-checked mirror of ByteWriter. Every count is checked against the
/// remaining bytes BEFORE it sizes an allocation, so a corrupt count
/// cannot trigger a huge one. Failures throw contract_error prefixed with
/// the codec's name.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, const char* codec)
      : bytes_(bytes), codec_(codec) {}

  template <typename T>
  [[nodiscard]] T scalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) fail("truncated payload");
    T value;
    std::memcpy(&value, bytes_.data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return value;
  }

  template <typename T>
  [[nodiscard]] std::vector<T> array() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = static_cast<std::size_t>(count(sizeof(T)));
    std::vector<T> values(n);
    if (n > 0) {
      std::memcpy(values.data(), bytes_.data() + cursor_, n * sizeof(T));
      cursor_ += n * sizeof(T);
    }
    return values;
  }

  [[nodiscard]] std::string string() {
    const auto n = static_cast<std::size_t>(count(1));
    std::string s(bytes_.data() + cursor_, n);
    cursor_ += n;
    return s;
  }

  /// A u64 count of items that each occupy at least `min_item_bytes`;
  /// one the remaining bytes cannot hold is corruption.
  [[nodiscard]] std::uint64_t count(std::size_t min_item_bytes) {
    const auto n = scalar<std::uint64_t>();
    if (n > remaining() / min_item_bytes) fail("oversized count");
    return n;
  }

  void expect_exhausted() const {
    if (remaining() != 0) fail("trailing bytes");
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw contract_error(std::string(codec_) + ": " + what);
  }

 private:
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - cursor_;
  }

  std::string_view bytes_;
  const char* codec_;
  std::size_t cursor_ = 0;
};

/// What tells one envelope format from another.
struct EnvelopeFormat {
  std::array<char, 8> magic{};
  std::uint32_t version = 0;
  /// A typed format carries a u16 tag in 1..type_count after the endian
  /// tag; 0 = untyped.
  std::uint16_t type_count = 0;
  /// Prefix of every error message ("artifact codec", "wire codec").
  const char* codec = "";
};

/// The largest payload an envelope may declare: anything beyond is
/// corruption, refused before the wait for (or allocation of) its bytes.
inline constexpr std::uint64_t kMaxEnvelopePayload = 1ULL << 32;

/// Bytes before the payload: magic, version, endian, [type,] length.
[[nodiscard]] constexpr std::size_t envelope_header_bytes(
    const EnvelopeFormat& format) noexcept {
  return 8 + sizeof(std::uint32_t) + sizeof(std::uint16_t) +
         (format.type_count > 0 ? sizeof(std::uint16_t) : 0) +
         sizeof(std::uint64_t);
}

/// Bytes an envelope adds around its payload: header and checksum.
[[nodiscard]] constexpr std::size_t envelope_overhead(
    const EnvelopeFormat& format) noexcept {
  return envelope_header_bytes(format) + sizeof(std::uint64_t);
}

/// Append `format`'s header with a zero length to `out` (`type` is written
/// only by a typed format). Returns the header's offset, for
/// seal_envelope once the payload follows it.
std::size_t begin_envelope(std::string& out, const EnvelopeFormat& format,
                           std::uint16_t type = 0);

/// Patch the length of the payload appended since begin_envelope() into
/// the header at `begin`, and append the payload's checksum.
void seal_envelope(std::string& out, std::size_t begin,
                   const EnvelopeFormat& format);

/// One opened envelope: a view of its payload inside the caller's buffer.
struct Envelope {
  std::uint16_t type = 0;  ///< 0 for an untyped format
  std::string_view payload;
  std::size_t size = 0;  ///< bytes the whole envelope occupies
};

/// The envelope at the front of `bytes`, or nullopt while it is
/// incomplete (bytes past it are left alone). A header or checksum that
/// does not verify throws contract_error.
[[nodiscard]] std::optional<Envelope> open_envelope(
    std::string_view bytes, const EnvelopeFormat& format);

/// A buffer that must be exactly one envelope: an incomplete one or
/// trailing bytes throw contract_error too.
[[nodiscard]] Envelope open_whole_envelope(std::string_view bytes,
                                           const EnvelopeFormat& format);

}  // namespace rrl
