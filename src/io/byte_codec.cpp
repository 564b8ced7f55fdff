#include "io/byte_codec.hpp"

#include "support/lane_checksum.hpp"

namespace rrl {
namespace {

constexpr std::uint16_t kEndianTag = 0x0102;

[[noreturn]] void corrupt(const EnvelopeFormat& format, const char* what) {
  throw contract_error(std::string(format.codec) + ": " + what);
}

template <typename T>
void append(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_at(std::string_view bytes, std::size_t& cursor) {
  T value;
  std::memcpy(&value, bytes.data() + cursor, sizeof(T));
  cursor += sizeof(T);
  return value;
}

}  // namespace

std::size_t begin_envelope(std::string& out, const EnvelopeFormat& format,
                           std::uint16_t type) {
  const std::size_t begin = out.size();
  out.append(format.magic.data(), format.magic.size());
  append<std::uint32_t>(out, format.version);
  append<std::uint16_t>(out, kEndianTag);
  if (format.type_count > 0) append<std::uint16_t>(out, type);
  append<std::uint64_t>(out, 0);
  return begin;
}

void seal_envelope(std::string& out, std::size_t begin,
                   const EnvelopeFormat& format) {
  const std::size_t payload_at = begin + envelope_header_bytes(format);
  RRL_EXPECTS(out.size() >= payload_at);
  const std::uint64_t length = out.size() - payload_at;
  std::memcpy(out.data() + payload_at - sizeof(length), &length,
              sizeof(length));
  append<std::uint64_t>(
      out, lane_checksum({out.data() + payload_at,
                          static_cast<std::size_t>(length)}));
}

std::optional<Envelope> open_envelope(std::string_view bytes,
                                      const EnvelopeFormat& format) {
  const std::size_t header = envelope_header_bytes(format);
  if (bytes.size() < header) return std::nullopt;
  if (std::memcmp(bytes.data(), format.magic.data(), format.magic.size()) !=
      0) {
    corrupt(format, "bad magic");
  }
  std::size_t cursor = format.magic.size();
  if (read_at<std::uint32_t>(bytes, cursor) != format.version) {
    corrupt(format, "unsupported format version");
  }
  if (read_at<std::uint16_t>(bytes, cursor) != kEndianTag) {
    corrupt(format, "foreign endianness");
  }
  Envelope envelope;
  if (format.type_count > 0) {
    envelope.type = read_at<std::uint16_t>(bytes, cursor);
    if (envelope.type < 1 || envelope.type > format.type_count) {
      corrupt(format, "unknown type");
    }
  }
  const auto length = read_at<std::uint64_t>(bytes, cursor);
  if (length > kMaxEnvelopePayload) corrupt(format, "oversized payload");
  envelope.size =
      header + static_cast<std::size_t>(length) + sizeof(std::uint64_t);
  if (bytes.size() < envelope.size) return std::nullopt;
  envelope.payload = bytes.substr(header, static_cast<std::size_t>(length));
  cursor = header + envelope.payload.size();
  if (read_at<std::uint64_t>(bytes, cursor) !=
      lane_checksum({envelope.payload.data(), envelope.payload.size()})) {
    corrupt(format, "checksum mismatch");
  }
  return envelope;
}

Envelope open_whole_envelope(std::string_view bytes,
                             const EnvelopeFormat& format) {
  const std::optional<Envelope> envelope = open_envelope(bytes, format);
  if (!envelope.has_value()) corrupt(format, "truncated");
  if (envelope->size != bytes.size()) corrupt(format, "trailing bytes");
  return *envelope;
}

}  // namespace rrl
