#include "io/wire_codec.hpp"

#include <cstring>
#include <type_traits>

#include "support/contracts.hpp"
#include "support/lane_checksum.hpp"

namespace rrl {
namespace {

constexpr char kMagic[8] = {'R', 'R', 'L', 'W', 'I', 'R', '\n', '\0'};
constexpr std::uint16_t kEndianTag = 0x0102;
// magic + version + endian + type + length.
constexpr std::size_t kHeaderBytes =
    sizeof(kMagic) + sizeof(std::uint32_t) + 2 * sizeof(std::uint16_t) +
    sizeof(std::uint64_t);
// Result frames carry whole row sets; anything beyond this is corruption,
// not a workload (a million-row unit is ~100 MB of CSV — re-plan the
// study before re-tuning this).
constexpr std::uint64_t kMaxPayload = 1ULL << 32;

[[noreturn]] void corrupt(const std::string& what) {
  throw contract_error("wire codec: " + what);
}

// Byte-buffer writer/reader mirroring the artifact codec's: native-order
// scalars, u64-counted strings, every count bounds-checked before use.

class Writer {
 public:
  template <typename T>
  void scalar(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* bytes = reinterpret_cast<const char*>(&value);
    buffer_.append(bytes, sizeof(T));
  }

  void string(const std::string& s) {
    scalar<std::uint64_t>(s.size());
    buffer_.append(s);
  }

  [[nodiscard]] std::string take() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  [[nodiscard]] T scalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) corrupt("truncated payload");
    T value;
    std::memcpy(&value, bytes_.data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return value;
  }

  [[nodiscard]] std::string string() {
    const auto count = scalar<std::uint64_t>();
    if (count > remaining()) corrupt("oversized string");
    std::string s(bytes_.data() + cursor_, static_cast<std::size_t>(count));
    cursor_ += static_cast<std::size_t>(count);
    return s;
  }

  void expect_exhausted() const {
    if (cursor_ != bytes_.size()) corrupt("trailing bytes");
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - cursor_;
  }

 private:
  std::string_view bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace

std::string encode_frame(WireType type, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size() + sizeof(std::uint64_t));
  out.append(kMagic, sizeof(kMagic));
  const std::uint32_t version = kWireProtocolVersion;
  out.append(reinterpret_cast<const char*>(&version), sizeof(version));
  const std::uint16_t endian = kEndianTag;
  out.append(reinterpret_cast<const char*>(&endian), sizeof(endian));
  const auto type_tag = static_cast<std::uint16_t>(type);
  out.append(reinterpret_cast<const char*>(&type_tag), sizeof(type_tag));
  const std::uint64_t length = payload.size();
  out.append(reinterpret_cast<const char*>(&length), sizeof(length));
  out.append(payload);
  const std::uint64_t checksum =
      lane_checksum({payload.data(), payload.size()});
  out.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return out;
}

std::optional<WireFrame> decode_frame(std::string_view buffer,
                                      std::size_t& consumed) {
  consumed = 0;
  if (buffer.size() < kHeaderBytes) return std::nullopt;

  std::size_t cursor = 0;
  const auto read = [&](void* into, std::size_t n) {
    std::memcpy(into, buffer.data() + cursor, n);
    cursor += n;
  };
  char magic[sizeof(kMagic)];
  read(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    corrupt("bad magic (not a wire frame)");
  }
  std::uint32_t version = 0;
  read(&version, sizeof(version));
  if (version != kWireProtocolVersion) corrupt("unsupported protocol");
  std::uint16_t endian = 0;
  read(&endian, sizeof(endian));
  if (endian != kEndianTag) corrupt("foreign endianness");
  std::uint16_t type_tag = 0;
  read(&type_tag, sizeof(type_tag));
  if (type_tag < static_cast<std::uint16_t>(WireType::kHello) ||
      type_tag > static_cast<std::uint16_t>(WireType::kStatsReport)) {
    corrupt("unknown frame type");
  }
  std::uint64_t length = 0;
  read(&length, sizeof(length));
  if (length > kMaxPayload) corrupt("oversized payload");

  const std::size_t total =
      kHeaderBytes + static_cast<std::size_t>(length) +
      sizeof(std::uint64_t);
  if (buffer.size() < total) return std::nullopt;

  WireFrame frame;
  frame.type = static_cast<WireType>(type_tag);
  frame.payload.assign(buffer.data() + cursor,
                       static_cast<std::size_t>(length));
  cursor += static_cast<std::size_t>(length);
  std::uint64_t checksum = 0;
  read(&checksum, sizeof(checksum));
  if (checksum !=
      lane_checksum({frame.payload.data(), frame.payload.size()})) {
    corrupt("checksum mismatch");
  }
  consumed = total;
  return frame;
}

std::string encode_hello(const WireHello& hello) {
  Writer w;
  w.scalar<std::uint32_t>(hello.protocol);
  w.scalar<std::uint64_t>(hello.plan_fingerprint);
  w.scalar<std::uint64_t>(hello.unit_count);
  w.scalar<std::uint64_t>(hello.total_scenarios);
  return w.take();
}

WireHello decode_hello(std::string_view payload) {
  Reader r(payload);
  WireHello hello;
  hello.protocol = r.scalar<std::uint32_t>();
  hello.plan_fingerprint = r.scalar<std::uint64_t>();
  hello.unit_count = r.scalar<std::uint64_t>();
  hello.total_scenarios = r.scalar<std::uint64_t>();
  r.expect_exhausted();
  return hello;
}

std::string encode_assign(const WireAssign& assign) {
  Writer w;
  w.scalar<std::uint64_t>(assign.unit);
  w.scalar<std::uint64_t>(assign.first_scenario);
  w.scalar<std::uint64_t>(assign.scenario_count);
  return w.take();
}

WireAssign decode_assign(std::string_view payload) {
  Reader r(payload);
  WireAssign assign;
  assign.unit = r.scalar<std::uint64_t>();
  assign.first_scenario = r.scalar<std::uint64_t>();
  assign.scenario_count = r.scalar<std::uint64_t>();
  r.expect_exhausted();
  return assign;
}

std::string encode_result(const WireResult& result) {
  Writer w;
  w.scalar<std::uint64_t>(result.unit);
  w.scalar<double>(result.seconds);
  w.scalar<std::uint64_t>(result.rows.size());
  for (const ReportRow& row : result.rows) {
    w.scalar<std::uint64_t>(row.scenario);
    w.scalar<std::uint64_t>(row.point);
    w.string(row.model);
    w.string(row.solver);
    w.string(row.measure);
    w.scalar<double>(row.epsilon);
    w.scalar<double>(row.t);
    w.scalar<double>(row.value);
    w.scalar<std::int64_t>(row.dtmc_steps);
    w.string(row.error);
    w.scalar<double>(row.seconds);
    w.string(row.tier);
  }
  return w.take();
}

WireResult decode_result(std::string_view payload) {
  Reader r(payload);
  WireResult result;
  result.unit = r.scalar<std::uint64_t>();
  result.seconds = r.scalar<double>();
  const auto count = r.scalar<std::uint64_t>();
  // A row occupies far more than 8 payload bytes; a count beyond this can
  // only come from corruption — refuse before allocating.
  if (count > r.remaining() / 8) corrupt("oversized row count");
  result.rows.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    ReportRow row;
    row.scenario = r.scalar<std::uint64_t>();
    row.point = r.scalar<std::uint64_t>();
    row.model = r.string();
    row.solver = r.string();
    row.measure = r.string();
    row.epsilon = r.scalar<double>();
    row.t = r.scalar<double>();
    row.value = r.scalar<double>();
    row.dtmc_steps = r.scalar<std::int64_t>();
    row.error = r.string();
    row.seconds = r.scalar<double>();
    row.tier = r.string();
    result.rows.push_back(std::move(row));
  }
  r.expect_exhausted();
  return result;
}

std::string encode_artifact_request(const WireArtifactRequest& request) {
  Writer w;
  w.scalar<std::uint64_t>(request.model_hash);
  w.string(request.solver);
  w.scalar<double>(request.epsilon);
  w.scalar<double>(request.rate_factor);
  w.scalar<std::int64_t>(request.regenerative);
  w.scalar<std::int64_t>(request.step_cap);
  return w.take();
}

WireArtifactRequest decode_artifact_request(std::string_view payload) {
  Reader r(payload);
  WireArtifactRequest request;
  request.model_hash = r.scalar<std::uint64_t>();
  request.solver = r.string();
  request.epsilon = r.scalar<double>();
  request.rate_factor = r.scalar<double>();
  request.regenerative = r.scalar<std::int64_t>();
  request.step_cap = r.scalar<std::int64_t>();
  r.expect_exhausted();
  return request;
}

std::string encode_artifact_data(const WireArtifactData& data) {
  Writer w;
  w.scalar<std::uint64_t>(data.model_hash);
  w.string(data.solver);
  w.scalar<std::uint8_t>(data.found ? 1 : 0);
  w.string(data.blob);
  return w.take();
}

WireArtifactData decode_artifact_data(std::string_view payload) {
  Reader r(payload);
  WireArtifactData data;
  data.model_hash = r.scalar<std::uint64_t>();
  data.solver = r.string();
  const auto found = r.scalar<std::uint8_t>();
  if (found > 1) corrupt("bad artifact_data found flag");
  data.found = found == 1;
  data.blob = r.string();
  r.expect_exhausted();
  return data;
}

std::string encode_stats_report(const WireStatsReport& stats) {
  Writer w;
  w.scalar<std::uint64_t>(stats.units);
  w.scalar<double>(stats.busy_seconds);
  w.scalar<std::uint64_t>(stats.counters.size());
  for (const auto& [name, value] : stats.counters) {
    w.string(name);
    w.scalar<std::uint64_t>(value);
  }
  return w.take();
}

WireStatsReport decode_stats_report(std::string_view payload) {
  Reader r(payload);
  WireStatsReport stats;
  stats.units = r.scalar<std::uint64_t>();
  stats.busy_seconds = r.scalar<double>();
  const auto count = r.scalar<std::uint64_t>();
  // Each counter needs at least its name length (8) + value (8); a count
  // beyond the payload can only be corruption — refuse before allocating.
  if (count > r.remaining() / 16) corrupt("oversized counter count");
  stats.counters.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name = r.string();
    const auto value = r.scalar<std::uint64_t>();
    stats.counters.emplace_back(std::move(name), value);
  }
  r.expect_exhausted();
  return stats;
}

}  // namespace rrl
