#include "io/wire_codec.hpp"

#include <limits>

namespace rrl {

std::string encode_frame(WireType type, std::string_view payload) {
  std::string out;
  out.reserve(envelope_overhead(kWireEnvelope) + payload.size());
  const std::size_t begin =
      begin_envelope(out, kWireEnvelope, static_cast<std::uint16_t>(type));
  out.append(payload);
  seal_envelope(out, begin, kWireEnvelope);
  return out;
}

std::optional<WireFrame> decode_frame(std::string_view buffer,
                                      std::size_t& consumed) {
  consumed = 0;
  const std::optional<Envelope> envelope =
      open_envelope(buffer, kWireEnvelope);
  if (!envelope.has_value()) return std::nullopt;
  consumed = envelope->size;
  return WireFrame{static_cast<WireType>(envelope->type),
                   std::string(envelope->payload)};
}

std::string encode_hello(const WireHello& hello) {
  std::string out;
  ByteWriter w(&out);
  w.scalar<std::uint32_t>(hello.protocol);
  w.scalar<std::uint64_t>(hello.plan_fingerprint);
  w.scalar<std::uint64_t>(hello.unit_count);
  w.scalar<std::uint64_t>(hello.total_scenarios);
  return out;
}

WireHello decode_hello(std::string_view payload) {
  ByteReader r(payload, kWireEnvelope.codec);
  WireHello hello;
  hello.protocol = r.scalar<std::uint32_t>();
  hello.plan_fingerprint = r.scalar<std::uint64_t>();
  hello.unit_count = r.scalar<std::uint64_t>();
  hello.total_scenarios = r.scalar<std::uint64_t>();
  r.expect_exhausted();
  return hello;
}

std::string encode_assign(const WireAssign& assign) {
  std::string out;
  ByteWriter w(&out);
  w.scalar<std::uint64_t>(assign.unit);
  w.scalar<std::uint64_t>(assign.first_scenario);
  w.scalar<std::uint64_t>(assign.scenario_count);
  return out;
}

WireAssign decode_assign(std::string_view payload) {
  ByteReader r(payload, kWireEnvelope.codec);
  WireAssign assign;
  assign.unit = r.scalar<std::uint64_t>();
  assign.first_scenario = r.scalar<std::uint64_t>();
  assign.scenario_count = r.scalar<std::uint64_t>();
  r.expect_exhausted();
  return assign;
}

std::string encode_result(const WireResult& result) {
  std::string out;
  ByteWriter w(&out);
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
  return out;
}

WireResult decode_result(std::string_view payload) {
  ByteReader r(payload, kWireEnvelope.codec);
  WireResult result;
  result.unit = r.scalar<std::uint64_t>();
  result.seconds = r.scalar<double>();
  // A row occupies far more than 8 payload bytes.
  const auto count = r.count(8);
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

std::string encode_solver_key(const SolverKey& key) {
  std::string out;
  ByteWriter w(&out);
  w.scalar<std::uint64_t>(key.model_hash);
  w.string(key.solver);
  w.scalar<double>(key.config.epsilon);
  w.scalar<double>(key.config.rate_factor);
  w.scalar<std::int64_t>(key.config.regenerative);
  w.scalar<std::int64_t>(key.config.step_cap);
  return out;
}

SolverKey decode_solver_key(std::string_view payload) {
  ByteReader r(payload, kWireEnvelope.codec);
  SolverKey key;
  key.model_hash = r.scalar<std::uint64_t>();
  key.solver = r.string();
  key.config.epsilon = r.scalar<double>();
  key.config.rate_factor = r.scalar<double>();
  const auto regenerative = r.scalar<std::int64_t>();
  if (regenerative < std::numeric_limits<index_t>::min() ||
      regenerative > std::numeric_limits<index_t>::max()) {
    r.fail("regenerative index out of range");
  }
  key.config.regenerative = static_cast<index_t>(regenerative);
  key.config.step_cap = r.scalar<std::int64_t>();
  r.expect_exhausted();
  return key;
}

std::string encode_artifact_data(const WireArtifactData& data) {
  std::string out;
  ByteWriter w(&out);
  w.scalar<std::uint64_t>(data.model_hash);
  w.string(data.solver);
  w.scalar<std::uint8_t>(data.found ? 1 : 0);
  w.string(data.blob);
  return out;
}

WireArtifactData decode_artifact_data(std::string_view payload) {
  ByteReader r(payload, kWireEnvelope.codec);
  WireArtifactData data;
  data.model_hash = r.scalar<std::uint64_t>();
  data.solver = r.string();
  const auto found = r.scalar<std::uint8_t>();
  if (found > 1) r.fail("bad artifact_data found flag");
  data.found = found == 1;
  data.blob = r.string();
  r.expect_exhausted();
  return data;
}

std::string encode_stats_report(const WireStatsReport& stats) {
  std::string out;
  ByteWriter w(&out);
  w.scalar<std::uint64_t>(stats.units);
  w.scalar<double>(stats.busy_seconds);
  w.scalar<std::uint64_t>(stats.counters.size());
  for (const auto& [name, value] : stats.counters) {
    w.string(name);
    w.scalar<std::uint64_t>(value);
  }
  return out;
}

WireStatsReport decode_stats_report(std::string_view payload) {
  ByteReader r(payload, kWireEnvelope.codec);
  WireStatsReport stats;
  stats.units = r.scalar<std::uint64_t>();
  stats.busy_seconds = r.scalar<double>();
  // Each counter needs at least its name length (8) + value (8).
  const auto count = r.count(16);
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
