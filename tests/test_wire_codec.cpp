// Dispatch wire codec: frame round-trips for every message type,
// incremental decoding from a byte-stream buffer (pipes deliver bytes,
// not messages), and every corruption class of a complete frame throwing
// instead of being misread.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "io/wire_codec.hpp"
#include "support/contracts.hpp"

namespace rrl {
namespace {

ReportRow sample_row(std::uint64_t scenario, std::uint64_t point) {
  ReportRow row;
  row.scenario = scenario;
  row.point = point;
  row.model = "models/raid, \"g20\".rrlm";  // worst-case free text
  row.solver = "rrl";
  row.measure = "mrr";
  row.epsilon = 1e-10;
  row.t = 1234.5;
  row.value = 0.12345678901234567;
  row.dtmc_steps = 4242;
  row.error = scenario % 2 == 0 ? "" : "failed: expected a, got b";
  row.seconds = 0.25;
  row.tier = "disk";
  return row;
}

void expect_rows_equal(const ReportRow& a, const ReportRow& b) {
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.point, b.point);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.solver, b.solver);
  EXPECT_EQ(a.measure, b.measure);
  EXPECT_EQ(a.epsilon, b.epsilon);
  EXPECT_EQ(a.t, b.t);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.dtmc_steps, b.dtmc_steps);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.tier, b.tier);
}

TEST(WireCodec, FramesRoundTripEveryType) {
  WireHello hello;
  hello.plan_fingerprint = 0xdeadbeefcafef00dULL;
  hello.unit_count = 12;
  hello.total_scenarios = 96;

  WireAssign assign;
  assign.unit = 7;
  assign.first_scenario = 56;
  assign.scenario_count = 8;

  WireResult result;
  result.unit = 7;
  result.seconds = 1.5;
  result.rows = {sample_row(56, 0), sample_row(56, 1), sample_row(57, 0)};

  std::string stream;
  stream += encode_frame(WireType::kHello, encode_hello(hello));
  stream += encode_frame(WireType::kAssign, encode_assign(assign));
  stream += encode_frame(WireType::kResult, encode_result(result));
  stream += encode_frame(WireType::kShutdown, {});

  std::size_t consumed = 0;
  auto frame = decode_frame(stream, consumed);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, WireType::kHello);
  const WireHello hello2 = decode_hello(frame->payload);
  EXPECT_EQ(hello2.protocol, kWireProtocolVersion);
  EXPECT_EQ(hello2.plan_fingerprint, hello.plan_fingerprint);
  EXPECT_EQ(hello2.unit_count, hello.unit_count);
  EXPECT_EQ(hello2.total_scenarios, hello.total_scenarios);
  stream.erase(0, consumed);

  frame = decode_frame(stream, consumed);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, WireType::kAssign);
  const WireAssign assign2 = decode_assign(frame->payload);
  EXPECT_EQ(assign2.unit, assign.unit);
  EXPECT_EQ(assign2.first_scenario, assign.first_scenario);
  EXPECT_EQ(assign2.scenario_count, assign.scenario_count);
  stream.erase(0, consumed);

  frame = decode_frame(stream, consumed);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, WireType::kResult);
  const WireResult result2 = decode_result(frame->payload);
  EXPECT_EQ(result2.unit, result.unit);
  EXPECT_EQ(result2.seconds, result.seconds);
  ASSERT_EQ(result2.rows.size(), result.rows.size());
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    expect_rows_equal(result2.rows[i], result.rows[i]);
  }
  stream.erase(0, consumed);

  frame = decode_frame(stream, consumed);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, WireType::kShutdown);
  EXPECT_TRUE(frame->payload.empty());
  stream.erase(0, consumed);
  EXPECT_TRUE(stream.empty());
}

TEST(WireCodec, DecodesIncrementallyFromPartialBuffers) {
  WireAssign assign;
  assign.unit = 3;
  assign.first_scenario = 24;
  assign.scenario_count = 8;
  const std::string frame =
      encode_frame(WireType::kAssign, encode_assign(assign));

  // Every proper prefix is "not yet", never an error or a wrong parse —
  // exactly what a pipe read loop needs.
  for (std::size_t n = 0; n < frame.size(); ++n) {
    std::size_t consumed = 1;  // must be reset to 0 by the codec
    const auto partial = decode_frame(frame.substr(0, n), consumed);
    EXPECT_FALSE(partial.has_value()) << "prefix of " << n << " bytes";
    EXPECT_EQ(consumed, 0u);
  }
  // The full frame plus trailing bytes consumes exactly the frame.
  std::size_t consumed = 0;
  const auto full = decode_frame(frame + "extra", consumed);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(decode_assign(full->payload).unit, 3u);
}

TEST(WireCodec, FleetFrameTypesRoundTrip) {
  // kPing carries nothing — it exists purely to refresh last_heard.
  const std::string ping = encode_frame(WireType::kPing, {});
  std::size_t consumed = 0;
  auto frame = decode_frame(ping, consumed);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, WireType::kPing);
  EXPECT_TRUE(frame->payload.empty());

  SolverKey request;
  request.model_hash = 0x0123456789abcdefULL;
  request.solver = "rrl";
  request.config.epsilon = 1e-10;
  request.config.rate_factor = 1.0625;
  request.config.regenerative = 7;
  request.config.step_cap = 123456;
  const SolverKey request2 =
      decode_solver_key(encode_solver_key(request));
  EXPECT_EQ(request2.model_hash, request.model_hash);
  EXPECT_EQ(request2.solver, request.solver);
  EXPECT_EQ(request2.config.epsilon, request.config.epsilon);
  EXPECT_EQ(request2.config.rate_factor, request.config.rate_factor);
  EXPECT_EQ(request2.config.regenerative, request.config.regenerative);
  EXPECT_EQ(request2.config.step_cap, request.config.step_cap);

  WireArtifactData data;
  data.model_hash = request.model_hash;
  data.solver = "rrl";
  data.found = true;
  data.blob = std::string("binary\0blob\xff with NULs", 22);
  const WireArtifactData data2 =
      decode_artifact_data(encode_artifact_data(data));
  EXPECT_EQ(data2.model_hash, data.model_hash);
  EXPECT_EQ(data2.solver, data.solver);
  EXPECT_TRUE(data2.found);
  EXPECT_EQ(data2.blob, data.blob);

  // The parent-side miss: found=false with an empty blob.
  data.found = false;
  data.blob.clear();
  const WireArtifactData miss =
      decode_artifact_data(encode_artifact_data(data));
  EXPECT_FALSE(miss.found);
  EXPECT_TRUE(miss.blob.empty());

  // A found flag that is neither 0 nor 1 is corruption, not "truthy".
  // Locate the flag byte robustly: encode found=true and found=false and
  // take the first byte that differs.
  data.found = true;
  data.blob.clear();
  const std::string with_true = encode_artifact_data(data);
  data.found = false;
  const std::string with_false = encode_artifact_data(data);
  ASSERT_EQ(with_true.size(), with_false.size());
  std::size_t flag_at = with_true.size();
  for (std::size_t i = 0; i < with_true.size(); ++i) {
    if (with_true[i] != with_false[i]) {
      flag_at = i;
      break;
    }
  }
  ASSERT_LT(flag_at, with_true.size());
  std::string bad = with_true;
  bad[flag_at] = 2;
  EXPECT_THROW((void)decode_artifact_data(bad), contract_error);
}

TEST(WireCodec, EveryFrameSplitAtEveryByteOffsetDecodesIdentically) {
  // The satellite-hardening contract: a TCP stream may hand the reader
  // ANY byte-level chunking of the frame sequence — every split must
  // decode to exactly the same frames, never a tear, never a misparse.
  WireResult result;
  result.unit = 2;
  result.seconds = 0.5;
  result.rows = {sample_row(16, 0), sample_row(17, 1)};
  WireArtifactData data;
  data.model_hash = 42;
  data.solver = "rr";
  data.found = true;
  data.blob = "artifact-bytes";

  std::string stream;
  stream += encode_frame(WireType::kHello, encode_hello({}));
  stream += encode_frame(WireType::kPing, {});
  stream += encode_frame(WireType::kAssign, encode_assign({3, 24, 8}));
  stream += encode_frame(WireType::kArtifactRequest,
                         encode_solver_key({42, "rr", {1e-8, 0, 0, -1}}));
  stream += encode_frame(WireType::kArtifactData, encode_artifact_data(data));
  stream += encode_frame(WireType::kResult, encode_result(result));
  stream += encode_frame(WireType::kShutdown, {});

  // The reference decode from the whole stream at once.
  const auto decode_all = [](std::string buffer) {
    std::vector<WireFrame> frames;
    std::size_t consumed = 0;
    while (true) {
      auto frame = decode_frame(buffer, consumed);
      if (!frame.has_value()) break;
      buffer.erase(0, consumed);
      frames.push_back(std::move(*frame));
    }
    EXPECT_TRUE(buffer.empty());
    return frames;
  };
  const std::vector<WireFrame> reference = decode_all(stream);
  ASSERT_EQ(reference.size(), 7u);

  // Deliver the stream in two chunks split at EVERY byte offset, decoding
  // greedily after each chunk arrives — the read-loop discipline of the
  // channel inbox.
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    std::vector<WireFrame> frames;
    std::string buffer;
    std::size_t consumed = 0;
    for (const std::string& chunk :
         {stream.substr(0, split), stream.substr(split)}) {
      buffer += chunk;
      while (true) {
        auto frame = decode_frame(buffer, consumed);
        if (!frame.has_value()) break;
        buffer.erase(0, consumed);
        frames.push_back(std::move(*frame));
      }
    }
    ASSERT_TRUE(buffer.empty()) << "split at " << split;
    ASSERT_EQ(frames.size(), reference.size()) << "split at " << split;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(frames[i].type, reference[i].type) << "split at " << split;
      EXPECT_EQ(frames[i].payload, reference[i].payload)
          << "split at " << split;
    }
  }
}

TEST(WireCodec, RejectsEveryCorruptionClass) {
  const std::string good =
      encode_frame(WireType::kAssign, encode_assign({5, 40, 8}));
  std::size_t consumed = 0;

  // Bad magic.
  std::string bad = good;
  bad[0] = 'X';
  EXPECT_THROW((void)decode_frame(bad, consumed), contract_error);

  // Foreign protocol version.
  bad = good;
  bad[8] = static_cast<char>(bad[8] + 1);
  EXPECT_THROW((void)decode_frame(bad, consumed), contract_error);

  // Foreign endianness tag.
  bad = good;
  std::swap(bad[12], bad[13]);
  EXPECT_THROW((void)decode_frame(bad, consumed), contract_error);

  // Unknown frame type.
  bad = good;
  bad[14] = 99;
  EXPECT_THROW((void)decode_frame(bad, consumed), contract_error);

  // Flipped payload byte: checksum mismatch.
  bad = good;
  bad[bad.size() - 9] = static_cast<char>(bad[bad.size() - 9] ^ 0x40);
  EXPECT_THROW((void)decode_frame(bad, consumed), contract_error);

  // Oversized declared length is corruption, not a huge wait-for-more.
  bad = good;
  for (std::size_t i = 16; i < 24; ++i) bad[i] = '\xff';
  EXPECT_THROW((void)decode_frame(bad, consumed), contract_error);

  // Payload-level: truncated and trailing-byte payloads.
  EXPECT_THROW((void)decode_assign(std::string(7, '\0')), contract_error);
  EXPECT_THROW((void)decode_assign(std::string(25, '\0')), contract_error);
  EXPECT_THROW((void)decode_hello(std::string(3, '\0')), contract_error);
  // A result whose row count cannot fit the remaining bytes.
  std::string huge;
  huge.append(16, '\0');                 // unit + seconds
  huge.append(8, '\x7f');                // absurd row count
  EXPECT_THROW((void)decode_result(huge), contract_error);

  // The original still parses (the mutations above did not).
  EXPECT_TRUE(decode_frame(good, consumed).has_value());
}

TEST(WireCodec, StatsReportRoundTripsThroughAFrame) {
  WireStatsReport stats;
  stats.units = 42;
  stats.busy_seconds = 3.0625;
  stats.counters = {
      {"rrl_scenarios_solved_total", 12345},
      {"rrl_cache_memory_hits_total", 678},
      {"rrl_wire_bytes_out_total", 0xffffffffffffffffULL},
  };

  const std::string frame_bytes =
      encode_frame(WireType::kStatsReport, encode_stats_report(stats));
  std::size_t consumed = 0;
  const auto frame = decode_frame(frame_bytes, consumed);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, WireType::kStatsReport);
  EXPECT_EQ(consumed, frame_bytes.size());

  const WireStatsReport stats2 = decode_stats_report(frame->payload);
  EXPECT_EQ(stats2.units, stats.units);
  EXPECT_EQ(stats2.busy_seconds, stats.busy_seconds);
  ASSERT_EQ(stats2.counters.size(), stats.counters.size());
  for (std::size_t i = 0; i < stats.counters.size(); ++i) {
    EXPECT_EQ(stats2.counters[i].first, stats.counters[i].first);
    EXPECT_EQ(stats2.counters[i].second, stats.counters[i].second);
  }

  // An empty snapshot (a worker before its first solve) is legal.
  const WireStatsReport empty = decode_stats_report(
      encode_stats_report(WireStatsReport{}));
  EXPECT_EQ(empty.units, 0u);
  EXPECT_TRUE(empty.counters.empty());
}

TEST(WireCodec, StatsReportRejectsCorruptPayloads) {
  // Truncated: cut anywhere inside a valid payload.
  WireStatsReport stats;
  stats.units = 1;
  stats.counters = {{"a_total", 1}};
  const std::string payload = encode_stats_report(stats);
  EXPECT_THROW((void)decode_stats_report(payload.substr(0, 20)),
               contract_error);

  // A counter count the payload cannot possibly hold is refused before
  // any allocation.
  std::string huge;
  huge.append(16, '\0');   // units + busy_seconds
  huge.append(8, '\x7f');  // absurd counter count
  EXPECT_THROW((void)decode_stats_report(huge), contract_error);

  // Trailing bytes after a complete payload are corruption.
  EXPECT_THROW((void)decode_stats_report(payload + "x"), contract_error);
}

}  // namespace
}  // namespace rrl
