// Golden encodings: artifact format v3 and wire protocol v4, pinned. Fixed
// inputs — an SR-shaped and an RR-shaped artifact, and one frame of every
// WireType — are encoded, and each encoding's length and lane_checksum
// must equal constants recorded from a build whose bytes were known good.
// CI's byte-compares only ever see artifacts and frames from one build,
// so this is the guard that a refactor of the byte layer moved no byte.
//
// A failure means the layout changed. That is either a bug, or a
// deliberate format bump, which also bumps kArtifactFormatVersion or
// kWireProtocolVersion; only then are the constants re-recorded.
//
// The artifacts are built by hand rather than exported from a solver, so
// only the codecs decide their bytes, not solver numerics.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io/artifact_codec.hpp"
#include "io/wire_codec.hpp"
#include "support/lane_checksum.hpp"

namespace rrl {
namespace {

struct Golden {
  std::size_t size;
  std::uint64_t checksum;
};

void expect_golden(const std::string& bytes, Golden golden,
                   const char* what) {
  EXPECT_EQ(bytes.size(), golden.size) << what;
  EXPECT_EQ(lane_checksum(bytes), golden.checksum) << what;
}

SolverKey fixed_key(const char* solver) {
  SolverKey key;
  key.model_hash = 0x0123456789abcdefULL;
  key.solver = solver;
  key.config.epsilon = 1e-10;
  key.config.rate_factor = 1.25;
  key.config.regenerative = 3;
  key.config.step_cap = 1000000;
  return key;
}

/// SR's shape: a DTMC payload (P^T of a 3-state chain, self-loops, Λ).
CompiledArtifact sr_artifact() {
  CompiledArtifact a;
  a.key = fixed_key("sr");
  a.model_spec = "k_of_n groups=1 k=1 lambda=0.001 lump=0 mu=1 n=2";
  a.pre_lump_states = 4;
  a.lambda = 2.5;
  a.dtmc_pt = CsrMatrix::from_parts(3, 3, {0, 2, 4, 6}, {0, 1, 0, 2, 1, 2},
                                    {0.6, 0.2, 0.4, 0.3, 0.4, 0.7});
  a.self_loop = {0.6, 0.8, 0.7};
  return a;
}

/// An excursion series of truncation point k with `absorbing` va rows.
ExcursionSeries series(double scale, std::size_t k, std::size_t absorbing,
                       bool exact) {
  ExcursionSeries s;
  for (std::size_t i = 0; i <= k; ++i) {
    s.a.push_back(scale / static_cast<double>(i + 1));
    s.c.push_back(scale * 0.5 / static_cast<double>(i + 2));
  }
  for (std::size_t i = 0; i < k; ++i) {
    s.qa.push_back(scale * 0.25 / static_cast<double>(i + 3));
  }
  for (std::size_t f = 0; f < absorbing; ++f) {
    std::vector<double> v;
    for (std::size_t i = 0; i < k; ++i) {
      v.push_back(scale * 1e-3 * static_cast<double>(f + 1) /
                  static_cast<double>(i + 1));
    }
    s.va.push_back(std::move(v));
  }
  s.exact = exact;
  return s;
}

/// RR's shape: two memoized schemas, the second with absorbing states, a
/// primed series and the capped flag.
CompiledArtifact rr_artifact() {
  CompiledArtifact a;
  a.key = fixed_key("rr");

  ArtifactSchemaEntry first;
  first.t = 10.0;
  first.eps = 1e-10;
  first.schema.lambda = 2.5;
  first.schema.alpha_r = 0.75;
  first.schema.r_max = 1.0;
  first.schema.regenerative = 3;
  first.schema.t = 10.0;
  first.schema.main = series(1.0, 4, 0, true);
  a.schemas.push_back(first);

  ArtifactSchemaEntry second;
  second.t = 1000.0;
  second.eps = 1e-12;
  second.schema.lambda = 2.5;
  second.schema.alpha_r = 0.75;
  second.schema.r_max = 2.0;
  second.schema.regenerative = 3;
  second.schema.t = 1000.0;
  second.schema.absorbing = {5, 7};
  second.schema.f_rewards = {0.5, 1.0};
  second.schema.main = series(2.0, 6, 2, false);
  second.schema.has_primed = true;
  second.schema.primed = series(3.0, 3, 2, true);
  second.schema.capped = true;
  a.schemas.push_back(second);
  return a;
}

ReportRow fixed_row(std::uint64_t scenario, const char* error) {
  ReportRow row;
  row.scenario = scenario;
  row.point = 1;
  row.model = "models/raid.rrlm";
  row.solver = "rrl";
  row.measure = "mrr";
  row.epsilon = 1e-10;
  row.t = 1234.5;
  row.value = 0.12345678901234567;
  row.dtmc_steps = 4242;
  row.error = error;
  row.seconds = 0.25;
  row.tier = "disk";
  return row;
}

TEST(GoldenEncoding, FormatVersionsAreTheRecordedOnes) {
  EXPECT_EQ(kArtifactFormatVersion, 3u);
  EXPECT_EQ(kWireProtocolVersion, 4u);
}

TEST(GoldenEncoding, ArtifactsKeepTheirBytes) {
  expect_golden(encode_artifact(sr_artifact()),
                {320, 0x2bfe2783ef7b0746ULL}, "sr artifact");
  expect_golden(encode_artifact(rr_artifact()),
                {951, 0xcf6267674ea23b8eULL}, "rr artifact");
}

TEST(GoldenEncoding, EveryWireFrameKeepsItsBytes) {
  WireHello hello;
  hello.plan_fingerprint = 0xdeadbeefcafef00dULL;
  hello.unit_count = 12;
  hello.total_scenarios = 96;
  expect_golden(encode_frame(WireType::kHello, encode_hello(hello)),
                {60, 0x8ed1a532424ae33cULL}, "hello");

  expect_golden(encode_frame(WireType::kAssign, encode_assign({7, 56, 8})),
                {56, 0xf44ca5ba85253ac8ULL}, "assign");

  WireResult result;
  result.unit = 7;
  result.seconds = 1.5;
  result.rows = {fixed_row(56, ""), fixed_row(57, "failed: expected a")};
  expect_golden(encode_frame(WireType::kResult, encode_result(result)),
                {318, 0x48fe6b29a9a7701eULL}, "result");

  expect_golden(encode_frame(WireType::kShutdown, {}),
                {32, 0xdadc77b39c18601eULL}, "shutdown");
  expect_golden(encode_frame(WireType::kPing, {}),
                {32, 0xf1a50906d89e94f1ULL}, "ping");

  expect_golden(encode_frame(WireType::kArtifactRequest,
                             encode_solver_key(fixed_key("rrl"))),
                {83, 0xff113f2b2b8e9222ULL}, "artifact_request");

  WireArtifactData data;
  data.model_hash = 0x0123456789abcdefULL;
  data.solver = "sr";
  data.found = true;
  data.blob = encode_artifact(sr_artifact());
  expect_golden(
      encode_frame(WireType::kArtifactData, encode_artifact_data(data)),
      {379, 0x70c2040565ebb5bbULL}, "artifact_data");

  WireStatsReport stats;
  stats.units = 42;
  stats.busy_seconds = 3.0625;
  stats.counters = {{"rrl_scenarios_solved_total", 12345},
                    {"rrl_wire_bytes_out_total", 0xffffffffffffffffULL}};
  expect_golden(
      encode_frame(WireType::kStatsReport, encode_stats_report(stats)),
      {138, 0xa5e354f47e00efb3ULL}, "stats_report");
}

}  // namespace
}  // namespace rrl
