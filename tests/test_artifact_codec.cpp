// Artifact codec round trip (the acceptance criterion of the compile →
// execute split): for every solver on RAID-5 and multiproc, export the
// compiled artifact, serialize, deserialize, import into a freshly
// constructed solver — and the warm solver's answers are bit-identical to
// the cold one's WITHOUT recompiling the schema. Plus rejection of every
// corruption class: flipped payload bits, truncation at every length, bad
// magic, foreign version, foreign endianness, trailing garbage — and of a
// write that only fails when the file is closed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/compiled_artifact.hpp"
#include "io/artifact_codec.hpp"
#include "models/multiproc.hpp"
#include "models/raid5.hpp"
#include "models/simple.hpp"
#include "rrl.hpp"
#include "support/fnv.hpp"
#include "support/lane_checksum.hpp"
#include "support/metrics.hpp"

namespace rrl {
namespace {

constexpr double kEps = 1e-8;

struct Model {
  std::string label;
  Ctmc chain;
  std::vector<double> rewards;
  std::vector<double> initial;
  index_t regenerative = 0;
};

Model raid_model() {
  Raid5Params p;
  p.groups = 20;
  const Raid5Model m = build_raid5_availability(p);
  return {"raid5-g20", m.chain, m.failure_rewards(),
          m.initial_distribution(), m.initial_state};
}

Model multiproc_model() {
  const MultiprocModel m = build_multiproc_availability({});
  return {"multiproc", m.chain, m.failure_rewards(),
          m.initial_distribution(), m.initial_state};
}

std::string serialized(const CompiledArtifact& artifact) {
  return encode_artifact(artifact);
}

/// The process-wide schema memo counter rrl_cache_schema_<name>_total.
std::uint64_t schema_counter(const std::string& name) {
  return metrics::counter("rrl_cache_schema_" + name + "_total").value();
}

CompiledArtifact deserialized(const std::string& bytes) {
  return decode_artifact(bytes);
}

TEST(ArtifactCodec, RoundTripSolvesBitIdenticallyForAllSolvers) {
  const std::vector<double> grid = log_time_grid(1.0, 300.0, 4);
  for (const Model& model : {raid_model(), multiproc_model()}) {
    for (const std::string name : {"sr", "rsd", "rr", "rrl"}) {
      SolverConfig config;
      config.epsilon = kEps;
      config.regenerative = model.regenerative;
      const auto cold = make_solver(name, model.chain, model.rewards,
                                    model.initial, config);

      // Drive the cold solver first so its compiled state (the rr/rrl
      // schema memo) holds what a real run would persist.
      SolveReport cold_trr = cold->solve_grid(SolveRequest::trr(grid));
      SolveReport cold_mrr = cold->solve_grid(SolveRequest::mrr(grid));

      const CompiledArtifact exported =
          export_artifact(*cold, /*model_hash=*/1234, config);
      const SolverKey key{1234, name, config};
      EXPECT_EQ(exported.key, key);
      CompiledArtifact imported = deserialized(serialized(exported));
      EXPECT_EQ(imported.key, key);

      auto warm = make_solver(name, model.chain, model.rewards,
                              model.initial, config);
      const std::uint64_t builds = schema_counter("builds");
      const std::uint64_t seeded = schema_counter("seeded");
      warm->import_compiled(std::move(imported));
      const SolveReport warm_trr = warm->solve_grid(SolveRequest::trr(grid));
      const SolveReport warm_mrr = warm->solve_grid(SolveRequest::mrr(grid));

      EXPECT_EQ(warm_trr.values(), cold_trr.values())
          << model.label << "/" << name;
      EXPECT_EQ(warm_mrr.values(), cold_mrr.values())
          << model.label << "/" << name;
      EXPECT_EQ(warm_trr.total.dtmc_steps, cold_trr.total.dtmc_steps);
      EXPECT_EQ(warm_mrr.total.vmodel_steps, cold_mrr.total.vmodel_steps);

      // The warm regenerative solvers must have answered from the seeded
      // memo — zero schema compilations.
      EXPECT_EQ(schema_counter("builds"), builds) << model.label << name;
      if (name == "rr" || name == "rrl") {
        EXPECT_GE(schema_counter("seeded"), seeded + 1) << model.label << name;
      }
    }
  }
}

TEST(ArtifactCodec, FieldsSurviveExactly) {
  const Model model = multiproc_model();
  SolverConfig config;
  config.epsilon = kEps;
  config.regenerative = model.regenerative;
  config.step_cap = 123456789;
  const auto solver = make_solver("rrl", model.chain, model.rewards,
                                  model.initial, config);
  (void)solver->solve_grid(SolveRequest::trr({10.0, 250.0}));

  const CompiledArtifact a = export_artifact(*solver, 99, config);
  ASSERT_FALSE(a.schemas.empty());
  const CompiledArtifact b = deserialized(serialized(a));
  EXPECT_EQ(b.key.solver, a.key.solver);
  EXPECT_EQ(b.key.model_hash, a.key.model_hash);
  EXPECT_EQ(b.key.config.epsilon, a.key.config.epsilon);
  EXPECT_EQ(b.key.config.step_cap, a.key.config.step_cap);
  ASSERT_EQ(b.schemas.size(), a.schemas.size());
  for (std::size_t i = 0; i < a.schemas.size(); ++i) {
    EXPECT_EQ(b.schemas[i].t, a.schemas[i].t);
    EXPECT_EQ(b.schemas[i].eps, a.schemas[i].eps);
    EXPECT_EQ(b.schemas[i].schema.main.a, a.schemas[i].schema.main.a);
    EXPECT_EQ(b.schemas[i].schema.main.c, a.schemas[i].schema.main.c);
    EXPECT_EQ(b.schemas[i].schema.main.qa, a.schemas[i].schema.main.qa);
    EXPECT_EQ(b.schemas[i].schema.lambda, a.schemas[i].schema.lambda);
    EXPECT_EQ(b.schemas[i].schema.capped, a.schemas[i].schema.capped);
  }
}

TEST(ArtifactCodec, RejectsEveryCorruptionClass) {
  const Model model = multiproc_model();
  SolverConfig config;
  config.epsilon = kEps;
  config.regenerative = model.regenerative;
  const auto solver = make_solver("sr", model.chain, model.rewards,
                                  model.initial, config);
  const std::string bytes =
      serialized(export_artifact(*solver, 7, config));

  // Control: the pristine bytes parse.
  EXPECT_NO_THROW((void)deserialized(bytes));

  // Flipped payload byte: checksum mismatch (or malformed structure).
  for (const std::size_t offset : {bytes.size() / 2, bytes.size() - 12}) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x5a);
    EXPECT_THROW((void)deserialized(corrupt), contract_error)
        << "offset " << offset;
  }

  // Truncation at several depths (header, payload, checksum).
  for (const std::size_t keep : {std::size_t{4}, std::size_t{16},
                                 bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW((void)deserialized(bytes.substr(0, keep)), contract_error)
        << "keep " << keep;
  }

  // Bad magic: not an artifact file at all.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)deserialized(bad_magic), contract_error);

  // Foreign format version.
  std::string bad_version = bytes;
  bad_version[8] = static_cast<char>(bad_version[8] + 1);
  EXPECT_THROW((void)deserialized(bad_version), contract_error);

  // Foreign endianness: the tag reads back byte-swapped.
  std::string bad_endian = bytes;
  std::swap(bad_endian[12], bad_endian[13]);
  EXPECT_THROW((void)deserialized(bad_endian), contract_error);

  // Growing the declared payload length without bytes to back it is a
  // truncation.
  std::string grown = bytes;
  grown[14] = static_cast<char>(grown[14] + 1);  // payload length field
  EXPECT_THROW((void)deserialized(grown), contract_error);
}

// Frame offsets (io/artifact_codec.hpp): magic 8, version 4, endian 2,
// length 8, then the payload and its 8-byte checksum.
constexpr std::size_t kHeaderBytes = 22;

/// SR's artifact of a two-state chain: a payload of a few hundred bytes.
CompiledArtifact small_artifact() {
  const TwoStateModel m = make_two_state(1e-3, 1.0);
  SolverConfig config;
  config.epsilon = kEps;
  const auto solver =
      make_solver("sr", m.chain, {0.0, 1.0}, {1.0, 0.0}, config);
  return export_artifact(*solver, 7, config);
}

TEST(ArtifactCodec, EverySingleBitFlipIsRejected) {
  const std::string bytes = serialized(small_artifact());
  ASSERT_NO_THROW((void)deserialized(bytes));
  // Payload and checksum word: the checksum catches every flip before the
  // payload is parsed, so each one fails as a checksum mismatch.
  for (std::size_t offset = kHeaderBytes; offset < bytes.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[offset] = static_cast<char>(flipped[offset] ^ (1 << bit));
      try {
        (void)deserialized(flipped);
        ADD_FAILURE() << "accepted a flip at byte " << offset << " bit "
                      << bit;
      } catch (const contract_error& e) {
        EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                  std::string::npos)
            << "byte " << offset << " bit " << bit << ": " << e.what();
      }
    }
  }
}

TEST(ArtifactCodec, EveryTruncationIsRejected) {
  const std::string bytes = serialized(small_artifact());
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_THROW((void)deserialized(bytes.substr(0, keep)), contract_error)
        << "keep " << keep;
  }
}

TEST(ArtifactCodec, PayloadsAcrossTheLaneTailSplitRoundTrip) {
  // model_spec grows one byte at a time, so the payload takes 2 lane
  // blocks + 8 consecutive lengths: every tail length, whole blocks on
  // both sides of it.
  const CompiledArtifact base = small_artifact();
  const std::size_t base_payload = serialized(base).size() - kHeaderBytes - 8;
  for (std::size_t extra = 0; extra <= 2 * kLaneBlockBytes + 7; ++extra) {
    CompiledArtifact artifact = base;
    artifact.model_spec = std::string(extra, 'q');
    const std::string bytes = serialized(artifact);
    ASSERT_EQ(bytes.size(), kHeaderBytes + base_payload + extra + 8);
    const CompiledArtifact back = deserialized(bytes);
    EXPECT_EQ(back.model_spec, artifact.model_spec);
    EXPECT_EQ(back.self_loop, artifact.self_loop);
    EXPECT_TRUE(std::ranges::equal(back.dtmc_pt.values(),
                                   artifact.dtmc_pt.values()));
    EXPECT_EQ(serialized(back), bytes) << "extra " << extra;
  }
}

TEST(LaneChecksum, CatchesEveryBitFlipAtEveryLength) {
  // Lengths 0 to two lane blocks + 7 cover no block, one and two, each
  // with every tail: whole tail words and a zero-padded partial one.
  std::string bytes;
  for (std::size_t n = 0; n <= 2 * kLaneBlockBytes + 7; ++n) {
    const std::uint64_t digest = lane_checksum(bytes);
    for (std::size_t i = 0; i < n; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = bytes;
        flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
        EXPECT_NE(lane_checksum(flipped), digest)
            << "length " << n << " byte " << i << " bit " << bit;
      }
    }
    // Length is mixed in: a trailing zero byte is not free.
    EXPECT_NE(lane_checksum(bytes + '\0'), digest) << "length " << n;
    bytes.push_back(static_cast<char>(n * 37 + 11));
  }
}

TEST(ArtifactCodec, VersionTwoFnvBlobIsRefused) {
  // What the previous format wrote for the same artifact: version 2 and an
  // FNV-1a checksum over the unchanged payload layout.
  std::string v2 = serialized(small_artifact());
  const std::uint32_t version = 2;
  std::memcpy(v2.data() + 8, &version, sizeof(version));
  std::uint64_t fnv = kFnv1aOffset;
  fnv1a_mix(fnv, v2.data() + kHeaderBytes, v2.size() - kHeaderBytes - 8);
  std::memcpy(v2.data() + v2.size() - 8, &fnv, sizeof(fnv));
  try {
    (void)deserialized(v2);
    ADD_FAILURE() << "a version-2 blob was accepted";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version"),
              std::string::npos)
        << e.what();
  }
}

TEST(ArtifactCodec, WriteToAFullDeviceThrows) {
  // The whole artifact fits the stream's buffer, so only the final flush
  // meets the full device.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  EXPECT_THROW(write_artifact_file("/dev/full", small_artifact()),
               contract_error);
}

TEST(ArtifactCodec, ImportIgnoresForeignSchemas) {
  // A schema for another regenerative state must not be adopted (the
  // structural guard behind the key comparison).
  const Model model = multiproc_model();
  SolverConfig config;
  config.epsilon = kEps;
  config.regenerative = model.regenerative;
  const auto donor = make_solver("rrl", model.chain, model.rewards,
                                 model.initial, config);
  (void)donor->solve_grid(SolveRequest::trr({100.0}));
  CompiledArtifact artifact = export_artifact(*donor, 1, config);
  ASSERT_FALSE(artifact.schemas.empty());
  for (ArtifactSchemaEntry& e : artifact.schemas) {
    e.schema.regenerative = model.regenerative + 1;
  }

  auto warm = make_solver("rrl", model.chain, model.rewards, model.initial,
                          config);
  const std::uint64_t seeded = schema_counter("seeded");
  warm->import_compiled(std::move(artifact));
  EXPECT_EQ(schema_counter("seeded"), seeded);
}

TEST(ArtifactCodec, RegenerativeArtifactIgnoresCallOrder) {
  // Concurrent workers fill one solver's schema memo in whatever order
  // they reach it; two memos holding the same (t, eps) keys must export
  // the same bytes.
  const Model model = multiproc_model();
  SolverConfig config;
  config.epsilon = kEps;
  config.regenerative = model.regenerative;
  const std::vector<SolveRequest> requests = {
      SolveRequest::trr({10.0}), SolveRequest::mrr({1.0, 100.0}, 1e-10),
      SolveRequest::trr({5.0, 10.0}, 1e-10), SolveRequest::mrr({100.0})};
  for (const std::string name : {"rr", "rrl"}) {
    const auto forward = make_solver(name, model.chain, model.rewards,
                                     model.initial, config);
    const auto backward = make_solver(name, model.chain, model.rewards,
                                      model.initial, config);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      (void)forward->solve_grid(requests[i]);
      (void)backward->solve_grid(requests[requests.size() - 1 - i]);
    }
    const CompiledArtifact a = export_artifact(*forward, 1, config);
    const CompiledArtifact b = export_artifact(*backward, 1, config);
    ASSERT_EQ(a.schemas.size(), 4u) << name;
    EXPECT_EQ(serialized(a), serialized(b)) << name;
  }
}

}  // namespace
}  // namespace rrl
