// Seeded mutation corpus for every decoder of outside input: the model
// (.rrlm) and study (.study) readers, the wire codec and the artifact
// codec. Valid seeds — two example models, the smoke study, one frame of
// every WireType, an SR and an RR artifact — are mutated by a fixed-seed
// stream: bit flips, byte overwrites, insertions, deletions, truncations,
// and edits of every length and count field. Binary payload mutations are
// re-sealed through the shared envelope (io/byte_codec.hpp), so the
// checksum passes and the structural checks behind it are what runs.
//
// Every case must return a value or throw contract_error. Nothing may
// crash, hang (ctest's timeout), throw anything else, or allocate more
// than the input's own size bounds: this binary counts every byte
// operator new hands out while a decoder runs, and refuses outright any
// single request past a ceiling no valid input here comes near.
//
// Generator lines are left out: a valid spec may legitimately expand to
// the generator's 10^7-state cap (test_generator covers their
// validation). For the same reason no `states` edit writes the cap
// itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <new>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "io/artifact_codec.hpp"
#include "io/model_format.hpp"
#include "io/wire_codec.hpp"
#include "models/simple.hpp"
#include "rrl.hpp"
#include "study/study_format.hpp"
#include "support/thread_pool.hpp"

namespace {

// ---- allocation accounting (every operator new of this binary).

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocated{0};
std::atomic<bool> g_over_ceiling{false};

/// No decode of these few-kilobyte inputs needs a single block this
/// large; a request past it is refused (bad_alloc) rather than served,
/// so a broken bound cannot take the machine's memory with it.
constexpr std::size_t kCeiling = std::size_t{256} << 20;

void note_allocation(std::size_t n) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  g_allocated.fetch_add(n, std::memory_order_relaxed);
  if (n > kCeiling) {
    g_over_ceiling.store(true, std::memory_order_relaxed);
    throw std::bad_alloc();
  }
}

void* allocate(std::size_t n) {
  note_allocation(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t n, std::align_val_t alignment) {
  note_allocation(n);
  const auto align = static_cast<std::size_t>(alignment);
  const std::size_t size = n == 0 ? align : (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate_aligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace rrl {
namespace {

/// What one decode may allocate: a fixed slack plus a multiple of the
/// input's size. Each count a decoder reads is bounded by the bytes
/// behind it (binary) or by a declared cap (text: a study grid's 10^5
/// points are the largest), so no valid or corrupt input here needs more.
std::size_t allocation_bound(std::size_t input_bytes) {
  return (std::size_t{4} << 20) + 64 * input_bytes;
}

struct CorpusStats {
  std::size_t cases = 0;
  std::size_t accepted = 0;
  std::size_t largest_allocation = 0;  ///< bytes of the hungriest case
};

/// Runs one case; reports anything but a value or contract_error.
void run_case(const std::string& input,
              const std::function<void(const std::string&)>& decode,
              const std::string& label, CorpusStats& stats) {
  std::string failure;
  bool accepted = false;
  g_allocated.store(0);
  g_over_ceiling.store(false);
  g_counting.store(true);
  try {
    decode(input);
    accepted = true;
  } catch (const contract_error&) {
  } catch (const std::exception& e) {
    failure = e.what();
  } catch (...) {
    failure = "a non-standard exception";
  }
  g_counting.store(false);
  const std::size_t allocated = g_allocated.load();
  ++stats.cases;
  stats.accepted += accepted ? 1 : 0;
  stats.largest_allocation = std::max(stats.largest_allocation, allocated);
  if (!failure.empty() || g_over_ceiling.load()) {
    ADD_FAILURE() << label << ": threw " << failure
                  << (g_over_ceiling.load() ? " (allocation past ceiling)"
                                            : "")
                  << " on a " << input.size() << "-byte input";
  }
  EXPECT_LE(allocated, allocation_bound(input.size()))
      << label << ": allocated " << allocated << " bytes for a "
      << input.size() << "-byte input";
}

// ---- the mutation stream.

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }

  /// A random byte; half the time one that text formats give meaning to.
  char byte() {
    static constexpr std::string_view kText = " \t\n#-+.eE0123456789:";
    if (below(2) == 0) return kText[below(kText.size())];
    return static_cast<char>(below(256));
  }

  /// One to three stacked byte-level mutations of `s`.
  std::string mutate(std::string s) {
    const std::size_t rounds = 1 + below(3);
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::size_t at = below(s.size() + 1);
      switch (below(6)) {
        case 0:  // bit flip
          if (!s.empty()) {
            const std::size_t i = below(s.size());
            s[i] = static_cast<char>(s[i] ^ (1 << below(8)));
          }
          break;
        case 1:  // byte overwrite
          if (!s.empty()) s[below(s.size())] = byte();
          break;
        case 2:  // insertion
          for (std::size_t n = 1 + below(4); n > 0; --n) {
            s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), byte());
          }
          break;
        case 3:  // deletion
          s.erase(std::min(at, s.size()), 1 + below(8));
          break;
        case 4:  // truncation
          s.resize(below(s.size() + 1));
          break;
        case 5: {  // a chunk of the input copied elsewhere
          const std::size_t from = below(s.size() + 1);
          const std::string chunk = s.substr(from, 1 + below(16));
          s.insert(std::min(at, s.size()), chunk);
          break;
        }
      }
    }
    return s;
  }

 private:
  std::mt19937_64 rng_;
};

constexpr std::size_t kRandomCases = 10000;

// ---- text seeds: model and study files.

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string example(const char* name) {
  return read_text(std::string(RRL_EXAMPLE_MODELS) + "/" + name);
}

/// Every copy of `text` with the numeric field that follows `keyword` on
/// one of its lines (the field after `skip_colons` colons, for grid's
/// lo:hi:count) replaced by each of `values`.
std::vector<std::string> field_edits(const std::string& text,
                                     const std::string& keyword,
                                     std::size_t skip_colons,
                                     const std::vector<std::string>& values) {
  std::vector<std::string> out;
  std::size_t line = 0;
  while (line < text.size()) {
    const std::size_t end = std::min(text.find('\n', line), text.size());
    if (text.compare(line, keyword.size() + 1, keyword + " ") == 0) {
      std::size_t begin = line + keyword.size() + 1;
      for (std::size_t c = 0; c < skip_colons; ++c) {
        begin = text.find(':', begin) + 1;
      }
      std::size_t stop = begin;
      while (stop < end && text[stop] != ' ' && text[stop] != '#') ++stop;
      for (const std::string& value : values) {
        out.push_back(text.substr(0, begin) + value + text.substr(stop));
      }
    }
    line = end + 1;
  }
  return out;
}

/// Count edits: empty, zero, negative, small, one past the cap (and the
/// cap itself where a value there is cheap to accept), what no int or
/// long can hold, and numbers that are not counts.
std::vector<std::string> count_values(std::int64_t cap, bool include_cap) {
  std::vector<std::string> v = {"",
                                "0",
                                "1",
                                "-1",
                                "2",
                                "7",
                                std::to_string(cap + 1),
                                "2147483647",
                                "2147483648",
                                "4294967297",
                                "9223372036854775807",
                                "99999999999999999999999",
                                "1e9",
                                "3.5"};
  if (include_cap) v.push_back(std::to_string(cap));
  return v;
}

void decode_model(const std::string& text) {
  std::istringstream in(text);
  (void)read_model(in);
}

void decode_study(const std::string& text) {
  std::istringstream in(text);
  (void)read_study(in);
}

void run_text_corpus(const std::string& seed,
                     const std::function<void(const std::string&)>& decode,
                     const std::vector<std::string>& edits,
                     std::uint64_t stream, const char* what) {
  CorpusStats stats;
  run_case(seed, decode, std::string(what) + " seed", stats);
  ASSERT_EQ(stats.accepted, 1u) << what << ": the seed must be valid";
  for (std::size_t i = 0; i < edits.size(); ++i) {
    run_case(edits[i], decode, std::string(what) + " edit " +
                                   std::to_string(i),
             stats);
  }
  Mutator mutator(stream);
  for (std::size_t i = 0; i < kRandomCases; ++i) {
    run_case(mutator.mutate(seed), decode,
             std::string(what) + " mutation " + std::to_string(i), stats);
  }
  std::printf("%s: %zu cases, %zu accepted, largest allocation %zu B\n",
              what, stats.cases, stats.accepted, stats.largest_allocation);
}

TEST(DecoderCorpus, ModelFiles) {
  for (const char* name : {"repairable.rrlm", "cluster.rrlm"}) {
    const std::string seed = example(name);
    ASSERT_FALSE(seed.empty()) << name;
    run_text_corpus(seed, decode_model,
                    field_edits(seed, "states", 0,
                                count_values(kMaxStates, false)),
                    0x5eed0001 + std::string_view(name).size(), name);
  }
}

TEST(DecoderCorpus, StudyFile) {
  const std::string seed = example("smoke.study");
  ASSERT_FALSE(seed.empty());
  std::vector<std::string> edits =
      field_edits(seed, "jobs", 0, count_values(kMaxJobs, true));
  for (std::string& e :
       field_edits(seed, "grid", 2, count_values(100000, true))) {
    edits.push_back(std::move(e));
  }
  run_text_corpus(seed, decode_study, edits, 0x5eed0002, "smoke.study");
}

// ---- binary seeds: artifacts and wire frames.

/// SR on a 4-cycle: P^T is a permutation, so each row's one column can
/// run into the next row's larger one — the shape where a row pointer
/// past the end meets increasing columns until it reads beyond them.
CompiledArtifact sr_artifact() {
  const Ctmc chain = make_cycle(4, 1.0);
  SolverConfig config;
  config.epsilon = 1e-8;
  const auto solver = make_solver("sr", chain, {0.0, 0.0, 0.0, 1.0},
                                  {1.0, 0.0, 0.0, 0.0}, config);
  return export_artifact(*solver, 0x0123456789abcdefULL, config);
}

/// RR on a chain with an absorbing state and initial mass off the
/// regenerative state, so the schema has absorbing series and a primed
/// chain.
CompiledArtifact rr_artifact() {
  RandomCtmcOptions options;
  options.num_states = 5;
  options.num_absorbing = 1;
  options.seed = 7;
  const Ctmc chain = make_random_ctmc(options);
  SolverConfig config;
  config.epsilon = 1e-8;
  config.regenerative = 0;
  const auto solver = make_solver("rr", chain, {0.0, 1.0, 0.5, 1.0, 0.0},
                                  {0.5, 0.5, 0.0, 0.0, 0.0}, config);
  (void)solver->solve_grid(SolveRequest::trr({1.0, 10.0}));
  return export_artifact(*solver, 0x0123456789abcdefULL, config);
}

/// `bytes` (one envelope of `format`) with its payload replaced and the
/// envelope re-sealed, so the checksum passes.
std::string resealed(const std::string& bytes, const EnvelopeFormat& format,
                     const std::string& payload) {
  std::uint16_t type = 0;
  if (format.type_count > 0) {
    std::memcpy(&type, bytes.data() + envelope_header_bytes(format) - 10,
                sizeof(type));
  }
  std::string out;
  const std::size_t begin = begin_envelope(out, format, type);
  out += payload;
  seal_envelope(out, begin, format);
  return out;
}

/// Every payload with one plausible count field edited: a u64 (or a u32,
/// for index_t dimensions) whose value the payload could hold set to
/// zero, its neighbours, the payload's size and past it, and huge.
std::vector<std::string> count_field_edits(const std::string& payload) {
  std::vector<std::string> out;
  const std::uint64_t n = payload.size();
  for (std::size_t i = 0; i + 8 <= payload.size(); ++i) {
    std::uint64_t v = 0;
    std::memcpy(&v, payload.data() + i, sizeof(v));
    if (v > n) continue;
    for (const std::uint64_t edit :
         {std::uint64_t{0}, std::uint64_t{1}, v - 1, v + 1, 2 * v + 1,
          n - i, n, n + 1, std::uint64_t{1} << 31, std::uint64_t{1} << 32,
          std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
      if (edit == v) continue;
      std::string e = payload;
      std::memcpy(e.data() + i, &edit, sizeof(edit));
      out.push_back(std::move(e));
    }
  }
  for (std::size_t i = 0; i + 4 <= payload.size(); ++i) {
    std::uint32_t v = 0;
    std::memcpy(&v, payload.data() + i, sizeof(v));
    if (v > n) continue;
    for (const std::uint32_t edit :
         {std::uint32_t{0}, std::uint32_t{1}, v + 1, 0x7fffffffU,
          0x80000000U, 0xffffffffU}) {
      if (edit == v) continue;
      std::string e = payload;
      std::memcpy(e.data() + i, &edit, sizeof(edit));
      out.push_back(std::move(e));
    }
  }
  return out;
}

/// The envelope's own length field set to what it is not.
std::vector<std::string> length_field_edits(const std::string& bytes,
                                            const EnvelopeFormat& format) {
  std::vector<std::string> out;
  const std::size_t at = envelope_header_bytes(format) - 8;
  std::uint64_t length = 0;
  std::memcpy(&length, bytes.data() + at, sizeof(length));
  for (const std::uint64_t edit :
       {std::uint64_t{0}, std::uint64_t{1}, length - 1, length + 1,
        std::uint64_t{bytes.size()}, kMaxEnvelopePayload,
        kMaxEnvelopePayload + 1, ~std::uint64_t{0}}) {
    std::string e = bytes;
    std::memcpy(e.data() + at, &edit, sizeof(edit));
    out.push_back(std::move(e));
  }
  return out;
}

void run_binary_corpus(const std::string& seed, const EnvelopeFormat& format,
                       const std::function<void(const std::string&)>& decode,
                       std::uint64_t stream, const std::string& what) {
  CorpusStats stats;
  run_case(seed, decode, what + " seed", stats);
  ASSERT_EQ(stats.accepted, 1u) << what << ": the seed must be valid";
  const std::size_t header = envelope_header_bytes(format);
  const std::string payload =
      seed.substr(header, seed.size() - header - sizeof(std::uint64_t));

  for (const std::string& e : length_field_edits(seed, format)) {
    run_case(e, decode, what + " length edit", stats);
  }
  for (const std::string& e : count_field_edits(payload)) {
    run_case(resealed(seed, format, e), decode, what + " count edit",
             stats);
  }
  Mutator mutator(stream);
  for (std::size_t i = 0; i < kRandomCases; ++i) {
    // Alternate: the whole envelope as it arrives (header checks and the
    // checksum run), and a re-sealed payload (the structure checks run).
    const bool whole = i % 2 == 0;
    const std::string input = whole ? mutator.mutate(seed)
                                    : resealed(seed, format,
                                               mutator.mutate(payload));
    run_case(input, decode,
             what + (whole ? " mutation " : " sealed mutation ") +
                 std::to_string(i),
             stats);
  }
  std::printf("%s: %zu cases, %zu accepted, largest allocation %zu B\n",
              what.c_str(), stats.cases, stats.accepted,
              stats.largest_allocation);
}

void decode_artifact_bytes(const std::string& bytes) {
  (void)decode_artifact(bytes);
}

TEST(DecoderCorpus, Artifacts) {
  run_binary_corpus(encode_artifact(sr_artifact()), kArtifactEnvelope,
                    decode_artifact_bytes, 0x5eed0003, "sr artifact");
  const CompiledArtifact rr = rr_artifact();
  ASSERT_FALSE(rr.schemas.empty());
  ASSERT_FALSE(rr.schemas[0].schema.absorbing.empty());
  run_binary_corpus(encode_artifact(rr), kArtifactEnvelope,
                    decode_artifact_bytes, 0x5eed0004, "rr artifact");
}

/// What a parent or worker does with bytes off the wire: every complete
/// frame, then its payload by type (and an artifact_data frame's blob).
void decode_wire(const std::string& bytes) {
  std::string buffer = bytes;
  std::size_t consumed = 0;
  while (const std::optional<WireFrame> frame =
             decode_frame(buffer, consumed)) {
    buffer.erase(0, consumed);
    switch (frame->type) {
      case WireType::kHello:
        (void)decode_hello(frame->payload);
        break;
      case WireType::kAssign:
        (void)decode_assign(frame->payload);
        break;
      case WireType::kResult:
        (void)decode_result(frame->payload);
        break;
      case WireType::kShutdown:
      case WireType::kPing:
        break;
      case WireType::kArtifactRequest:
        (void)decode_solver_key(frame->payload);
        break;
      case WireType::kArtifactData: {
        const WireArtifactData data = decode_artifact_data(frame->payload);
        if (data.found) (void)decode_artifact(data.blob);
        break;
      }
      case WireType::kStatsReport:
        (void)decode_stats_report(frame->payload);
        break;
    }
  }
}

TEST(DecoderCorpus, WireFrames) {
  ReportRow row;
  row.scenario = 3;
  row.point = 1;
  row.model = "models/raid.rrlm";
  row.solver = "rrl";
  row.measure = "mrr";
  row.epsilon = 1e-10;
  row.t = 1234.5;
  row.value = 0.125;
  row.dtmc_steps = 4242;
  row.seconds = 0.25;
  row.tier = "disk";
  WireResult result;
  result.unit = 2;
  result.seconds = 1.5;
  result.rows = {row, row};
  result.rows[1].error = "failed: expected a";

  WireArtifactData data;
  data.model_hash = 0x0123456789abcdefULL;
  data.solver = "sr";
  data.found = true;
  data.blob = encode_artifact(sr_artifact());

  WireStatsReport stats;
  stats.units = 4;
  stats.busy_seconds = 2.5;
  stats.counters = {{"rrl_scenarios_solved_total", 12},
                    {"rrl_wire_bytes_out_total", 4096}};

  const std::vector<std::pair<WireType, std::string>> seeds = {
      {WireType::kHello, encode_hello({kWireProtocolVersion, 0xfeed, 6, 24})},
      {WireType::kAssign, encode_assign({3, 12, 4})},
      {WireType::kResult, encode_result(result)},
      {WireType::kShutdown, {}},
      {WireType::kPing, {}},
      {WireType::kArtifactRequest,
       encode_solver_key(sr_artifact().key)},
      {WireType::kArtifactData, encode_artifact_data(data)},
      {WireType::kStatsReport, encode_stats_report(stats)},
  };
  ASSERT_EQ(seeds.size(), kWireEnvelope.type_count);
  for (const auto& [type, payload] : seeds) {
    run_binary_corpus(encode_frame(type, payload), kWireEnvelope,
                      decode_wire,
                      0x5eed0100 + static_cast<std::uint64_t>(type),
                      "wire type " +
                          std::to_string(static_cast<int>(type)));
  }
}

}  // namespace
}  // namespace rrl
