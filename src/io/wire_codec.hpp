// Binary wire codec of the dispatch orchestrator (study_dispatch.hpp):
// the framed messages a `rrl_solve --serve` parent and its `--worker`
// processes exchange over stdio pipes.
//
// A frame is one typed envelope of the shared byte layer
// (io/byte_codec.hpp: magic "RRLWIR\n\0", version kWireProtocolVersion,
// endian tag, the u16 WireType, u64 length, payload, lane_checksum).
// Foreign-endian peers are rejected, never byte-swapped: a mismatch means
// the channel is not what we think it is.
//
// Messages (parent -> worker: assign, shutdown, artifact_data;
// worker -> parent: hello, result, ping, artifact_request):
//
//   hello     protocol version + the worker's plan fingerprint, unit
//             count and total scenario count — the handshake that proves
//             parent and worker expanded the SAME study into the SAME
//             units before any work is handed out
//   assign    one work-unit id (echoed with its range for cross-checking)
//   result    the unit's report rows (the full row set of its scenarios,
//             including the diagnostic seconds / cache-tier fields) plus
//             the worker-side wall-clock
//   shutdown  no payload; the worker drains and exits cleanly
//   ping      no payload; a remote worker's heartbeat. Sent from a
//             background thread while the main thread solves, so the
//             parent can tell "busy for minutes" from "hung/dead" and
//             re-queue the in-flight unit on timeout. Pipes don't carry
//             pings — a local child's death is already an EOF.
//   artifact_request
//             worker -> parent: a SolverKey (core/compiled_artifact.hpp).
//             The remote worker asks the parent's artifact store before
//             cold-compiling — `--cache-dir` does not cross machines,
//             but the wire does.
//   artifact_data
//             parent -> worker: the echoed model hash and solver, a found
//             flag, and (when found) an artifact blob in the artifact
//             codec's format (io/artifact_codec.hpp). found=false means
//             the worker compiles locally — a counted miss, never an
//             error.
//
// decode_frame is incremental: pipes deliver byte streams, not messages,
// so the caller accumulates reads in a buffer and asks after each read
// whether a whole frame has arrived (nullopt = not yet). A header that
// does not verify (bad magic, foreign version/endianness, unknown type,
// oversized length), a complete frame whose checksum does not, and a
// malformed payload throw contract_error: the dispatcher treats the
// worker as lost rather than guessing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/compiled_artifact.hpp"
#include "io/byte_codec.hpp"
#include "study/study_report.hpp"

namespace rrl {

/// Bumped on any frame or payload layout change so mismatched binaries
/// refuse to talk instead of misreading each other. v2: TCP fleet —
/// ping/artifact_request/artifact_data frames. v3: stats_report frames
/// (fleet-wide observability aggregation). v4: lane_checksum replaces
/// byte-serial FNV-1a as the frame checksum.
inline constexpr std::uint32_t kWireProtocolVersion = 4;

enum class WireType : std::uint16_t {
  kHello = 1,     ///< worker -> parent: handshake
  kAssign = 2,    ///< parent -> worker: one work unit
  kResult = 3,    ///< worker -> parent: one finished unit
  kShutdown = 4,  ///< parent -> worker: drain and exit
  kPing = 5,      ///< worker -> parent: remote heartbeat (empty payload)
  kArtifactRequest = 6,  ///< worker -> parent: solver-cache key lookup
  kArtifactData = 7,     ///< parent -> worker: artifact blob or not-found
  kStatsReport = 8,      ///< worker -> parent: metrics snapshot
};

/// The envelope a frame is (io/byte_codec.hpp); its type is a WireType.
inline constexpr EnvelopeFormat kWireEnvelope{
    {'R', 'R', 'L', 'W', 'I', 'R', '\n', '\0'},
    kWireProtocolVersion,
    static_cast<std::uint16_t>(WireType::kStatsReport),
    "wire codec"};

struct WireFrame {
  WireType type = WireType::kHello;
  std::string payload;
};

/// Serialize one frame (header + payload + checksum) to a byte string.
[[nodiscard]] std::string encode_frame(WireType type,
                                       std::string_view payload);

/// Incremental decode: if `buffer` starts with a complete frame, return it
/// and set `consumed` to its total byte length (the caller erases that
/// prefix); an incomplete frame returns nullopt with consumed == 0. A
/// malformed complete prefix throws contract_error.
[[nodiscard]] std::optional<WireFrame> decode_frame(std::string_view buffer,
                                                    std::size_t& consumed);

/// Handshake: the worker's view of the plan. The parent verifies protocol
/// and fingerprint agreement before assigning anything.
struct WireHello {
  std::uint32_t protocol = kWireProtocolVersion;
  std::uint64_t plan_fingerprint = 0;
  std::uint64_t unit_count = 0;
  std::uint64_t total_scenarios = 0;
};

/// One work-unit assignment; the range rides along so a worker can verify
/// the id means the same scenarios on its side.
struct WireAssign {
  std::uint64_t unit = 0;
  std::uint64_t first_scenario = 0;
  std::uint64_t scenario_count = 0;
};

/// One finished unit: the full row set of its scenarios plus the
/// worker-side wall-clock of the solve.
struct WireResult {
  std::uint64_t unit = 0;
  double seconds = 0.0;
  std::vector<ReportRow> rows;
};

/// The parent's answer: the echoed identity, whether the store had it,
/// and (when found) the artifact serialized by io/artifact_codec — the
/// same bytes the disk tier would hold, so a fetched warm start is
/// bit-identical to a local one.
struct WireArtifactData {
  std::uint64_t model_hash = 0;
  std::string solver;
  bool found = false;
  std::string blob;  ///< artifact-codec bytes; empty when !found
};

/// A worker's observability snapshot, piggybacked on unit completion
/// (sent right BEFORE each kResult, so the parent's view of a worker is
/// current by the time it reduces the unit — including the run's last
/// one). Counter values are ABSOLUTE for the
/// worker process — the parent keeps the latest snapshot per worker and
/// sums across workers for fleet totals — so a lost frame only delays
/// the view, it never skews it. Stats frames feed DispatchReport and the
/// `--json` / `--stats-interval-ms` views only; the reduced report never
/// reads them (byte-identity with observability on or off).
struct WireStatsReport {
  std::uint64_t units = 0;       ///< units this worker has completed
  double busy_seconds = 0.0;     ///< summed wall-clock of its unit solves
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Payload codecs (decoders throw contract_error on malformed payloads).
[[nodiscard]] std::string encode_hello(const WireHello& hello);
[[nodiscard]] WireHello decode_hello(std::string_view payload);
[[nodiscard]] std::string encode_assign(const WireAssign& assign);
[[nodiscard]] WireAssign decode_assign(std::string_view payload);
[[nodiscard]] std::string encode_result(const WireResult& result);
[[nodiscard]] WireResult decode_result(std::string_view payload);
/// The artifact_request payload: a remote worker's solver-cache lookup,
/// the whole SolverKey, asked of the parent's artifact store before
/// cold-compiling. The regenerative index travels as an i64.
[[nodiscard]] std::string encode_solver_key(const SolverKey& key);
[[nodiscard]] SolverKey decode_solver_key(std::string_view payload);
[[nodiscard]] std::string encode_artifact_data(const WireArtifactData& data);
[[nodiscard]] WireArtifactData decode_artifact_data(std::string_view payload);
[[nodiscard]] std::string encode_stats_report(const WireStatsReport& stats);
[[nodiscard]] WireStatsReport decode_stats_report(std::string_view payload);

}  // namespace rrl
