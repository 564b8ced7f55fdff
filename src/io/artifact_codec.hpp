// Binary serialization of CompiledArtifact — the wire format of the
// compile → execute split (core/compiled_artifact.hpp) and of the study
// subsystem's on-disk artifact tier (study/artifact_store.hpp).
//
// Layout (all integers and doubles in the writer's native byte order):
//
//   magic     "RRLART\n\0"   8 bytes
//   version   u32            format revision (kArtifactFormatVersion)
//   endian    u16 0x0102     read back as 0x0201 on a foreign-endian
//                            machine, where the file is rejected rather
//                            than byte-swapped: artifacts are a CACHE —
//                            the reader recomputes, it never guesses
//   length    u64            payload byte count
//   payload   length bytes   solver name, model hash, config, DTMC CSR
//                            arrays, schema series (raw IEEE-754 bits, so
//                            a round trip is bit-exact — the foundation of
//                            the "imported solver answers bit-identically"
//                            guarantee)
//   checksum  u64            lane_checksum over the payload
//                            (support/lane_checksum.hpp: four 64-bit
//                            lanes, word at a time; any one changed
//                            word always changes it)
//
// Matrices travel as their canonical CSR arrays ONLY: the specialized
// kernel layout (sparse/sell.hpp) is derived data and is never
// serialized — importers re-run CsrMatrix::specialize(), so a blob stays
// portable across hosts with different SIMD capabilities and a
// layout-heuristic change never invalidates a cached artifact.
//
// Every validation failure — bad magic, unknown version, foreign
// endianness, short read, checksum mismatch, malformed CSR/schema
// structure — throws contract_error. Callers that treat artifacts as a
// cache (the artifact store) catch it and fall back to a cold compile;
// nothing is ever adopted from a file that does not prove itself.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/compiled_artifact.hpp"

namespace rrl {

/// Current format revision; bumped on any layout change so older builds
/// reject newer files (and vice versa) instead of misreading them.
/// History: 1 = initial layout; 2 = generated-model provenance
/// (model_spec, pre_lump_states) after the config block; 3 = the payload
/// checksum is lane_checksum instead of byte-serial FNV-1a (same payload
/// layout). An older blob under a newer reader degrades to a cache miss
/// (cold compile), never to a misread.
inline constexpr std::uint32_t kArtifactFormatVersion = 3;

/// Serialize `artifact` to `out`. Throws contract_error if the stream
/// fails.
void write_artifact(std::ostream& out, const CompiledArtifact& artifact);

/// Parse an artifact written by write_artifact on a same-endianness
/// machine with the same format version. Throws contract_error on any
/// corruption or incompatibility (see the header comment).
[[nodiscard]] CompiledArtifact read_artifact(std::istream& in);

/// File-path conveniences (throw contract_error, including on open
/// failure and on a write that fails only when the file is closed).
void write_artifact_file(const std::string& path,
                         const CompiledArtifact& artifact);
[[nodiscard]] CompiledArtifact read_artifact_file(const std::string& path);

}  // namespace rrl
