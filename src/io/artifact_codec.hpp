// Binary serialization of CompiledArtifact — the wire format of the
// compile → execute split (core/compiled_artifact.hpp) and of the study
// subsystem's on-disk artifact tier (study/artifact_store.hpp).
//
// An artifact is one untyped envelope of the shared byte layer
// (io/byte_codec.hpp: magic "RRLART\n\0", version kArtifactFormatVersion,
// endian tag, u64 length, payload, lane_checksum). The payload holds, in
// order: the key (solver name, model hash, config), the generated-model
// provenance, the DTMC CSR arrays and the schema series — raw IEEE-754
// bits, so a round trip is bit-exact (the foundation of the "imported
// solver answers bit-identically" guarantee).
//
// Matrices travel as their canonical CSR arrays ONLY: the specialized
// kernel layout (sparse/sell.hpp) is derived data and is never
// serialized — importers re-run CsrMatrix::specialize(), so a blob stays
// portable across hosts with different SIMD capabilities and a
// layout-heuristic change never invalidates a cached artifact.
//
// Every validation failure — an envelope that does not verify, malformed
// CSR/schema structure, trailing bytes — throws contract_error. Callers
// that treat artifacts as a cache (the artifact store) catch it and fall
// back to a cold compile; nothing is ever adopted from bytes that do not
// prove themselves.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/compiled_artifact.hpp"
#include "io/byte_codec.hpp"

namespace rrl {

/// Current format revision; bumped on any layout change so older builds
/// reject newer files (and vice versa) instead of misreading them.
/// History: 1 = initial layout; 2 = generated-model provenance
/// (model_spec, pre_lump_states) after the config block; 3 = the payload
/// checksum is lane_checksum instead of byte-serial FNV-1a (same payload
/// layout). An older blob under a newer reader degrades to a cache miss
/// (cold compile), never to a misread.
inline constexpr std::uint32_t kArtifactFormatVersion = 3;

/// The envelope an artifact is (io/byte_codec.hpp).
inline constexpr EnvelopeFormat kArtifactEnvelope{
    {'R', 'R', 'L', 'A', 'R', 'T', '\n', '\0'},
    kArtifactFormatVersion,
    /*type_count=*/0,
    "artifact codec"};

/// Serialize `artifact` into one envelope.
[[nodiscard]] std::string encode_artifact(const CompiledArtifact& artifact);

/// Parse bytes that are exactly one artifact envelope written by
/// encode_artifact on a same-endianness machine with the same format
/// version. Throws contract_error on any corruption or incompatibility.
[[nodiscard]] CompiledArtifact decode_artifact(std::string_view bytes);

/// File-path conveniences (throw contract_error, including on open
/// failure and on a write that fails only when the file is closed).
void write_artifact_file(const std::string& path,
                         const CompiledArtifact& artifact);
[[nodiscard]] CompiledArtifact read_artifact_file(const std::string& path);

}  // namespace rrl
