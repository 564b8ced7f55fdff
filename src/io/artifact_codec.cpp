#include "io/artifact_codec.hpp"

#include <fstream>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "support/contracts.hpp"

namespace rrl {
namespace {

void write_series(ByteWriter& w, const ExcursionSeries& s) {
  w.array(std::span<const double>(s.a));
  w.array(std::span<const double>(s.c));
  w.array(std::span<const double>(s.qa));
  w.scalar<std::uint64_t>(s.va.size());
  for (const std::vector<double>& v : s.va) {
    w.array(std::span<const double>(v));
  }
  w.scalar<std::uint8_t>(s.exact ? 1 : 0);
}

void write_payload(ByteWriter& w, const CompiledArtifact& artifact) {
  const SolverKey& key = artifact.key;
  w.string(key.solver);
  w.scalar<std::uint64_t>(key.model_hash);
  w.scalar<double>(key.config.epsilon);
  w.scalar<double>(key.config.rate_factor);
  w.scalar<index_t>(key.config.regenerative);
  w.scalar<std::int64_t>(key.config.step_cap);
  w.string(artifact.model_spec);
  w.scalar<index_t>(artifact.pre_lump_states);

  w.scalar<double>(artifact.lambda);
  const CsrMatrix& pt = artifact.dtmc_pt;
  w.scalar<index_t>(pt.rows());
  w.scalar<index_t>(pt.cols());
  w.array(pt.row_ptr());
  w.array(pt.col_idx());
  w.array(pt.values());
  w.array(std::span<const double>(artifact.self_loop));

  w.scalar<std::uint64_t>(artifact.schemas.size());
  for (const ArtifactSchemaEntry& entry : artifact.schemas) {
    w.scalar<double>(entry.t);
    w.scalar<double>(entry.eps);
    const RegenerativeSchema& sch = entry.schema;
    w.scalar<double>(sch.lambda);
    w.scalar<double>(sch.alpha_r);
    w.scalar<double>(sch.r_max);
    w.scalar<index_t>(sch.regenerative);
    w.scalar<double>(sch.t);
    w.array(std::span<const index_t>(sch.absorbing));
    w.array(std::span<const double>(sch.f_rewards));
    write_series(w, sch.main);
    w.scalar<std::uint8_t>(sch.has_primed ? 1 : 0);
    if (sch.has_primed) write_series(w, sch.primed);
    w.scalar<std::uint8_t>(sch.capped ? 1 : 0);
  }
}

CsrMatrix read_csr(ByteReader& r) {
  const auto rows = r.scalar<index_t>();
  const auto cols = r.scalar<index_t>();
  auto row_ptr = r.array<std::int64_t>();
  auto col_idx = r.array<index_t>();
  auto values = r.array<double>();
  if (rows < 0 || cols < 0) r.fail("negative matrix dimension");
  // from_parts re-validates the CSR invariants and throws contract_error
  // itself on violation. The returned matrix is unspecialized — the
  // blocked kernel layout is derived, not wire, data; the adopting
  // solver re-runs specialize() in import_compiled().
  return CsrMatrix::from_parts(rows, cols, std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

ExcursionSeries read_series(ByteReader& r, std::size_t num_absorbing) {
  ExcursionSeries s;
  s.a = r.array<double>();
  s.c = r.array<double>();
  s.qa = r.array<double>();
  const auto va_count = r.scalar<std::uint64_t>();
  if (va_count != num_absorbing) r.fail("absorbing-series mismatch");
  s.va.reserve(static_cast<std::size_t>(va_count));
  for (std::uint64_t i = 0; i < va_count; ++i) {
    s.va.push_back(r.array<double>());
  }
  s.exact = r.scalar<std::uint8_t>() != 0;
  // Structural invariants (regenerative.hpp): a spans k = 0..K, c the
  // same, qa and every va[i] span k = 0..K-1.
  if (s.a.empty() || s.c.size() != s.a.size() ||
      s.qa.size() + 1 != s.a.size()) {
    r.fail("malformed excursion series");
  }
  for (const std::vector<double>& v : s.va) {
    if (v.size() + 1 != s.a.size()) r.fail("malformed excursion series");
  }
  return s;
}

}  // namespace

std::string encode_artifact(const CompiledArtifact& artifact) {
  ByteWriter sizer;
  write_payload(sizer, artifact);
  std::string out;
  out.reserve(envelope_overhead(kArtifactEnvelope) + sizer.size());
  const std::size_t begin = begin_envelope(out, kArtifactEnvelope);
  ByteWriter payload(&out);
  write_payload(payload, artifact);
  seal_envelope(out, begin, kArtifactEnvelope);
  return out;
}

CompiledArtifact decode_artifact(std::string_view bytes) {
  ByteReader r(open_whole_envelope(bytes, kArtifactEnvelope).payload,
               kArtifactEnvelope.codec);
  CompiledArtifact artifact;
  SolverKey& key = artifact.key;
  key.solver = r.string();
  key.model_hash = r.scalar<std::uint64_t>();
  key.config.epsilon = r.scalar<double>();
  key.config.rate_factor = r.scalar<double>();
  key.config.regenerative = r.scalar<index_t>();
  key.config.step_cap = r.scalar<std::int64_t>();
  artifact.model_spec = r.string();
  artifact.pre_lump_states = r.scalar<index_t>();

  artifact.lambda = r.scalar<double>();
  artifact.dtmc_pt = read_csr(r);
  artifact.self_loop = r.array<double>();

  // A schema entry occupies far more than 64 payload bytes.
  const auto schema_count = r.count(64);
  artifact.schemas.reserve(static_cast<std::size_t>(schema_count));
  for (std::uint64_t i = 0; i < schema_count; ++i) {
    ArtifactSchemaEntry entry;
    entry.t = r.scalar<double>();
    entry.eps = r.scalar<double>();
    RegenerativeSchema& sch = entry.schema;
    sch.lambda = r.scalar<double>();
    sch.alpha_r = r.scalar<double>();
    sch.r_max = r.scalar<double>();
    sch.regenerative = r.scalar<index_t>();
    sch.t = r.scalar<double>();
    sch.absorbing = r.array<index_t>();
    sch.f_rewards = r.array<double>();
    if (sch.f_rewards.size() != sch.absorbing.size()) {
      r.fail("absorbing-reward mismatch");
    }
    sch.main = read_series(r, sch.absorbing.size());
    sch.has_primed = r.scalar<std::uint8_t>() != 0;
    if (sch.has_primed) sch.primed = read_series(r, sch.absorbing.size());
    sch.capped = r.scalar<std::uint8_t>() != 0;
    artifact.schemas.push_back(std::move(entry));
  }
  r.expect_exhausted();
  return artifact;
}

void write_artifact_file(const std::string& path,
                         const CompiledArtifact& artifact) {
  const std::string bytes = encode_artifact(artifact);
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw contract_error("artifact codec: cannot open for writing: " + path);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  // A small artifact can sit whole in the stream's buffer, so only the
  // final flush meets a full disk; an unchecked close would let the store
  // publish a truncated file.
  out.close();
  if (!out) {
    throw contract_error("artifact codec: stream write failed: " + path);
  }
}

CompiledArtifact read_artifact_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw contract_error("artifact codec: cannot open for reading: " + path);
  }
  // The file's own size bounds the buffer. Default-initialized: the read
  // overwrites every byte, so a zero fill of a multi-megabyte artifact
  // would be wasted.
  const std::streamoff size = in.tellg();
  in.seekg(0);
  if (size < 0 || !in) {
    throw contract_error("artifact codec: cannot size: " + path);
  }
  const std::unique_ptr<char[]> buffer(
      new char[static_cast<std::size_t>(size)]);
  in.read(buffer.get(), size);
  if (!in) throw contract_error("artifact codec: read failed: " + path);
  return decode_artifact({buffer.get(), static_cast<std::size_t>(size)});
}

}  // namespace rrl
