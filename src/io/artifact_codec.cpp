#include "io/artifact_codec.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/contracts.hpp"
#include "support/lane_checksum.hpp"

namespace rrl {
namespace {

constexpr char kMagic[8] = {'R', 'R', 'L', 'A', 'R', 'T', '\n', '\0'};
constexpr std::uint16_t kEndianTag = 0x0102;

[[noreturn]] void corrupt(const std::string& what) {
  throw contract_error("artifact codec: " + what);
}

// --- Payload writer: appends native-byte-order scalars/arrays to a
// buffer, which is checksummed and framed by write_artifact. Without a
// buffer it only counts, so the payload is sized before it is written.

class Writer {
 public:
  explicit Writer(std::string* buffer = nullptr) : buffer_(buffer) {}

  template <typename T>
  void scalar(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&value, sizeof(T));
  }

  template <typename T>
  void array(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    scalar<std::uint64_t>(values.size());
    bytes(values.data(), values.size() * sizeof(T));
  }

  void string(const std::string& s) {
    scalar<std::uint64_t>(s.size());
    bytes(s.data(), s.size());
  }

  void csr(const CsrMatrix& m) {
    scalar<index_t>(m.rows());
    scalar<index_t>(m.cols());
    array(m.row_ptr());
    array(m.col_idx());
    array(m.values());
  }

  void series(const ExcursionSeries& s) {
    array(std::span<const double>(s.a));
    array(std::span<const double>(s.c));
    array(std::span<const double>(s.qa));
    scalar<std::uint64_t>(s.va.size());
    for (const std::vector<double>& v : s.va) {
      array(std::span<const double>(v));
    }
    scalar<std::uint8_t>(s.exact ? 1 : 0);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  void bytes(const void* data, std::size_t n) {
    if (buffer_ != nullptr && n > 0) {
      buffer_->append(static_cast<const char*>(data), n);
    }
    size_ += n;
  }

  std::string* buffer_;
  std::size_t size_ = 0;
};

void write_payload(Writer& payload, const CompiledArtifact& artifact) {
  payload.string(artifact.solver);
  payload.scalar<std::uint64_t>(artifact.model_hash);
  payload.scalar<double>(artifact.config.epsilon);
  payload.scalar<double>(artifact.config.rate_factor);
  payload.scalar<index_t>(artifact.config.regenerative);
  payload.scalar<std::int64_t>(artifact.config.step_cap);
  payload.string(artifact.model_spec);
  payload.scalar<index_t>(artifact.pre_lump_states);

  payload.scalar<double>(artifact.lambda);
  payload.csr(artifact.dtmc_pt);
  payload.array(std::span<const double>(artifact.self_loop));

  payload.scalar<std::uint64_t>(artifact.schemas.size());
  for (const ArtifactSchemaEntry& entry : artifact.schemas) {
    payload.scalar<double>(entry.t);
    payload.scalar<double>(entry.eps);
    const RegenerativeSchema& sch = entry.schema;
    payload.scalar<double>(sch.lambda);
    payload.scalar<double>(sch.alpha_r);
    payload.scalar<double>(sch.r_max);
    payload.scalar<index_t>(sch.regenerative);
    payload.scalar<double>(sch.t);
    payload.array(std::span<const index_t>(sch.absorbing));
    payload.array(std::span<const double>(sch.f_rewards));
    payload.series(sch.main);
    payload.scalar<std::uint8_t>(sch.has_primed ? 1 : 0);
    if (sch.has_primed) payload.series(sch.primed);
    payload.scalar<std::uint8_t>(sch.capped ? 1 : 0);
  }
}

// --- Payload reader: bounds-checked mirror of Writer. Every count is
// validated against the remaining bytes BEFORE allocating, so a corrupt
// length cannot trigger a huge allocation.

class Reader {
 public:
  explicit Reader(std::span<const char> bytes) : bytes_(bytes) {}

  template <typename T>
  [[nodiscard]] T scalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) corrupt("truncated payload");
    T value;
    std::memcpy(&value, bytes_.data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return value;
  }

  template <typename T>
  [[nodiscard]] std::vector<T> array() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto count = scalar<std::uint64_t>();
    if (count > remaining() / sizeof(T)) corrupt("oversized array");
    std::vector<T> values(static_cast<std::size_t>(count));
    if (count > 0) {
      std::memcpy(values.data(), bytes_.data() + cursor_,
                  static_cast<std::size_t>(count) * sizeof(T));
      cursor_ += static_cast<std::size_t>(count) * sizeof(T);
    }
    return values;
  }

  [[nodiscard]] std::string string() {
    const auto count = scalar<std::uint64_t>();
    if (count > remaining()) corrupt("oversized string");
    std::string s(bytes_.data() + cursor_,
                  static_cast<std::size_t>(count));
    cursor_ += static_cast<std::size_t>(count);
    return s;
  }

  [[nodiscard]] CsrMatrix csr() {
    const auto rows = scalar<index_t>();
    const auto cols = scalar<index_t>();
    auto row_ptr = array<std::int64_t>();
    auto col_idx = array<index_t>();
    auto values = array<double>();
    if (rows < 0 || cols < 0) corrupt("negative matrix dimension");
    // from_parts re-validates the CSR invariants and throws contract_error
    // itself on violation. The returned matrix is unspecialized — the
    // blocked kernel layout is derived, not wire, data; the adopting
    // solver re-runs specialize() in import_compiled().
    return CsrMatrix::from_parts(rows, cols, std::move(row_ptr),
                                 std::move(col_idx), std::move(values));
  }

  [[nodiscard]] ExcursionSeries series(std::size_t num_absorbing) {
    ExcursionSeries s;
    s.a = array<double>();
    s.c = array<double>();
    s.qa = array<double>();
    const auto va_count = scalar<std::uint64_t>();
    if (va_count != num_absorbing) corrupt("absorbing-series mismatch");
    s.va.reserve(static_cast<std::size_t>(va_count));
    for (std::uint64_t i = 0; i < va_count; ++i) {
      s.va.push_back(array<double>());
    }
    s.exact = scalar<std::uint8_t>() != 0;
    // Structural invariants (regenerative.hpp): a spans k = 0..K, c the
    // same, qa and every va[i] span k = 0..K-1.
    if (s.a.empty() || s.c.size() != s.a.size() ||
        s.qa.size() + 1 != s.a.size()) {
      corrupt("malformed excursion series");
    }
    for (const std::vector<double>& v : s.va) {
      if (v.size() + 1 != s.a.size()) corrupt("malformed excursion series");
    }
    return s;
  }

  [[nodiscard]] bool exhausted() const noexcept {
    return cursor_ == bytes_.size();
  }

 private:
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - cursor_;
  }

  std::span<const char> bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace

void write_artifact(std::ostream& out, const CompiledArtifact& artifact) {
  Writer sizer;
  write_payload(sizer, artifact);
  std::string bytes;
  bytes.reserve(sizer.size());
  Writer payload(&bytes);
  write_payload(payload, artifact);

  out.write(kMagic, sizeof(kMagic));
  const std::uint32_t version = kArtifactFormatVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const std::uint16_t endian = kEndianTag;
  out.write(reinterpret_cast<const char*>(&endian), sizeof(endian));
  const std::uint64_t length = bytes.size();
  out.write(reinterpret_cast<const char*>(&length), sizeof(length));
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  const std::uint64_t checksum = lane_checksum(bytes);
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  if (!out) corrupt("stream write failed");
}

CompiledArtifact read_artifact(std::istream& in) {
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    corrupt("bad magic (not an artifact file)");
  }
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || version != kArtifactFormatVersion) {
    corrupt("unsupported format version");
  }
  std::uint16_t endian = 0;
  in.read(reinterpret_cast<char*>(&endian), sizeof(endian));
  if (!in || endian != kEndianTag) {
    corrupt("foreign endianness");
  }
  std::uint64_t length = 0;
  in.read(reinterpret_cast<char*>(&length), sizeof(length));
  if (!in) corrupt("truncated header");
  // A corrupt length field must be refused BEFORE the allocation it
  // sizes: a bit-flipped u64 can demand terabytes, and on an overcommit
  // system the zero-fill would invite the OOM killer rather than a
  // catchable bad_alloc. For seekable streams (files, string streams —
  // every cache-tier read) the declared payload cannot exceed the bytes
  // actually present; the absolute cap stays as a backstop for
  // non-seekable sources.
  constexpr std::uint64_t kMaxPayload = 1ULL << 32;
  if (length > kMaxPayload) corrupt("oversized payload");
  const std::istream::pos_type here = in.tellg();
  if (here != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.seekg(here);
    if (!in || end == std::istream::pos_type(-1) ||
        static_cast<std::uint64_t>(end - here) < length) {
      corrupt("truncated payload");
    }
  }
  // Default-initialized: the read overwrites every byte, so a zero fill
  // of a multi-megabyte payload would be wasted.
  const std::unique_ptr<char[]> buffer(new char[length]);
  const std::span<const char> bytes(buffer.get(),
                                    static_cast<std::size_t>(length));
  in.read(buffer.get(), static_cast<std::streamsize>(length));
  if (!in) corrupt("truncated payload");
  std::uint64_t checksum = 0;
  in.read(reinterpret_cast<char*>(&checksum), sizeof(checksum));
  if (!in || checksum != lane_checksum(bytes)) corrupt("checksum mismatch");

  Reader payload{bytes};
  CompiledArtifact artifact;
  artifact.solver = payload.string();
  artifact.model_hash = payload.scalar<std::uint64_t>();
  artifact.config.epsilon = payload.scalar<double>();
  artifact.config.rate_factor = payload.scalar<double>();
  artifact.config.regenerative = payload.scalar<index_t>();
  artifact.config.step_cap = payload.scalar<std::int64_t>();
  artifact.model_spec = payload.string();
  artifact.pre_lump_states = payload.scalar<index_t>();

  artifact.lambda = payload.scalar<double>();
  artifact.dtmc_pt = payload.csr();
  artifact.self_loop = payload.array<double>();

  const auto schema_count = payload.scalar<std::uint64_t>();
  // Same before-allocating bound every other count gets: a schema entry
  // occupies far more than 64 payload bytes, so a count beyond this can
  // only come from corruption.
  if (schema_count > bytes.size() / 64) corrupt("oversized array");
  artifact.schemas.reserve(static_cast<std::size_t>(schema_count));
  for (std::uint64_t i = 0; i < schema_count; ++i) {
    ArtifactSchemaEntry entry;
    entry.t = payload.scalar<double>();
    entry.eps = payload.scalar<double>();
    RegenerativeSchema& sch = entry.schema;
    sch.lambda = payload.scalar<double>();
    sch.alpha_r = payload.scalar<double>();
    sch.r_max = payload.scalar<double>();
    sch.regenerative = payload.scalar<index_t>();
    sch.t = payload.scalar<double>();
    sch.absorbing = payload.array<index_t>();
    sch.f_rewards = payload.array<double>();
    if (sch.f_rewards.size() != sch.absorbing.size()) {
      corrupt("absorbing-reward mismatch");
    }
    sch.main = payload.series(sch.absorbing.size());
    sch.has_primed = payload.scalar<std::uint8_t>() != 0;
    if (sch.has_primed) sch.primed = payload.series(sch.absorbing.size());
    sch.capped = payload.scalar<std::uint8_t>() != 0;
    artifact.schemas.push_back(std::move(entry));
  }
  if (!payload.exhausted()) corrupt("trailing bytes");
  return artifact;
}

void write_artifact_file(const std::string& path,
                         const CompiledArtifact& artifact) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw contract_error("artifact codec: cannot open for writing: " + path);
  }
  write_artifact(out, artifact);
  // A small artifact can sit whole in the stream's buffer, so only the
  // final flush meets a full disk; an unchecked close would let the store
  // publish a truncated file.
  out.close();
  if (!out) corrupt("stream write failed: " + path);
}

CompiledArtifact read_artifact_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw contract_error("artifact codec: cannot open for reading: " + path);
  }
  return read_artifact(in);
}

}  // namespace rrl
