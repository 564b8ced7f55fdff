// Shared infrastructure of the paper-reproduction benchmark harnesses.
//
// Each bench binary regenerates one table or figure of the paper on the
// re-derived RAID-5 models. Environment controls:
//   RRL_BENCH_QUICK=1   restrict the sweep to t <= 1e3 h and cap the
//                       expensive SR / RR V-solves (CI-friendly run).
//   RRL_BENCH_TMAX=<t>  custom upper end of the time sweep.
//   RRL_BENCH_SR_CAP=<n> cap standard-randomization steps (default: none;
//                       the paper's largest run needs ~4.4e6).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "models/raid5.hpp"
#include "rrl.hpp"
#include "sparse/spmv_kernels.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace rrl {

/// Reads an environment variable as bool ("1", "true", "yes" => true).
[[nodiscard]] inline bool env_flag(const char* name, bool fallback = false) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const std::string s(v);
  return s == "1" || s == "true" || s == "yes";
}

/// Reads an environment variable as double, with fallback.
[[nodiscard]] inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::strtod(v, nullptr);
}

}  // namespace rrl

namespace rrl::bench {

/// The paper's experiment grid: C_H = 1, D_H = 3, G in {20, 40},
/// t in {1, 10, 1e2, 1e3, 1e4, 1e5} h, eps = 1e-12.
constexpr double kEpsilon = 1e-12;
inline const std::vector<int> kGroupCounts = {20, 40};

inline std::vector<double> time_sweep() {
  const bool quick = env_flag("RRL_BENCH_QUICK");
  const double tmax = env_double("RRL_BENCH_TMAX", quick ? 1e3 : 1e5);
  std::vector<double> ts;
  for (double t = 1.0; t <= tmax * 1.0000001; t *= 10.0) ts.push_back(t);
  return ts;
}

inline std::int64_t sr_step_cap() {
  return static_cast<std::int64_t>(
      env_double("RRL_BENCH_SR_CAP", env_flag("RRL_BENCH_QUICK") ? 2e6 : -1));
}

inline Raid5Params paper_params(int groups) {
  Raid5Params p;  // defaults are the paper's fixed values
  p.groups = groups;
  return p;
}

inline void print_model_banner(const char* measure, const Raid5Model& m) {
  std::printf(
      "model: level-5 RAID, G=%d, N=%d, C_H=%d, D_H=%d  (%s)\n"
      "       %d states, %lld transitions, Lambda=%.4f 1/h, eps=%g\n",
      m.params.groups, m.params.disks_per_group, m.params.ctrl_spares,
      m.params.disk_spares, measure, m.chain.num_states(),
      static_cast<long long>(m.chain.num_transitions()),
      m.chain.max_exit_rate(), kEpsilon);
}

/// Paper step counts for side-by-side comparison (Tables 1 and 2).
struct PaperRow {
  double t;
  std::int64_t rr_g20, other_g20, rr_g40, other_g40;
};
// Table 1: RR/RRL and RSD steps for UA(t).
inline const std::vector<PaperRow> kPaperTable1 = {
    {1e0, 56, 66, 86, 99},          {1e1, 323, 355, 554, 594},
    {1e2, 2234, 2612, 4187, 4823},  {1e3, 2708, 2612, 5123, 4823},
    {1e4, 2938, 2612, 5549, 4823},  {1e5, 3157, 2612, 5957, 4823},
};
// Table 2: RR/RRL and SR steps for UR(t).
inline const std::vector<PaperRow> kPaperTable2 = {
    {1e0, 56, 65, 86, 98},
    {1e1, 323, 354, 554, 593},
    {1e2, 2233, 2726, 4186, 4849},
    {1e3, 2708, 24844, 5122, 45234},
    {1e4, 2937, 240958, 5547, 442203},
    {1e5, 3157, 2386068, 5955, 4390141},
};

inline const PaperRow* paper_row(const std::vector<PaperRow>& table,
                                 double t) {
  for (const PaperRow& row : table) {
    if (std::abs(row.t - t) < 0.5 * t) return &row;
  }
  return nullptr;
}

/// Shared BENCH_*.json emitter. Every bench used to hand-write its JSON
/// envelope; this single-sources the shape and stamps host metadata so a
/// results file is interpretable on its own: which machine class
/// (hardware_threads), which SpMV variant actually ran (spmv_kernel — a
/// "2x speedup" means nothing without it), and whether RRL_BENCH_QUICK
/// shrank the workload (quick runs are smoke tests, not results).
///
///   BenchJson json(args, "kernel_throughput", "BENCH_kernels.json");
///   if (json) {
///     json.field("rows", rows).field("speedup", speedup);
///     json.raw("results") << "[1, 2, 3]";   // arrays / nested objects
///   }                                        // closed by ~BenchJson
///
/// --json-out overrides the default path; an empty path disables emission
/// (operator bool is false, every op a no-op). An unopenable path warns
/// on stderr and disables likewise — a bench never fails on its telemetry.
class BenchJson {
 public:
  BenchJson(const CliArgs& args, const char* bench,
            const std::string& default_path)
      : path_(args.get_string("json-out", default_path)) {
    if (path_.empty()) return;
    out_.open(path_);
    if (!out_) {
      std::fprintf(stderr, "warning: cannot open %s; skipping JSON\n",
                   path_.c_str());
      path_.clear();
      return;
    }
    out_ << "{\n  \"bench\": \"" << bench << "\",\n"
         << "  \"hardware_threads\": " << ThreadPool::hardware_threads()
         << ",\n"
         << "  \"spmv_kernel\": \"" << active_kernels().name << "\",\n"
         << "  \"quick\": " << (env_flag("RRL_BENCH_QUICK") ? "true" : "false");
  }

  ~BenchJson() { close(); }
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  [[nodiscard]] explicit operator bool() const { return !path_.empty(); }

  BenchJson& field(const char* name, double v) {
    if (*this) out_ << ",\n  \"" << name << "\": " << v;
    return *this;
  }
  BenchJson& field(const char* name, std::int64_t v) {
    if (*this) out_ << ",\n  \"" << name << "\": " << v;
    return *this;
  }
  BenchJson& field(const char* name, std::uint64_t v) {
    if (*this) out_ << ",\n  \"" << name << "\": " << v;
    return *this;
  }
  BenchJson& field(const char* name, int v) {
    return field(name, static_cast<std::int64_t>(v));
  }
  BenchJson& field(const char* name, bool v) {
    if (*this) out_ << ",\n  \"" << name << "\": " << (v ? "true" : "false");
    return *this;
  }
  BenchJson& field(const char* name, const std::string& v) {
    if (*this) out_ << ",\n  \"" << name << "\": \"" << v << "\"";
    return *this;
  }
  BenchJson& field(const char* name, const char* v) {
    return field(name, std::string(v));
  }

  /// `,\n  "name": ` then hands the stream over — the caller writes the
  /// value verbatim (arrays, nested objects).
  std::ostream& raw(const char* name) {
    out_ << ",\n  \"" << name << "\": ";
    return out_;
  }

  /// Close the object and announce the file; idempotent (the destructor
  /// calls it too).
  void close() {
    if (path_.empty()) return;
    out_ << "\n}\n";
    out_.close();
    std::printf("wrote %s\n", path_.c_str());
    path_.clear();
  }

 private:
  std::string path_;
  std::ofstream out_;
};

}  // namespace rrl::bench
