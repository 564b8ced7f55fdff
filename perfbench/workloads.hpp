// The benchmark's study workloads: seeded input writers and the reference
// values the output gate (gate.hpp) compares every point with.
//
// Each workload writes its .rrlm models and one .study file from the seed
// before any timing starts. Seed 0 writes the nominal instance; for
// eps_sweep any other seed scales every rate and horizon by its own factor
// in [0.99, 1.01], so a workload's shape (states, scenarios, routes) is the
// same for every seed. The axis order never varies: on 4 workers it decides
// which long scenarios land last, which moved the medians by ~10% between
// seeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace perfbench {

/// Worker threads of every study run (the reference host has 4 cores).
inline constexpr int kJobs = 4;

/// splitmix64 stream: the only source of the benchmark's seeded variation.
class SeededStream {
 public:
  explicit SeededStream(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

struct Workload {
  const char* name;
  /// Reference methods, none of which the study runs, tried in order per
  /// model: the first that accepts the model (rsd needs an irreducible
  /// chain) gives that model's references.
  const char* reference_solvers[2];
  double reference_eps;
  /// Non-null when the references take minutes to compute (the paper's
  /// 1e5 h horizon costs SR ~4.4e6 steps on RAID-5 G=40): they ship in
  /// this file under perfbench/, so the workload's inputs never vary.
  const char* committed_references;
  /// Writes the models and `study.study` into `dir`; returns the study
  /// path.
  std::string (*write_inputs)(const std::string& dir, std::uint64_t seed);
};

/// The workload called `name`, or nullptr.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// Reference values of one (model, measure, grid) block of a study.
struct Reference {
  std::string method;  ///< the reference solver that produced them
  double eps = 0.0;
  std::vector<double> values;  ///< one per grid point
  /// DTMC + V-model steps each point needed (SR/RSD: that point's own
  /// truncation point, not the pass to the grid's largest time).
  std::vector<double> steps;
};

/// (model label as written in the study, measure name, grid index).
using ReferenceKey = std::tuple<std::string, std::string, std::size_t>;
using References = std::map<ReferenceKey, Reference>;

/// Solves every block of the study at `study_path` with the workload's
/// reference methods, blocks in parallel on kJobs threads. Throws when a
/// reference misses its own target.
[[nodiscard]] References compute_references(const Workload& workload,
                                            const std::string& study_path);

void write_references(const std::string& path, const References& refs);
[[nodiscard]] References read_references(const std::string& path);

}  // namespace perfbench
