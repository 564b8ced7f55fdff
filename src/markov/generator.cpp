#include "markov/generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>

#include "markov/builder.hpp"
#include "markov/lumping.hpp"
#include "support/contracts.hpp"

namespace rrl {
namespace {

[[noreturn]] void gen_fail(const std::string& message) {
  throw contract_error("generator: " + message);
}

std::string print_int(std::int64_t v) { return std::to_string(v); }

std::string print_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Typed access to the raw key=value pairs. Every get_* records the
// EFFECTIVE value (defaults included) under its key, so canonical() names
// the expansion exactly: two spellings of the same spec — params
// reordered, defaults elided or written out, "1e-3" vs "0.001" — yield
// the same canonical string, hence the same model hash.
class Params {
 public:
  Params(std::string family, const GeneratorParams& raw)
      : family_(std::move(family)) {
    for (const auto& [key, value] : raw) {
      if (!raw_.emplace(key, value).second) {
        gen_fail("duplicate parameter '" + key + "'");
      }
    }
  }

  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t lo,
                                     std::int64_t hi,
                                     std::int64_t fallback = INT64_MIN) {
    std::int64_t v = fallback;
    const auto it = raw_.find(key);
    if (it == raw_.end()) {
      if (fallback == INT64_MIN) {
        gen_fail("family '" + family_ + "' needs parameter '" + key + "'");
      }
    } else {
      const char* text = it->second.c_str();
      char* end = nullptr;
      v = std::strtoll(text, &end, 10);
      if (end == text || *end != '\0') {
        gen_fail("parameter '" + key + "' needs an integer, got '" +
                 it->second + "'");
      }
    }
    if (v < lo || v > hi) {
      gen_fail("parameter '" + key + "' out of range [" + print_int(lo) +
               ", " + print_int(hi) + "]: " + print_int(v));
    }
    canonical_.emplace(key, print_int(v));
    return v;
  }

  [[nodiscard]] double get_double(const std::string& key, double lo,
                                  double fallback = -1.0,
                                  bool has_fallback = false) {
    double v = fallback;
    const auto it = raw_.find(key);
    if (it == raw_.end()) {
      if (!has_fallback) {
        gen_fail("family '" + family_ + "' needs parameter '" + key + "'");
      }
    } else {
      const char* text = it->second.c_str();
      char* end = nullptr;
      v = std::strtod(text, &end);
      if (end == text || *end != '\0' || !std::isfinite(v)) {
        gen_fail("parameter '" + key + "' needs a finite number, got '" +
                 it->second + "'");
      }
    }
    if (v < lo) {
      gen_fail("parameter '" + key + "' must be >= " + print_double(lo) +
               ", got " + print_double(v));
    }
    canonical_.emplace(key, print_double(v));
    return v;
  }

  [[nodiscard]] bool get_flag(const std::string& key, bool fallback) {
    return get_int(key, 0, 1, fallback ? 1 : 0) != 0;
  }

  /// Reject any parameter no family getter consumed.
  void finish() const {
    for (const auto& entry : raw_) {
      if (canonical_.count(entry.first) == 0) {
        gen_fail("unknown parameter '" + entry.first + "' for family '" +
                 family_ + "'");
      }
    }
  }

  /// Family + every effective parameter, sorted by key.
  [[nodiscard]] std::string canonical() const {
    std::string spec = family_;
    for (const auto& [key, value] : canonical_) {
      spec += ' ';
      spec += key;
      spec += '=';
      spec += value;
    }
    return spec;
  }

 private:
  std::string family_;
  std::map<std::string, std::string> raw_;
  std::map<std::string, std::string> canonical_;
};

/// (base)^exp with the kMaxStates overflow guard, as the exact state count
/// of the tuple-structured families.
std::int64_t checked_power(std::int64_t base, std::int64_t exp,
                           const std::string& what) {
  std::int64_t count = 1;
  for (std::int64_t i = 0; i < exp; ++i) {
    if (count > kMaxStates / base) {
      gen_fail(what + " would expand beyond the " + print_int(kMaxStates) +
               "-state cap");
    }
    count *= base;
  }
  return count;
}

// Per-group / per-tier counts packed one byte each into a u64 state (the
// family validators cap the per-position count at 250 and the positions
// at 8).
std::int64_t unpack(std::uint64_t s, int i) {
  return static_cast<std::int64_t>((s >> (8 * i)) & 0xff);
}
std::uint64_t repack(std::uint64_t s, int i, std::int64_t c) {
  const int shift = 8 * i;
  return (s & ~(std::uint64_t{0xff} << shift)) |
         (static_cast<std::uint64_t>(c) << shift);
}

using Builder = StateSpaceBuilder<std::uint64_t>;

/// Shared tail of every family: run the reserved BFS from the all-up /
/// empty state 0, then attach rewards, unit initial mass on state 0 and
/// state 0 as the regenerative hint (it is the natural "everything fresh"
/// regeneration point of all three families).
template <class ExpandFn, class RewardFn>
ModelFile assemble(std::int64_t expected_states,
                   std::int64_t transition_bound, const ExpandFn& expand,
                   const RewardFn& reward_of) {
  ReserveHint hint;
  hint.states = static_cast<index_t>(expected_states);
  hint.transitions = transition_bound;
  Builder::Result result = Builder::explore(
      {0}, expand, static_cast<index_t>(expected_states), hint);
  RRL_ENSURES(static_cast<std::int64_t>(result.states.size()) ==
              expected_states);

  ModelFile file;
  file.chain = std::move(result.chain);
  const std::size_t n = result.states.size();
  file.rewards.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    file.rewards[i] = reward_of(result.states[i]);
  }
  file.initial.assign(n, 0.0);
  file.initial[0] = 1.0;
  file.regenerative = 0;
  return file;
}

ModelFile build_k_of_n(Params& p) {
  const std::int64_t n = p.get_int("n", 1, 250);
  const std::int64_t k = p.get_int("k", 1, n);
  const std::int64_t groups = p.get_int("groups", 1, 8);
  const double lambda = p.get_double("lambda", 0.0);
  const double mu = p.get_double("mu", 0.0);
  if (lambda <= 0.0 || mu <= 0.0) {
    gen_fail("k_of_n needs lambda > 0 and mu > 0");
  }
  const std::int64_t states = checked_power(n + 1, groups, "k_of_n");
  const std::int64_t max_failed = n - k;  // group down when failed > this

  auto expand = [&](const std::uint64_t& s, const Builder::EmitFn& emit) {
    for (int i = 0; i < groups; ++i) {
      const std::int64_t c = unpack(s, i);
      if (c < n) {
        emit(repack(s, i, c + 1), static_cast<double>(n - c) * lambda);
      }
      if (c > 0) emit(repack(s, i, c - 1), mu);
    }
  };
  auto reward_of = [&](std::uint64_t s) {
    for (int i = 0; i < groups; ++i) {
      if (unpack(s, i) > max_failed) return 1.0;  // some group is down
    }
    return 0.0;
  };
  return assemble(states, 2 * groups * states, expand, reward_of);
}

ModelFile build_tiered_repair(Params& p) {
  const std::int64_t tiers = p.get_int("tiers", 1, 8);
  const std::int64_t n = p.get_int("n", 1, 250);
  const std::int64_t k = p.get_int("k", 1, n);
  const double lambda = p.get_double("lambda", 0.0);
  const double mu = p.get_double("mu", 0.0);
  const double scale = p.get_double("scale", 0.0, 1.0, true);
  const std::int64_t repairmen =
      p.get_int("repairmen", 1, tiers * n, tiers * n);
  if (lambda <= 0.0 || mu <= 0.0 || scale <= 0.0) {
    gen_fail("tiered_repair needs lambda > 0, mu > 0 and scale > 0");
  }
  const std::int64_t states = checked_power(n + 1, tiers, "tiered_repair");

  std::vector<double> tier_lambda(static_cast<std::size_t>(tiers));
  for (std::int64_t t = 0; t < tiers; ++t) {
    tier_lambda[static_cast<std::size_t>(t)] =
        lambda * std::pow(scale, static_cast<double>(t));
  }

  auto expand = [&](const std::uint64_t& s, const Builder::EmitFn& emit) {
    std::int64_t free_repairmen = repairmen;
    for (int t = 0; t < tiers; ++t) {
      const std::int64_t c = unpack(s, t);
      if (c < n) {
        emit(repack(s, t, c + 1),
             static_cast<double>(n - c) *
                 tier_lambda[static_cast<std::size_t>(t)]);
      }
      // Preemptive priority: lower tiers grab repairmen first.
      const std::int64_t assigned = std::min(c, free_repairmen);
      free_repairmen -= assigned;
      if (assigned > 0) {
        emit(repack(s, t, c - 1), static_cast<double>(assigned) * mu);
      }
    }
  };
  auto reward_of = [&](std::uint64_t s) {
    double up = 0.0;
    for (int t = 0; t < tiers; ++t) {
      if (unpack(s, t) <= n - k) up += 1.0;
    }
    return up;
  };
  return assemble(states, 2 * tiers * states, expand, reward_of);
}

ModelFile build_queue(Params& p) {
  const std::int64_t capacity = p.get_int("capacity", 1, kMaxStates);
  const std::int64_t servers = p.get_int("servers", 1, 64);
  const double arrival = p.get_double("arrival", 0.0);
  const double service = p.get_double("service", 0.0);
  const double fail = p.get_double("fail", 0.0, 0.0, true);
  const double repair = p.get_double("repair", 0.0, 0.0, true);
  if (arrival <= 0.0 || service <= 0.0) {
    gen_fail("queue needs arrival > 0 and service > 0");
  }
  if (fail > 0.0 && repair <= 0.0) {
    gen_fail("queue needs repair > 0 when fail > 0 (no way back up)");
  }
  // Without breakdowns the up-server count never leaves `servers`, so the
  // reachable space is one band of the (jobs, up) grid.
  const std::int64_t bands = fail > 0.0 ? servers + 1 : 1;
  if (capacity + 1 > kMaxStates / bands) {
    gen_fail("queue would expand beyond the " + print_int(kMaxStates) +
             "-state cap");
  }
  const std::int64_t states = (capacity + 1) * bands;

  const auto jobs_of = [](std::uint64_t s) {
    return static_cast<std::int64_t>(s & 0xffffffffULL);
  };
  const auto up_of = [](std::uint64_t s) {
    return static_cast<std::int64_t>(s >> 32);
  };
  const auto make = [](std::int64_t jobs, std::int64_t up) {
    return static_cast<std::uint64_t>(jobs) |
           (static_cast<std::uint64_t>(up) << 32);
  };

  auto expand = [&](const std::uint64_t& s, const Builder::EmitFn& emit) {
    const std::int64_t jobs = jobs_of(s);
    const std::int64_t up = up_of(s);
    if (jobs < capacity) emit(make(jobs + 1, up), arrival);
    const std::int64_t busy = std::min(jobs, up);
    if (busy > 0) {
      emit(make(jobs - 1, up), static_cast<double>(busy) * service);
    }
    if (fail > 0.0 && up > 0) {
      emit(make(jobs, up - 1), static_cast<double>(up) * fail);
    }
    if (up < servers) {
      emit(make(jobs, up + 1), static_cast<double>(servers - up) * repair);
    }
  };
  auto reward_of = [&](std::uint64_t s) {
    return static_cast<double>(std::min(jobs_of(s), up_of(s))) * service;
  };

  // Initial state: empty queue, all servers up.
  ReserveHint hint;
  hint.states = static_cast<index_t>(states);
  hint.transitions = 4 * states;
  Builder::Result result =
      Builder::explore({make(0, servers)}, expand,
                       static_cast<index_t>(states), hint);
  RRL_ENSURES(static_cast<std::int64_t>(result.states.size()) == states);

  ModelFile file;
  file.chain = std::move(result.chain);
  const std::size_t count = result.states.size();
  file.rewards.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    file.rewards[i] = reward_of(result.states[i]);
  }
  file.initial.assign(count, 0.0);
  file.initial[0] = 1.0;
  file.regenerative = 0;
  return file;
}

}  // namespace

ModelFile generate_model(const std::string& family,
                         const GeneratorParams& params) {
  Params p(family, params);
  const bool lump = p.get_flag("lump", false);

  ModelFile file;
  if (family == "k_of_n") {
    file = build_k_of_n(p);
  } else if (family == "tiered_repair") {
    file = build_tiered_repair(p);
  } else if (family == "queue") {
    file = build_queue(p);
  } else {
    std::string known;
    for (const std::string& f : generator_families()) {
      if (!known.empty()) known += ", ";
      known += f;
    }
    gen_fail("unknown family '" + family + "' (known: " + known + ")");
  }
  p.finish();
  const std::string spec = p.canonical();

  if (lump) {
    LumpResult lumped = lump_model(file);
    file = std::move(lumped.lumped);
  }
  file.spec_key = spec;
  return file;
}

std::vector<std::string> generator_families() {
  return {"k_of_n", "tiered_repair", "queue"};
}

}  // namespace rrl
