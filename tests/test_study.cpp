// Study subsystem: (1) .study parsing — axes, defaults, base-dir
// resolution, line-numbered errors; (2) content-addressed model interning;
// (3) solver-cache hit/miss accounting and regenerative-hint key
// resolution; (4) the schema memo inside RR/RRL; (5) cached-solver batch
// results bit-identical to fresh-solver results across all five solvers
// and both measures; (6) deterministic round-robin sharding whose merged
// 3/3-shard report reproduces the unsharded report byte-for-byte,
// including CSV-escaped error rows; (7) merge validation (overlap, gaps,
// size mismatch); (8) a solver whose construction fails is built once per
// cache key.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "counter_delta.hpp"
#include "models/multiproc.hpp"
#include "models/raid5.hpp"
#include "rrl.hpp"
#include "support/metrics.hpp"

namespace rrl {
namespace {

ModelFile multiproc_file() {
  const MultiprocModel m = build_multiproc_availability({});
  ModelFile f;
  f.chain = m.chain;
  f.rewards = m.failure_rewards();
  f.initial = m.initial_distribution();
  f.regenerative = m.initial_state;
  return f;
}

ModelFile raid_file(int groups = 10) {
  Raid5Params p;
  p.groups = groups;
  const Raid5Model m = build_raid5_availability(p);
  ModelFile f;
  f.chain = m.chain;
  f.rewards = m.failure_rewards();
  f.initial = m.initial_distribution();
  f.regenerative = m.initial_state;
  return f;
}

ModelFile absorbing_file() {
  const MultiprocModel m = build_multiproc_reliability({});
  ModelFile f;
  f.chain = m.chain;
  f.rewards = m.failure_rewards();
  f.initial = m.initial_distribution();
  f.regenerative = m.initial_state;
  return f;
}

// Serialize a model into the test's working directory and return the path.
std::string write_temp_model(const std::string& name, const ModelFile& f) {
  const std::string path = "test_study_" + name + ".rrlm";
  write_model_file(path, f.chain, f.rewards, f.initial, f.regenerative);
  return path;
}

TEST(StudyFormat, ParsesAxesAndDefaults) {
  std::istringstream in(
      "# a comment\n"
      "model a.rrlm   # trailing comment\n"
      "model sub/b.rrlm\n"
      "solvers rr rrl\n"
      "measures both\n"
      "epsilons 1e-8 1e-10\n"
      "grid 1:1e3:4\n"
      "times 5 50\n"
      "regenerative auto\n"
      "jobs 3\n");
  const StudySpec spec = read_study(in, "/base");
  ASSERT_EQ(spec.models.size(), 2u);
  EXPECT_EQ(spec.models[0], "/base/a.rrlm");
  EXPECT_EQ(spec.models[1], "/base/sub/b.rrlm");
  EXPECT_EQ(spec.model_labels[0], "a.rrlm");
  ASSERT_EQ(spec.solvers.size(), 2u);
  EXPECT_EQ(spec.solvers[0], "rr");
  ASSERT_EQ(spec.measures.size(), 2u);
  EXPECT_EQ(spec.measures[0], MeasureKind::kTrr);
  EXPECT_EQ(spec.measures[1], MeasureKind::kMrr);
  ASSERT_EQ(spec.epsilons.size(), 2u);
  EXPECT_EQ(spec.epsilons[1], 1e-10);
  ASSERT_EQ(spec.grids.size(), 2u);
  EXPECT_EQ(spec.grids[0].size(), 4u);
  EXPECT_EQ(spec.grids[0].front(), 1.0);
  EXPECT_EQ(spec.grids[0].back(), 1e3);
  EXPECT_EQ(spec.grids[1], (std::vector<double>{5.0, 50.0}));
  EXPECT_EQ(spec.regenerative, -1);
  EXPECT_EQ(spec.jobs, 3);
  EXPECT_EQ(spec.scenario_count(2), 2u * 2u * 2u * 2u * 2u);

  std::istringstream defaults("model a.rrlm\ntimes 1\n");
  const StudySpec d = read_study(defaults);
  EXPECT_TRUE(d.solvers.empty());  // "all": resolved at run time
  EXPECT_EQ(d.measures, (std::vector<MeasureKind>{MeasureKind::kTrr}));
  EXPECT_EQ(d.epsilons, (std::vector<double>{1e-12}));
  EXPECT_EQ(d.regenerative, kRegenerativeFromModel);
  EXPECT_EQ(d.jobs, 1);
  EXPECT_EQ(d.models[0], "a.rrlm");  // empty base dir: path unchanged
}

TEST(StudyFormat, RejectsMalformedInput) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return read_study(in);
  };
  EXPECT_THROW(parse("frobnicate 1\n"), contract_error);
  EXPECT_THROW(parse("model a\ngrid 5:1:3\n"), contract_error);   // hi < lo
  EXPECT_THROW(parse("model a\ngrid 1:10:2.5\n"), contract_error);
  EXPECT_THROW(parse("model a\nepsilons -1\ntimes 1\n"), contract_error);
  EXPECT_THROW(parse("model a\nmeasures sometimes\ntimes 1\n"),
               contract_error);
  EXPECT_THROW(parse("times 1\n"), contract_error);  // no model
  EXPECT_THROW(parse("model a\n"), contract_error);  // no grid
  EXPECT_THROW(parse("model a b\ntimes 1\n"), contract_error);
  // Trailing tokens on single-operand keywords fail loudly instead of
  // silently shrinking the expansion.
  EXPECT_THROW(parse("model a\ngrid 1:10:2 1:100:3\n"), contract_error);
  EXPECT_THROW(parse("model a\ntimes 1\njobs 2 3\n"), contract_error);
  EXPECT_THROW(parse("model a\ntimes 1\nregenerative auto 4\n"),
               contract_error);
  try {
    parse("model a.rrlm\nbogus 1\n");
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(StudyFormat, JobsAboveTheCapIsRejected) {
  // Refused at parse time, before any ThreadPool starts its threads.
  const auto parse = [](int jobs) {
    std::istringstream in("model a\ntimes 1\njobs " + std::to_string(jobs) +
                          "\n");
    return read_study(in);
  };
  EXPECT_EQ(parse(kMaxJobs).jobs, kMaxJobs);
  for (const int jobs : {kMaxJobs + 1, 100000}) {
    try {
      (void)parse(jobs);
      FAIL() << "accepted jobs " << jobs;
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find("'jobs' may not exceed 1024"),
                std::string::npos)
          << e.what();
    }
  }
}

// What read_study makes of `text`: its axes as text, every double as
// %.17g (which names it exactly), or the error text.
std::string study_outcome(const std::string& text) {
  std::istringstream in(text);
  try {
    const StudySpec spec = read_study(in);
    std::string out = "models";
    for (const std::string& model : spec.models) out += " " + model;
    out += "; solvers";
    for (const std::string& solver : spec.solvers) out += " " + solver;
    out += "; measures";
    for (const MeasureKind m : spec.measures) {
      out += m == MeasureKind::kTrr ? " trr" : " mrr";
    }
    char value[32];
    const auto add = [&](double v) {
      std::snprintf(value, sizeof(value), " %.17g", v);
      out += value;
    };
    out += "; epsilons";
    for (const double eps : spec.epsilons) add(eps);
    for (const std::vector<double>& grid : spec.grids) {
      out += "; grid";
      for (const double t : grid) add(t);
    }
    return out + "; regenerative " + std::to_string(spec.regenerative) +
           "; jobs " + std::to_string(spec.jobs);
  } catch (const contract_error& e) {
    return std::string("error: ") + e.what();
  }
}

// Syntax corpus. Each row pins what the reader makes of one spelling: the
// parsed axes (bit for bit) or the line-numbered error.
TEST(StudyFormat, SyntaxCorpus) {
  struct Row {
    const char* text;
    const char* expected;
  };
  const Row rows[] = {
      // Signs, leading zeros, point and exponent spellings.
      {"model a\nepsilons +1e-8 +.5 5.\ntimes +5 .5 007 1E2 2.5e+1\n"
       "jobs +3\nregenerative +2\n",
       "models a; solvers; measures trr; epsilons 1e-08 0.5 5; "
       "grid 5 0.5 7 100 25; regenerative 2; jobs 3"},
      {"model a\ngrid +1:+1e2:+3\ngrid 1.:1.e1:2e0\n",
       "models a; solvers; measures trr; epsilons 9.9999999999999998e-13; "
       "grid 1 10.000000000000002 100; grid 1 10; regenerative -2; jobs 1"},
      {"model a\ntimes 4.9406564584124654e-324 1.7976931348623157e308 "
       "0.10000000000000001 3.14159265358979323846264338327950288\n",
       "models a; solvers; measures trr; epsilons 9.9999999999999998e-13; "
       "grid 4.9406564584124654e-324 1.7976931348623157e+308 "
       "0.10000000000000001 3.1415926535897931; regenerative -2; jobs 1"},
      // Whitespace is what isspace() says: CRLF line ends, tabs, and a
      // comment may end a line with or without a space before it.
      {"model a.rrlm\r\nsolvers rr rrl\r\nmeasures both\r\n"
       "epsilons 1e-8\r\ngrid 1:10:2\r\nregenerative auto\r\njobs 2\r\n",
       "models a.rrlm; solvers rr rrl; measures trr mrr; epsilons 1e-08; "
       "grid 1 10; regenerative -1; jobs 2"},
      {"model\ta.rrlm\t\n\tsolvers\trr\nmeasures\ttrr\tmrr\n"
       "times\t5\t50\t\n\v\f\n",
       "models a.rrlm; solvers rr; measures trr mrr; "
       "epsilons 9.9999999999999998e-13; grid 5 50; regenerative -2; jobs 1"},
      {"model a.rrlm# m\ntimes 5 50#t\njobs 2 # j\ngrid 1:10:2#g\n"
       "regenerative 3#r\n",
       "models a.rrlm; solvers; measures trr; "
       "epsilons 9.9999999999999998e-13; grid 5 50; grid 1 10; "
       "regenerative 3; jobs 2"},
      // Underflow reads as zero, which no axis takes.
      {"model a\nepsilons 1e-400\ntimes 1\n",
       "error: study file, line 2: epsilons must be positive"},
      {"model a\ntimes 1e-400\n",
       "error: study file, line 2: times must be positive"},
      // No infinity, NaN, bare exponent or overflow.
      {"model a\nepsilons inf\ntimes 1\n",
       "error: study file, line 2: malformed epsilon value"},
      {"model a\ntimes nan\n",
       "error: study file, line 2: malformed time value"},
      {"model a\nepsilons 1e\ntimes 1\n",
       "error: study file, line 2: malformed epsilon value"},
      {"model a\ntimes 1e400\n",
       "error: study file, line 2: malformed time value"},
      {"model a\ngrid 1:1e400:3\n",
       "error: study file, line 2: 'grid' expects lo:hi:count with 0 < lo "
       "<= hi and an integer 1 <= count <= 100000"},
      {"model a\ngrid 1:10:1e\n",
       "error: study file, line 2: 'grid' expects lo:hi:count with 0 < lo "
       "<= hi and an integer 1 <= count <= 100000"},
      {"model a\ntimes 1\nregenerative inf\n",
       "error: study file, line 3: 'regenerative' needs auto or a "
       "non-negative index"},
      {"model a\ntimes 1\nregenerative 1.5\n",
       "error: study file, line 3: 'regenerative' needs auto or a "
       "non-negative index"},
      // Malformed: a field must end at whitespace, '#' or the end of the
      // line, and an integer must fit.
      {"model a\nepsilons 1e-8 1e400\ntimes 1\n",
       "error: study file, line 2: malformed epsilon value"},
      {"model a\ntimes 5 1e\n",
       "error: study file, line 2: malformed time value"},
      {"model a\ntimes 1\njobs 2x\n",
       "error: study file, line 3: 'jobs' needs a positive count"},
      {"model a\ntimes 1\njobs 2.5\n",
       "error: study file, line 3: 'jobs' needs a positive count"},
      {"model a\ntimes 1\njobs 4294967298\n",
       "error: study file, line 3: 'jobs' needs a positive count"},
      {"model a\ntimes 1\nregenerative 4294967294\n",
       "error: study file, line 3: 'regenerative' needs auto or a "
       "non-negative index"},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(study_outcome(row.text), row.expected) << "input: " << row.text;
  }
}

TEST(ModelRepository, InternsByContent) {
  ModelRepository repo;
  const auto a = repo.adopt("multiproc", multiproc_file());
  const auto b = repo.adopt("same-content", multiproc_file());
  EXPECT_EQ(a.get(), b.get());  // identical contents intern to one model
  EXPECT_EQ(repo.size(), 1u);
  EXPECT_EQ(a->label, "multiproc");  // first label wins

  ModelFile tweaked = multiproc_file();
  tweaked.rewards[0] += 1.0;
  const auto c = repo.adopt("tweaked", std::move(tweaked));
  EXPECT_NE(c.get(), a.get());
  EXPECT_NE(c->hash, a->hash);
  EXPECT_EQ(repo.size(), 2u);

  // Loading the same path twice parses once and returns the same instance;
  // a second path with identical contents interns to it as well.
  const std::string path = write_temp_model("repo_a", multiproc_file());
  const std::string copy = write_temp_model("repo_b", multiproc_file());
  const auto l1 = repo.load(path);
  const auto l2 = repo.load(path);
  const auto l3 = repo.load(copy);
  EXPECT_EQ(l1.get(), l2.get());
  EXPECT_EQ(l1.get(), l3.get());
  EXPECT_EQ(l1.get(), a.get());  // same content as the adopted generator
  std::remove(path.c_str());
  std::remove(copy.c_str());
}

TEST(SolverCache, HitMissAccountingAndKeyResolution) {
  ModelRepository repo;
  const auto multi = repo.adopt("multiproc", multiproc_file());
  const auto raid = repo.adopt("raid", raid_file());

  const CounterDelta misses("rrl_cache_memory_misses_total");
  const CounterDelta hits("rrl_cache_memory_hits_total");
  SolverCache cache;
  SolverConfig config;
  config.epsilon = 1e-10;
  std::vector<std::shared_ptr<const TransientSolver>> first;
  for (const auto& model : {multi, raid}) {
    for (const std::string name : {"sr", "rsd", "rr", "rrl"}) {
      first.push_back(cache.get_or_build(model, name, config));
    }
  }
  EXPECT_EQ(misses(), 8u);
  EXPECT_EQ(hits(), 0u);
  EXPECT_EQ(cache.size(), 8u);

  std::size_t i = 0;
  for (const auto& model : {multi, raid}) {
    for (const std::string name : {"sr", "rsd", "rr", "rrl"}) {
      EXPECT_EQ(cache.get_or_build(model, name, config).get(),
                first[i++].get());
    }
  }
  EXPECT_EQ(misses(), 8u);
  EXPECT_EQ(hits(), 8u);

  // The config keys exactly as given: auto (-1, the default above) and an
  // explicit regenerative index are distinct entries — auto must construct
  // through the registry's own selection, identically to the uncached
  // path — and each shares with itself.
  SolverConfig hinted = config;
  hinted.regenerative = multi->file.regenerative;
  const auto hinted_solver = cache.get_or_build(multi, "rrl", hinted);
  EXPECT_NE(hinted_solver.get(), first[3].get());
  EXPECT_EQ(cache.get_or_build(multi, "rrl", hinted).get(),
            hinted_solver.get());
  EXPECT_EQ(cache.get_or_build(multi, "rrl", config).get(), first[3].get());
  // A different construction epsilon is a different solver too.
  SolverConfig other_eps = config;
  other_eps.epsilon = 1e-8;
  EXPECT_NE(cache.get_or_build(multi, "rrl", other_eps).get(),
            first[3].get());
  EXPECT_EQ(cache.size(), 10u);
}

TEST(SchemaCache, MemoizesPerHorizonAndEpsilon) {
  const ModelFile f = multiproc_file();
  RrlOptions opt;
  opt.epsilon = 1e-10;
  const RegenerativeRandomizationLaplace solver(f.chain, f.rewards,
                                                f.initial, f.regenerative,
                                                opt);
  const auto counter = [](const char* name) {
    return metrics::counter(name).value();
  };
  const std::uint64_t builds = counter("rrl_cache_schema_builds_total");
  const std::uint64_t hits = counter("rrl_cache_schema_hits_total");
  const SolveRequest trr = SolveRequest::trr({10.0, 100.0});
  const SolveReport a = solver.solve_grid(trr);
  EXPECT_EQ(counter("rrl_cache_schema_builds_total"), builds + 1);
  EXPECT_EQ(counter("rrl_cache_schema_hits_total"), hits);

  // Same horizon: the other measure and a grid sharing t_max both hit.
  const SolveReport b = solver.solve_grid(SolveRequest::mrr({100.0}));
  const SolveReport c = solver.solve_grid(SolveRequest::trr({5.0, 100.0}));
  EXPECT_EQ(counter("rrl_cache_schema_builds_total"), builds + 1);
  EXPECT_EQ(counter("rrl_cache_schema_hits_total"), hits + 2);

  // A different epsilon or horizon compiles a new artifact.
  (void)solver.solve_grid(SolveRequest::trr({100.0}, 1e-6));
  (void)solver.solve_grid(SolveRequest::trr({200.0}));
  EXPECT_EQ(counter("rrl_cache_schema_builds_total"), builds + 3);

  // Memoized answers are bit-identical to a fresh solver's.
  const RegenerativeRandomizationLaplace fresh(f.chain, f.rewards, f.initial,
                                               f.regenerative, opt);
  EXPECT_EQ(a.values(), fresh.solve_grid(trr).values());
  EXPECT_EQ(b.values(),
            fresh.solve_grid(SolveRequest::mrr({100.0})).values());
  EXPECT_EQ(c.values(),
            fresh.solve_grid(SolveRequest::trr({5.0, 100.0})).values());
}

// The study used by the end-to-end tests: 3 models (one absorbing, so rsd
// scenarios fail and exercise the error rows) x all five solvers x both
// measures x 2 epsilons x 2 grids = 120 scenarios.
StudySpec end_to_end_spec(const std::string& multi_path,
                          const std::string& raid_path,
                          const std::string& absorbing_path) {
  std::istringstream in(
      "model " + multi_path + "\n" +
      "model " + raid_path + "\n" +
      "model " + absorbing_path + "\n" +
      "solvers all\n"
      "measures both\n"
      "epsilons 1e-8 1e-10\n"
      "grid 1:100:3\n"
      "times 7 70\n"
      "jobs 4\n");
  return read_study(in);
}

TEST(StudyRunner, CachedBitIdenticalToFreshAcrossSolversAndMeasures) {
  const std::string multi_path = write_temp_model("multi", multiproc_file());
  const std::string raid_path = write_temp_model("raid", raid_file());
  const std::string abs_path = write_temp_model("abs", absorbing_file());
  const StudySpec spec = end_to_end_spec(multi_path, raid_path, abs_path);

  ModelRepository repo;
  SolverCache cache;
  StudyOptions cached_options;
  const CounterDelta compiles("rrl_solver_compiles_total");
  CounterDelta hits("rrl_cache_memory_hits_total");
  const CounterDelta cached_misses("rrl_cache_memory_misses_total");
  const StudyRun cached = run_study(spec, repo, cache, cached_options);
  const std::uint64_t cached_compiles = compiles();
  const std::uint64_t cached_hits = hits();
  const std::uint64_t cached_miss_count = cached_misses();

  StudyOptions fresh_options;
  fresh_options.use_cache = false;
  SolverCache unused;
  const CounterDelta misses("rrl_cache_memory_misses_total");
  hits = CounterDelta("rrl_cache_memory_hits_total");
  const StudyRun fresh = run_study(spec, repo, unused, fresh_options);

  ASSERT_EQ(cached.total_scenarios, 120u);
  ASSERT_EQ(cached.scenarios.size(), 120u);
  ASSERT_EQ(fresh.scenarios.size(), 120u);
  // rsd on the absorbing model fails per scenario: 2 measures x 2 eps x 2
  // grids = 8 failures, identically in both modes.
  EXPECT_EQ(cached.sweep.failed(), 8u);
  EXPECT_EQ(fresh.sweep.failed(), 8u);

  for (std::size_t s = 0; s < cached.scenarios.size(); ++s) {
    const ScenarioResult& a = cached.sweep.results[s];
    const ScenarioResult& b = fresh.sweep.results[s];
    ASSERT_EQ(a.ok(), b.ok()) << "scenario " << s;
    if (!a.ok()) {
      EXPECT_EQ(a.error, b.error);
      continue;
    }
    ASSERT_EQ(a.report.points.size(), b.report.points.size());
    for (std::size_t p = 0; p < a.report.points.size(); ++p) {
      // Bit-identical, not merely close: the cache contract.
      EXPECT_EQ(a.report.points[p].value, b.report.points[p].value)
          << cached.scenarios[s].model << "/" << cached.scenarios[s].solver
          << " scenario " << s << " point " << p;
      EXPECT_EQ(a.report.points[p].stats.dtmc_steps,
                b.report.points[p].stats.dtmc_steps);
    }
  }

  // Accounting: one compiled solver per (model, solver) — rsd on the
  // absorbing model never constructs — and every other scenario shares.
  // 3 models x 5 solvers - 1 failing combination = 14 compiled; of the 112
  // successful-construction scenarios (14 keys x 8 scenarios each), the
  // rest were cache hits. The failing key misses once: its other 7
  // scenarios read the recorded failure. The fresh run must not have
  // touched the cache.
  EXPECT_EQ(cached_compiles, 14u);
  EXPECT_EQ(cached_hits, 98u);
  EXPECT_EQ(cached_miss_count, 15u);
  EXPECT_EQ(hits() + misses(), 0u);

  // With 'regenerative auto' the cache keys auto as auto (the registry's
  // own deterministic selection), so cached results still match fresh
  // per-scenario construction bit-for-bit.
  std::istringstream auto_in("model " + multi_path + "\nmodel " + raid_path +
                             "\nsolvers rr rrl\nmeasures both\n"
                             "grid 1:50:2\nregenerative auto\n");
  const StudySpec auto_spec = read_study(auto_in);
  const StudyRun auto_cached = run_study(auto_spec, repo, cache);
  const StudyRun auto_fresh = run_study(auto_spec, repo, unused,
                                        fresh_options);
  ASSERT_EQ(auto_cached.scenarios.size(), 8u);
  EXPECT_EQ(auto_cached.sweep.failed(), 0u);
  for (std::size_t s = 0; s < auto_cached.scenarios.size(); ++s) {
    EXPECT_EQ(auto_cached.sweep.results[s].report.values(),
              auto_fresh.sweep.results[s].report.values())
        << "auto scenario " << s;
  }

  std::remove(multi_path.c_str());
  std::remove(raid_path.c_str());
  std::remove(abs_path.c_str());
}

TEST(StudyRunner, ShardsPartitionDeterministicallyAndMergeByteIdentical) {
  const std::string multi_path = write_temp_model("multi2", multiproc_file());
  const std::string raid_path = write_temp_model("raid2", raid_file());
  const std::string abs_path = write_temp_model("abs2", absorbing_file());
  const StudySpec spec = end_to_end_spec(multi_path, raid_path, abs_path);

  ModelRepository repo;
  SolverCache cache;
  const StudyRun whole = run_study(spec, repo, cache);
  std::ostringstream unsharded;
  write_report_csv(unsharded, whole.total_scenarios, whole.rows());

  std::vector<std::vector<ReportRow>> shard_rows;
  std::vector<std::uint64_t> shard_totals;
  std::vector<std::uint64_t> seen_indices;
  for (int k = 1; k <= 3; ++k) {
    StudyOptions options;
    options.shard = ShardSpec{k, 3};
    const StudyRun shard = run_study(spec, repo, cache, options);
    EXPECT_EQ(shard.total_scenarios, whole.total_scenarios);
    EXPECT_EQ(shard.scenarios.size(), whole.total_scenarios / 3);
    for (const StudyScenario& s : shard.scenarios) {
      // Round-robin: shard k of N owns index % N == k-1.
      EXPECT_EQ(s.index % 3, static_cast<std::uint64_t>(k - 1));
      seen_indices.push_back(s.index);
    }
    shard_rows.push_back(shard.rows());
    shard_totals.push_back(shard.total_scenarios);

    // Shard reports round-trip through CSV parsing losslessly (including
    // the quoted rsd error rows).
    std::ostringstream csv;
    write_report_csv(csv, shard.total_scenarios, shard_rows.back());
    std::istringstream parse_back(csv.str());
    std::uint64_t parsed_total = 0;
    const std::vector<ReportRow> parsed =
        read_report_csv(parse_back, parsed_total);
    EXPECT_EQ(parsed_total, shard.total_scenarios);
    std::ostringstream rewritten;
    write_report_csv(rewritten, parsed_total, parsed);
    EXPECT_EQ(rewritten.str(), csv.str());
  }

  // The three shards tile 0..95 exactly.
  std::sort(seen_indices.begin(), seen_indices.end());
  ASSERT_EQ(seen_indices.size(), whole.total_scenarios);
  for (std::uint64_t i = 0; i < seen_indices.size(); ++i) {
    EXPECT_EQ(seen_indices[i], i);
  }

  // Merging the shards reproduces the unsharded report byte-for-byte.
  std::uint64_t merged_total = 0;
  const std::vector<ReportRow> merged =
      merge_report_rows(shard_rows, shard_totals, merged_total);
  std::ostringstream merged_csv;
  write_report_csv(merged_csv, merged_total, merged);
  EXPECT_EQ(merged_csv.str(), unsharded.str());

  std::remove(multi_path.c_str());
  std::remove(raid_path.c_str());
  std::remove(abs_path.c_str());
}

// GCC 12 misdiagnoses the inlined short-string-literal assignments below
// as overlapping memcpy (-Wrestrict false positive, GCC PR105329); the
// code is plain member assignment of distinct objects.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif
TEST(StudyReport, MergeValidatesCoverage) {
  const auto row = [](std::uint64_t scenario, std::uint64_t point) {
    ReportRow r;
    r.scenario = scenario;
    r.point = point;
    r.model = "m";
    r.solver = "rrl";
    r.measure = "trr";
    return r;
  };
  std::uint64_t total = 0;

  // Overlapping shards: duplicate (scenario, point).
  EXPECT_THROW(merge_report_rows({{row(0, 0)}, {row(0, 0)}}, {2, 2}, total),
               contract_error);
  // Gap: scenario 1 of 3 missing.
  EXPECT_THROW(merge_report_rows({{row(0, 0)}, {row(2, 0)}}, {3, 3}, total),
               contract_error);
  // Shards from different studies.
  EXPECT_THROW(merge_report_rows({{row(0, 0)}, {row(1, 0)}}, {2, 3}, total),
               contract_error);
  // Row outside the study.
  EXPECT_THROW(merge_report_rows({{row(0, 0), row(5, 0)}}, {1}, total),
               contract_error);
  // A valid 2-shard merge sorts by (scenario, point).
  const std::vector<ReportRow> merged = merge_report_rows(
      {{row(1, 0), row(1, 1)}, {row(0, 0)}}, {2, 2}, total);
  EXPECT_EQ(total, 2u);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].scenario, 0u);
  EXPECT_EQ(merged[2].point, 1u);
}
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#pragma GCC diagnostic pop
#endif

TEST(StudyReport, CsvEscapesSeparatorsAndQuotes) {
  ReportRow bad;
  bad.scenario = 0;
  bad.model = "model, with \"quotes\"\nand newline";
  bad.solver = "rsd";
  bad.measure = "trr";
  bad.epsilon = 1e-8;
  bad.error = "failed: expected a, got b";
  std::ostringstream out;
  write_report_csv(out, 1, {bad});
  std::istringstream in(out.str());
  std::uint64_t total = 0;
  const std::vector<ReportRow> parsed = read_report_csv(in, total);
  ASSERT_EQ(parsed.size(), 1u);
  // Newlines flatten to spaces (the reader is line-oriented); everything
  // else round-trips exactly.
  EXPECT_EQ(parsed[0].model, "model, with \"quotes\" and newline");
  EXPECT_EQ(parsed[0].error, "failed: expected a, got b");
  EXPECT_TRUE(parsed[0].failed());
  EXPECT_EQ(total, 1u);
}

// Keep this test last in the file: it registers a solver, and the tests
// above expand 'solvers all' over the five built-in ones.
TEST(StudyRunner, FailingSolverIsBuiltOncePerKey) {
  static std::atomic<int> constructions{0};
  register_solver("rsd-counted",
                  [](const Ctmc& chain, std::vector<double> rewards,
                     std::vector<double> initial,
                     const SolverConfig& config) {
                    constructions.fetch_add(1);
                    return make_solver("rsd", chain, std::move(rewards),
                                       std::move(initial), config);
                  });
  const std::string abs_path = write_temp_model("abs3", absorbing_file());
  // One absorbing model x rsd x both measures x 2 epsilons x 2 grids: 8
  // scenarios on one cache key, every one failing its construction.
  std::istringstream in("model " + abs_path +
                        "\nsolvers rsd-counted\nmeasures both\n"
                        "epsilons 1e-8 1e-10\ngrid 1:100:3\ntimes 7 70\n"
                        "jobs 4\n");
  const StudySpec spec = read_study(in);
  const auto csv = [](const StudyRun& run) {
    std::ostringstream out;
    write_report_csv(out, run.total_scenarios, run.rows());
    return out.str();
  };

  ModelRepository repo;
  SolverCache cache;
  constructions = 0;
  CounterDelta failed("rrl_scenarios_failed_total");
  CounterDelta misses("rrl_cache_memory_misses_total");
  const CounterDelta hits("rrl_cache_memory_hits_total");
  const StudyRun cached = run_study(spec, repo, cache);
  ASSERT_EQ(cached.scenarios.size(), 8u);
  EXPECT_EQ(constructions.load(), 1);
  EXPECT_EQ(cached.sweep.failed(), 8u);
  EXPECT_EQ(failed(), 8u);
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(hits(), 0u);
  for (const CacheTier tier : cached.tiers) EXPECT_EQ(tier, CacheTier::kNone);

  // A second study through the same cache reads the recorded failure.
  constructions = 0;
  misses = CounterDelta("rrl_cache_memory_misses_total");
  const StudyRun again = run_study(spec, repo, cache);
  EXPECT_EQ(constructions.load(), 0);
  EXPECT_EQ(misses(), 0u);
  EXPECT_EQ(csv(again), csv(cached));

  // A fresh solver per scenario: one construction each, the same rows.
  StudyOptions fresh_options;
  fresh_options.use_cache = false;
  constructions = 0;
  failed = CounterDelta("rrl_scenarios_failed_total");
  const StudyRun fresh = run_study(spec, repo, cache, fresh_options);
  EXPECT_EQ(constructions.load(), 8);
  EXPECT_EQ(failed(), 8u);
  EXPECT_EQ(csv(fresh), csv(cached));
  EXPECT_NE(csv(cached).find("rsd-counted"), std::string::npos);

  std::remove(abs_path.c_str());
}

}  // namespace
}  // namespace rrl
