// Tests of the plain-text model interchange format.
#include "io/model_format.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <sstream>
#include <string>

#include "models/multiproc.hpp"
#include "models/raid5.hpp"
#include "core/rrl_solver.hpp"
#include "study/model_repository.hpp"
#include "support/contracts.hpp"

namespace rrl {
namespace {

TEST(ModelFormat, ParsesMinimalModel) {
  std::istringstream in(R"(# a two-state availability model
states 2
transition 0 1 0.001
transition 1 0 1.0
reward 1 1.0
)");
  const ModelFile m = read_model(in);
  EXPECT_EQ(m.chain.num_states(), 2);
  EXPECT_EQ(m.chain.num_transitions(), 2);
  EXPECT_DOUBLE_EQ(m.rewards[1], 1.0);
  EXPECT_DOUBLE_EQ(m.initial[0], 1.0);  // default: delta at state 0
  EXPECT_EQ(m.regenerative, -1);
}

TEST(ModelFormat, ParsesFullModel) {
  std::istringstream in(R"(states 3
regenerative 0
initial 0 0.25
initial 1 0.75
reward 2 0.5
transition 0 1 1.0   # inline comment
transition 1 2 2.0
transition 2 0 3.0
)");
  const ModelFile m = read_model(in);
  EXPECT_EQ(m.regenerative, 0);
  EXPECT_DOUBLE_EQ(m.initial[1], 0.75);
  EXPECT_DOUBLE_EQ(m.rewards[2], 0.5);
  EXPECT_DOUBLE_EQ(m.chain.rates().coeff(1, 2), 2.0);
}

TEST(ModelFormat, DuplicateTransitionsAreSummed) {
  std::istringstream in(R"(states 2
transition 0 1 1.0
transition 0 1 0.5
transition 1 0 1.0
)");
  const ModelFile m = read_model(in);
  EXPECT_DOUBLE_EQ(m.chain.rates().coeff(0, 1), 1.5);
}

TEST(ModelFormat, RoundTripPreservesTheModel) {
  Raid5Params p;
  p.groups = 3;
  const Raid5Model original = build_raid5_availability(p);
  std::stringstream buffer;
  write_model(buffer, original.chain, original.failure_rewards(),
              original.initial_distribution(), original.initial_state);
  const ModelFile loaded = read_model(buffer);

  EXPECT_EQ(loaded.chain.num_states(), original.chain.num_states());
  EXPECT_EQ(loaded.chain.num_transitions(),
            original.chain.num_transitions());
  EXPECT_EQ(loaded.regenerative, original.initial_state);
  for (index_t i = 0; i < original.chain.num_states(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.chain.exit_rates()[static_cast<std::size_t>(i)],
                     original.chain.exit_rates()[static_cast<std::size_t>(i)])
        << "state " << i;
  }
  // And the loaded model solves to the same measure.
  RrlOptions opt;
  opt.epsilon = 1e-12;
  const RegenerativeRandomizationLaplace a(
      original.chain, original.failure_rewards(),
      original.initial_distribution(), original.initial_state, opt);
  const RegenerativeRandomizationLaplace b(loaded.chain, loaded.rewards,
                                           loaded.initial,
                                           loaded.regenerative, opt);
  EXPECT_NEAR(a.trr(100.0).value, b.trr(100.0).value, 1e-15);
}

TEST(ModelFormat, FileRoundTrip) {
  const MultiprocModel m = build_multiproc_reliability({});
  const std::string path = "/tmp/rrl_model_roundtrip_test.rrlm";
  write_model_file(path, m.chain, m.failure_rewards(),
                   m.initial_distribution(), m.initial_state);
  const ModelFile loaded = read_model_file(path);
  EXPECT_EQ(loaded.chain.num_states(), m.chain.num_states());
  EXPECT_EQ(loaded.chain.num_transitions(), m.chain.num_transitions());
}

TEST(ModelFormat, ErrorsCarryLineNumbers) {
  const auto expect_error = [](const char* text, const char* fragment) {
    std::istringstream in(text);
    try {
      (void)read_model(in);
      FAIL() << "expected parse failure for: " << text;
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_error("transition 0 1 1.0\n", "'states <N>' must come before");
  expect_error("states 2\nstates 3\n", "duplicate 'states'");
  expect_error("states 0\n", "positive count");
  expect_error("states 2\ntransition 0 5 1.0\n", "bad target state");
  expect_error("states 2\ntransition 0 1 -2\n", "non-negative rate");
  expect_error("states 2\ntransition 1 1 1.0\n", "self-loop");
  expect_error("states 2\nreward 0 -1\n", "non-negative value");
  expect_error("states 2\ninitial 0 1.5\n", "probability in [0, 1]");
  expect_error("states 2\nfrobnicate 1\n", "unknown keyword");
  expect_error("states 2\ntransition 0 1 1\ninitial 0 0.4\n", "sums to");
}

TEST(ModelFormat, StateCountAboveTheCapIsRejected) {
  // One past kMaxStates is refused at its line, before anything is sized
  // from it: a few bytes of `states` would otherwise ask for hundreds of
  // megabytes before the first transition is read.
  for (const std::string& count :
       {std::to_string(kMaxStates + 1), std::string("2000000000")}) {
    std::istringstream in("states " + count + "\ntransition 0 1 1.0\n");
    try {
      (void)read_model(in);
      FAIL() << "accepted states " << count;
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 1: 'states' may not exceed"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(kMaxStates, 10'000'000);
}

// The parsed model as text: the state count, every stored rate, every
// reward and initial entry that is not +0.0, and the regenerative hint.
// %.17g names a double exactly, so equal dumps mean equal bits.
std::string dump(const ModelFile& m) {
  std::string out = "states " + std::to_string(m.chain.num_states());
  const auto add = [&out](const std::string& entry, double v) {
    char value[32];
    std::snprintf(value, sizeof(value), " %.17g", v);
    out += "; " + entry + value;
  };
  const CsrMatrix& r = m.chain.rates();
  for (index_t i = 0; i < m.chain.num_states(); ++i) {
    for (auto k = r.row_ptr()[static_cast<std::size_t>(i)];
         k < r.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      add("transition " + std::to_string(i) + " " +
              std::to_string(r.col_idx()[static_cast<std::size_t>(k)]),
          r.values()[static_cast<std::size_t>(k)]);
    }
  }
  const auto add_entries = [&](const std::string& what,
                               const std::vector<double>& values) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] != 0.0 || std::signbit(values[i])) {
        add(what + " " + std::to_string(i), values[i]);
      }
    }
  };
  add_entries("reward", m.rewards);
  add_entries("initial", m.initial);
  return out + "; regenerative " + std::to_string(m.regenerative);
}

// What the reader makes of `text`: dump() of the model, or the error text.
std::string outcome(const std::string& text) {
  std::istringstream in(text);
  try {
    return dump(read_model(in));
  } catch (const contract_error& e) {
    return std::string("error: ") + e.what();
  }
}

// Syntax corpus. Each row pins what the reader makes of one spelling: the
// parsed values (bit for bit) or the line-numbered error.
TEST(ModelFormat, SyntaxCorpus) {
  struct Row {
    const char* text;
    const char* expected;
  };
  const Row rows[] = {
      // Signs, leading zeros, point and exponent spellings.
      {"states +2\ntransition +0 +1 +1.5\n",
       "states 2; transition 0 1 1.5; initial 0 1; regenerative -1"},
      {"states 2\ntransition 00 01 007.50\n",
       "states 2; transition 0 1 7.5; initial 0 1; regenerative -1"},
      {"states 2\ntransition 0 1 .5\ntransition 1 0 5.\n",
       "states 2; transition 0 1 0.5; transition 1 0 5; initial 0 1; "
       "regenerative -1"},
      {"states 2\ntransition 0 1 1e3\ntransition 1 0 2.5E-2\n",
       "states 2; transition 0 1 1000; transition 1 0 0.025000000000000001; "
       "initial 0 1; regenerative -1"},
      {"states 2\ntransition 0 1 1.e+1\ntransition 1 0 0e5\n",
       "states 2; transition 0 1 10; initial 0 1; regenerative -1"},
      {"states 3\nregenerative +2\ninitial +1 +1.0\nreward 2 -0\n",
       "states 3; reward 2 -0; initial 1 1; regenerative 2"},
      {"states 2\ntransition -0 1 1\n",
       "states 2; transition 0 1 1; initial 0 1; regenerative -1"},
      // Digits past double precision round correctly, and the extremes of
      // the range keep their bits.
      {"states 2\ntransition 0 1 3.14159265358979323846264338327950288\n"
       "transition 1 0 0.10000000000000001\n",
       "states 2; transition 0 1 3.1415926535897931; "
       "transition 1 0 0.10000000000000001; initial 0 1; regenerative -1"},
      {"states 2\ntransition 0 1 4.9406564584124654e-324\n"
       "transition 1 0 1.7976931348623157e308\n",
       "states 2; transition 0 1 4.9406564584124654e-324; "
       "transition 1 0 1.7976931348623157e+308; initial 0 1; "
       "regenerative -1"},
      // Underflow reads as zero (so the transition is dropped).
      {"states 2\ntransition 0 1 1e-400\nreward 1 -1e-400\n",
       "states 2; reward 1 -0; initial 0 1; regenerative -1"},
      // Whitespace is what isspace() says: CRLF line ends, tabs, and a
      // comment may end a line with or without a space before it.
      {"states 2\r\ntransition 0 1 2.5\r\nreward 1 1\r\n",
       "states 2; transition 0 1 2.5; reward 1 1; initial 0 1; "
       "regenerative -1"},
      {"states\t2\n\ttransition\t0\t1\t2.5\t\n\v\f\n",
       "states 2; transition 0 1 2.5; initial 0 1; regenerative -1"},
      {"states 2# two\ntransition 0 1 2.5#rate\nreward 1 1 # up\n",
       "states 2; transition 0 1 2.5; reward 1 1; initial 0 1; "
       "regenerative -1"},
      // No infinity, NaN, bare exponent or overflow.
      {"states 2\ntransition 0 1 inf\n",
       "error: model file, line 2: 'transition' needs a non-negative rate"},
      {"states 2\ntransition 0 1 nan\n",
       "error: model file, line 2: 'transition' needs a non-negative rate"},
      {"states 2\ntransition 0 1 1e\n",
       "error: model file, line 2: 'transition' needs a non-negative rate"},
      {"states 2\ntransition 0 1 1e400\n",
       "error: model file, line 2: 'transition' needs a non-negative rate"},
      {"states 2\nreward 1 1e400\n",
       "error: model file, line 2: 'reward' needs a non-negative value"},
      {"states 2\ninitial 0 nan\n",
       "error: model file, line 2: 'initial' needs a probability in [0, 1]"},
      {"states 2\ntransition 0 +-1 1\n",
       "error: model file, line 2: bad target state index"},
      {"states 99999999999999999999\n",
       "error: model file, line 1: 'states' needs a positive count"},
      // Malformed: a field must end at whitespace, '#' or the end of the
      // line, an integer must fit, and a line carries no extra fields.
      {"states 2\ntransition 0 1.5 2\n",
       "error: model file, line 2: bad target state index"},
      {"states 2\ntransition 0 1 0x1p3\n",
       "error: model file, line 2: 'transition' needs a non-negative rate"},
      {"states 2\ntransition 0 1 2.5abc\n",
       "error: model file, line 2: 'transition' needs a non-negative rate"},
      {"states 2 extra\n",
       "error: model file, line 1: unexpected 'extra' after the 'states' "
       "fields"},
      {"states 4294967297\n",
       "error: model file, line 1: 'states' needs a positive count"},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(outcome(row.text), row.expected) << "input: " << row.text;
  }
}

// write_model then read_model gives the model back bit for bit: rates,
// rewards, initial vector and regenerative state, so hash_model agrees.
void expect_round_trip(const ModelFile& original, const std::string& name) {
  std::stringstream buffer;
  write_model(buffer, original.chain, original.rewards, original.initial,
              original.regenerative);
  const ModelFile loaded = read_model(buffer);
  EXPECT_TRUE(dump(loaded) == dump(original)) << name;
  EXPECT_EQ(hash_model(loaded), hash_model(original)) << name;
}

ModelFile model_file(const Raid5Model& m) {
  ModelFile f;
  f.chain = m.chain;
  f.rewards = m.failure_rewards();
  f.initial = m.initial_distribution();
  f.regenerative = m.initial_state;
  return f;
}

TEST(ModelFormat, PaperModelsRoundTripBitForBit) {
  for (const int groups : {20, 40}) {
    Raid5Params p;  // the paper's rates
    p.groups = groups;
    const std::string g = "G=" + std::to_string(groups);
    expect_round_trip(model_file(build_raid5_availability(p)), g + " UA");
    expect_round_trip(model_file(build_raid5_reliability(p)), g + " UR");
  }
}

// Seeded random chains whose rates, rewards and initial entries reach the
// ends of the double range: subnormals, 1e+-300 and 17-digit mantissas.
TEST(ModelFormat, ExtremeValuesRoundTripBitForBit) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    const auto mantissa = [&] {
      return std::uniform_real_distribution<double>(1.0, 10.0)(rng);
    };
    const auto extreme = [&] {
      switch (rng() % 4) {
        case 0:  // subnormal: a zero exponent field under a random fraction
          return std::bit_cast<double>(1 + rng() % ((std::uint64_t{1} << 52) -
                                                    1));
        case 1:
          return mantissa() * 1e300;
        case 2:
          return mantissa() * 1e-300;
        default:
          return mantissa();
      }
    };
    const index_t n = 40;
    std::vector<Triplet> rates;
    ModelFile original;
    original.rewards.assign(static_cast<std::size_t>(n), 0.0);
    for (index_t i = 0; i < n; ++i) {
      for (int k = 0; k < 3; ++k) {
        const auto j = static_cast<index_t>(
            (i + 1 + static_cast<index_t>(rng() % (n - 1))) % n);
        rates.push_back({i, j, extreme()});
      }
      if (rng() % 2 == 0) {
        original.rewards[static_cast<std::size_t>(i)] = extreme();
      }
    }
    original.chain = Ctmc::from_transitions(n, std::move(rates));
    original.initial.assign(static_cast<std::size_t>(n), 0.0);
    const double a = mantissa() / 10.0;
    const double b = std::bit_cast<double>(std::uint64_t{1} + rng() % 4096);
    const auto first = static_cast<std::size_t>(rng() % (n - 2));
    original.initial[first] = a;
    original.initial[first + 1] = b;
    original.initial[first + 2] = 1.0 - a;
    original.regenerative = static_cast<index_t>(rng() % n);
    expect_round_trip(original, "seed " + std::to_string(seed));
  }
}

TEST(ModelFormat, MissingStatesLine) {
  std::istringstream in("# only comments\n");
  EXPECT_THROW((void)read_model(in), contract_error);
}

TEST(ModelFormat, MissingFileThrows) {
  EXPECT_THROW((void)read_model_file("/nonexistent/path/model.rrlm"),
               contract_error);
}

}  // namespace
}  // namespace rrl
