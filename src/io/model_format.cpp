#include "io/model_format.hpp"

#include <cmath>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>

#include "io/field_scanner.hpp"
#include "markov/generator.hpp"
#include "support/contracts.hpp"

namespace rrl {

namespace {

[[noreturn]] void parse_fail(int line, const std::string& message) {
  throw contract_error("model file, line " + std::to_string(line) + ": " +
                       message);
}

}  // namespace

ModelFile read_model(std::istream& in) {
  ModelFile model;
  index_t num_states = -1;
  std::vector<Triplet> transitions;
  std::vector<std::pair<index_t, double>> rewards;
  std::vector<std::pair<index_t, double>> initial;
  bool has_initial = false;
  bool has_explicit = false;  // any states/transition/... line seen
  std::string generator_family;
  GeneratorParams generator_params;

  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    FieldScanner line(raw);
    std::string_view keyword;
    if (!line.next(keyword)) continue;  // blank / comment-only line

    if (keyword == "generator") {
      if (!generator_family.empty()) {
        parse_fail(line_no, "duplicate 'generator' line");
      }
      if (has_explicit) {
        parse_fail(line_no,
                   "'generator' cannot be mixed with explicit model lines");
      }
      std::string_view family;
      if (!line.next(family)) {
        parse_fail(line_no, "'generator' needs a family name");
      }
      generator_family = family;
      for (std::string_view token; line.next(token);) {
        const auto eq = token.find('=');
        if (eq == std::string_view::npos || eq == 0 ||
            eq + 1 == token.size() ||
            token.find('=', eq + 1) != std::string_view::npos) {
          parse_fail(line_no, "generator parameters must be key=value, got '" +
                                  std::string(token) + "'");
        }
        generator_params.emplace_back(token.substr(0, eq),
                                      token.substr(eq + 1));
      }
      continue;
    }
    if (!generator_family.empty()) {
      parse_fail(line_no,
                 "'generator' must be the only content line, found '" +
                     std::string(keyword) + "'");
    }
    has_explicit = true;

    auto need_states = [&] {
      if (num_states < 0) {
        parse_fail(line_no, "'states <N>' must come before '" +
                                std::string(keyword) + "'");
      }
    };
    auto read_state = [&](const char* what) {
      index_t s = -1;
      if (!line.next(s) || s < 0 || s >= num_states) {
        parse_fail(line_no, std::string("bad ") + what + " state index");
      }
      return s;
    };

    if (keyword == "transition") {
      need_states();
      const index_t from = read_state("source");
      const index_t to = read_state("target");
      double rate = -1.0;
      if (!line.next(rate) || rate < 0.0) {
        parse_fail(line_no, "'transition' needs a non-negative rate");
      }
      if (from == to) parse_fail(line_no, "self-loop transitions not allowed");
      transitions.push_back({from, to, rate});
    } else if (keyword == "states") {
      if (num_states >= 0) parse_fail(line_no, "duplicate 'states' line");
      if (!line.next(num_states) || num_states <= 0) {
        parse_fail(line_no, "'states' needs a positive count");
      }
      if (num_states > kMaxStates) {
        parse_fail(line_no, "'states' may not exceed " +
                                std::to_string(kMaxStates));
      }
    } else if (keyword == "reward") {
      need_states();
      const index_t s = read_state("reward");
      double value = -1.0;
      if (!line.next(value) || value < 0.0) {
        parse_fail(line_no, "'reward' needs a non-negative value");
      }
      rewards.emplace_back(s, value);
    } else if (keyword == "initial") {
      need_states();
      const index_t s = read_state("initial");
      double p = -1.0;
      if (!line.next(p) || p < 0.0 || p > 1.0) {
        parse_fail(line_no, "'initial' needs a probability in [0, 1]");
      }
      initial.emplace_back(s, p);
      has_initial = true;
    } else if (keyword == "regenerative") {
      need_states();
      model.regenerative = read_state("regenerative");
    } else {
      parse_fail(line_no, "unknown keyword '" + std::string(keyword) + "'");
    }
    if (std::string_view extra; line.next(extra)) {
      parse_fail(line_no, "unexpected '" + std::string(extra) +
                              "' after the '" + std::string(keyword) +
                              "' fields");
    }
  }
  if (!generator_family.empty()) {
    // A generator file IS its spec: expansion (markov/generator.hpp) is
    // deterministic, validates the parameters, and stamps spec_key.
    return generate_model(generator_family, generator_params);
  }
  if (num_states < 0) {
    throw contract_error("model file: missing 'states' line");
  }

  model.chain = Ctmc::from_transitions(num_states, std::move(transitions));
  model.rewards.assign(static_cast<std::size_t>(num_states), 0.0);
  for (const auto& [s, v] : rewards) {
    model.rewards[static_cast<std::size_t>(s)] = v;
  }
  model.initial.assign(static_cast<std::size_t>(num_states), 0.0);
  if (has_initial) {
    for (const auto& [s, p] : initial) {
      model.initial[static_cast<std::size_t>(s)] = p;
    }
    double total = 0.0;
    for (const double p : model.initial) total += p;
    if (std::abs(total - 1.0) > 1e-9) {
      throw contract_error(
          "model file: initial distribution sums to " +
          std::to_string(total) + ", expected 1");
    }
  } else {
    model.initial[0] = 1.0;
  }
  return model;
}

ModelFile read_model_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw contract_error("cannot open model file: " + path);
  return read_model(in);
}

void write_model(std::ostream& out, const Ctmc& chain,
                 std::span<const double> rewards,
                 std::span<const double> initial, index_t regenerative) {
  RRL_EXPECTS(static_cast<index_t>(rewards.size()) == chain.num_states());
  RRL_EXPECTS(static_cast<index_t>(initial.size()) == chain.num_states());
  out << "# rrl model file\n";
  out << "states " << chain.num_states() << "\n";
  if (regenerative >= 0) out << "regenerative " << regenerative << "\n";
  out.precision(17);
  for (std::size_t i = 0; i < initial.size(); ++i) {
    if (initial[i] != 0.0) {
      out << "initial " << i << " " << initial[i] << "\n";
    }
  }
  for (std::size_t i = 0; i < rewards.size(); ++i) {
    if (rewards[i] != 0.0) {
      out << "reward " << i << " " << rewards[i] << "\n";
    }
  }
  const CsrMatrix& r = chain.rates();
  const auto row_ptr = r.row_ptr();
  const auto col_idx = r.col_idx();
  const auto values = r.values();
  for (index_t i = 0; i < chain.num_states(); ++i) {
    for (std::int64_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      out << "transition " << i << " "
          << col_idx[static_cast<std::size_t>(k)] << " "
          << values[static_cast<std::size_t>(k)] << "\n";
    }
  }
}

void write_model_file(const std::string& path, const Ctmc& chain,
                      std::span<const double> rewards,
                      std::span<const double> initial,
                      index_t regenerative) {
  std::ofstream out(path);
  if (!out) throw contract_error("cannot open output file: " + path);
  write_model(out, chain, rewards, initial, regenerative);
}

}  // namespace rrl
