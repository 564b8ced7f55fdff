// Plain-text model interchange format.
//
// Lets downstream users bring their own rewarded CTMCs to the solvers (and
// lets the CLI tool export the built-in generators). Line-oriented format,
// whitespace-separated, '#' comments:
//
//   states <N>                # required, first non-comment line;
//                             # 1 <= N <= kMaxStates
//   transition <from> <to> <rate>
//   reward <state> <value>    # default 0
//   initial <state> <prob>    # default: unit mass on state 0
//   regenerative <state>      # optional solver hint
//
// Indices are 0-based. Duplicate `transition` lines are summed (consistent
// with the in-memory builder); duplicate `reward`/`initial` lines overwrite.
//
// Fields are read by io/field_scanner.hpp, as the `.study` reader reads
// them. Whitespace is whatever isspace() calls it (so tabs and CRLF line
// ends work), and '#' ends a line's content even inside a field. A number
// is spelled as operator>> reads one: an optional sign, decimal digits, an
// optional point and exponent (`+1`, `.5`, `5.`, `2.5E-3`). Values round
// correctly, so write_model's 17 digits come back bit for bit; underflow
// reads as zero, while inf, nan, a bare exponent and overflow are errors.
// A field must end at whitespace, '#' or the end of the line, an index
// must fit an index_t, and a line carries exactly its keyword's fields:
// `transition 0 1.5 2`, `transition 0 1 2.5abc` and `states 2 extra` are
// line-numbered errors.
//
// Alternatively a file may hold a single GENERATOR line instead of an
// explicit state space (markov/generator.hpp expands it on read):
//
//   generator <family> <key>=<value> ...
//
// e.g. `generator k_of_n n=9 k=8 groups=6 lambda=1e-3 mu=1 lump=1`. A
// generator line must be the only content line of the file: the expansion
// IS the model, and mixing it with explicit transitions would make the
// spec key (below) a lie.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "markov/ctmc.hpp"

namespace rrl {

/// The most states a model may have: a `states` line declaring more is
/// refused before anything is sized from it, and a generator line that
/// would expand beyond it is refused before expanding.
inline constexpr std::int64_t kMaxStates = 10'000'000;

/// A parsed model file: chain + measure data + optional solver hint.
struct ModelFile {
  Ctmc chain;
  std::vector<double> rewards;
  std::vector<double> initial;
  index_t regenerative = -1;  ///< -1 = not specified
  /// Canonical generator spec ("k_of_n groups=6 k=8 ..." — family plus
  /// sorted key=value params) when the model was expanded from a
  /// `generator` line; empty for explicit models. Because expansion is
  /// deterministic, the spec names the content exactly, so the study
  /// layer's hash_model() hashes these few bytes instead of walking a
  /// million-state CSR.
  std::string spec_key;
  /// State count before the lumping pass when the generator applied one
  /// (`lump=1`); -1 when no lumping happened. Provenance only — the chain
  /// above is already the lumped one.
  index_t pre_lump_states = -1;
};

/// Parse a model from a stream. Throws contract_error with a line-numbered
/// message on malformed input.
[[nodiscard]] ModelFile read_model(std::istream& in);

/// Parse a model from a file path (throws if the file cannot be opened).
[[nodiscard]] ModelFile read_model_file(const std::string& path);

/// Serialize a model (only non-zero rewards / initial entries are written).
void write_model(std::ostream& out, const Ctmc& chain,
                 std::span<const double> rewards,
                 std::span<const double> initial, index_t regenerative = -1);

/// Serialize to a file path (throws if the file cannot be opened).
void write_model_file(const std::string& path, const Ctmc& chain,
                      std::span<const double> rewards,
                      std::span<const double> initial,
                      index_t regenerative = -1);

}  // namespace rrl
