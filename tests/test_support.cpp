// Tests for the support utilities (CLI parser, table printer, stopwatch,
// contracts).
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "support/cli.hpp"
#include "support/contracts.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace rrl {
namespace {

TEST(Cli, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha=1.5", "--beta", "2",  "--flag",
                        "--name", "hello", "positional"};
  const CliArgs args(8, argv);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(args.get_long("beta", 0), 2);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_string("name", ""), "hello");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(Cli, FallbacksApply) {
  const char* argv[] = {"prog"};
  const CliArgs args(1, argv);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 3.25), 3.25);
  EXPECT_EQ(args.get_string("missing", "d"), "d");
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, ExplicitFalseFlag) {
  const char* argv[] = {"prog", "--flag=false"};
  const CliArgs args(2, argv);
  EXPECT_FALSE(args.get_bool("flag", true));
}

TEST(Cli, NumbersMustFillTheirValue) {
  const char* argv[] = {"prog",       "--jobs=4x",  "--regenerative=abc",
                        "--half=2.5", "--big=99999999999999999999",
                        "--eps=1e-8", "--cap=1e9z", "--neg=-3",
                        "--empty=",   "--bare",     "--inf=inf",
                        "--nan=nan",  "--huge=1e999", "--wide=1e20"};
  const CliArgs args(14, argv);
  EXPECT_EQ(args.get_long("neg", 0), -3);
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0.0), 1e-8);
  EXPECT_DOUBLE_EQ(args.get_double("neg", 0.0), -3.0);
  EXPECT_DOUBLE_EQ(args.get_double("wide", 0.0), 1e20);
  for (const char* key : {"jobs", "regenerative", "half", "big", "empty",
                          "bare"}) {
    EXPECT_THROW((void)args.get_long(key, 0), contract_error) << key;
  }
  // A double must be finite: "inf", "nan" and an overflowing "1e999" are
  // rejected, not read as a value no caller can use.
  for (const char* key : {"regenerative", "cap", "empty", "bare", "inf",
                          "nan", "huge"}) {
    EXPECT_THROW((void)args.get_double(key, 0.0), contract_error) << key;
  }
  // The error names the option and the value it could not read.
  try {
    (void)args.get_long("jobs", 0);
    FAIL() << "--jobs 4x was accepted";
  } catch (const contract_error& e) {
    EXPECT_STREQ(e.what(), "--jobs needs a whole number, got '4x'");
  }
}

TEST(Cli, CountsAboveTheCapAreRejected) {
  // rrl_solve reads --jobs and --workers through get_count with kMaxJobs,
  // so an over-limit count fails here, before any pool starts or worker
  // forks, and nothing narrows a long to int.
  const char* argv[] = {"prog",          "--jobs=100000",   "--workers",
                        "1025",          "--max=1024",      "--zero=0",
                        "--neg=-1",      "--wide=4294967297", "--bad=4x"};
  const CliArgs args(9, argv);
  for (const char* key : {"jobs", "workers", "neg", "wide", "bad"}) {
    EXPECT_THROW((void)args.get_count(key, 1, kMaxJobs), contract_error)
        << key;
  }
  EXPECT_EQ(args.get_count("max", 1, kMaxJobs), kMaxJobs);
  EXPECT_EQ(args.get_count("zero", 1, kMaxJobs), 0);
  EXPECT_EQ(args.get_count("absent", 2, kMaxJobs), 2);
  try {
    (void)args.get_count("workers", 2, kMaxJobs);
    FAIL() << "--workers 1025 was accepted";
  } catch (const contract_error& e) {
    EXPECT_STREQ(e.what(),
                 "--workers needs a count from 0 to 1024, got '1025'");
  }
}

TEST(Cli, NumberListsRejectMalformedTokens) {
  // Empty tokens are skipped; every other token must be a finite number.
  EXPECT_EQ(parse_double_list("1,,100"), (std::vector<double>{1.0, 100.0}));
  EXPECT_EQ(parse_double_list("1:1e5:20", ':'),
            (std::vector<double>{1.0, 1e5, 20.0}));
  EXPECT_TRUE(parse_double_list("").empty());
  for (const char* spec : {"1,10x,100", "1e-8,abc", "inf", "1,-inf", "nan",
                           "10;100", "1e999"}) {
    EXPECT_THROW((void)parse_double_list(spec), contract_error) << spec;
  }
  // The error names the token it could not read.
  try {
    (void)parse_double_list("1,10x,100");
    FAIL() << "10x was accepted";
  } catch (const contract_error& e) {
    EXPECT_STREQ(e.what(), "'10x' is not a finite number");
  }
}

TEST(Table, AlignsColumns) {
  TextTable t({"a", "long-header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("|   a | long-header |"), std::string::npos);
  EXPECT_NE(out.find("| 333 |           4 |"), std::string::npos);
}

TEST(Table, RejectsAridityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), contract_error);
}

TEST(Formatting, SigAndSci) {
  EXPECT_EQ(fmt_sig(1234.5678, 5), "1234.6");
  EXPECT_EQ(fmt_sci(0.000123456, 3), "1.235e-04");
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch w;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1e-3;
  EXPECT_GE(w.seconds(), 0.0);
  EXPECT_GE(w.millis(), 0.0);  // both units advance monotonically
  w.reset();
  EXPECT_LT(w.seconds(), 1.0);
}

TEST(Contracts, MacrosThrowWithContext) {
  try {
    RRL_EXPECTS(1 == 2);
    FAIL() << "should have thrown";
  } catch (const contract_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

}  // namespace
}  // namespace rrl
