// Unit tests for the support library: rng, strings, config, cli, table.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "support/cli.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"
#include "support/stopwatch.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

namespace psra {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextDoubleRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble(-3.5, 2.5);
    EXPECT_GE(v, -3.5);
    EXPECT_LT(v, 2.5);
  }
}

TEST(Rng, NextBelowCoversRangeWithoutBias) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.NextBelow(10)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Rng, NextBelowZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.NextBelow(0), InvalidArgument);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(3);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    hit_lo |= (v == -2);
    hit_hi |= (v == 2);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, GaussianMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0.0, sumsq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, SampleWithoutReplacementDistinctSorted) {
  Rng rng(17);
  const auto s = rng.SampleWithoutReplacement(100, 30);
  ASSERT_EQ(s.size(), 30u);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_LT(s[i - 1], s[i]);
  for (auto v : s) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleAllElements) {
  Rng rng(17);
  const auto s = rng.SampleWithoutReplacement(5, 5);
  EXPECT_EQ(s, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Rng, SampleTooManyThrows) {
  Rng rng(17);
  EXPECT_THROW(rng.SampleWithoutReplacement(3, 4), InvalidArgument);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng base(5);
  Rng a = base.Fork(1);
  Rng b = base.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministic) {
  Rng b1(5), b2(5);
  Rng a = b1.Fork(7);
  Rng b = b2.Fork(7);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, ShufflePermutes) {
  Rng rng(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

// ------------------------------------------------------------- strings ----

TEST(StringUtil, SplitKeepsEmptyTokens) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtil, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtil, TrimStripsBothEnds) {
  EXPECT_EQ(Trim("  abc \t"), "abc");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \n "), "");
}

TEST(StringUtil, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringUtil, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble(" -1e-3 "), -1e-3);
  EXPECT_THROW(ParseDouble("abc"), InvalidArgument);
  EXPECT_THROW(ParseDouble("1.5x"), InvalidArgument);
  EXPECT_THROW(ParseDouble(""), InvalidArgument);
}

TEST(StringUtil, ParseIntStrict) {
  EXPECT_EQ(ParseInt("-42"), -42);
  EXPECT_THROW(ParseInt("4.2"), InvalidArgument);
  EXPECT_THROW(ParseInt(""), InvalidArgument);
}

TEST(StringUtil, Formatters) {
  EXPECT_EQ(FormatBytes(1536.0), "1.50 KiB");
  EXPECT_EQ(FormatDuration(0.002), "2.00 ms");
  EXPECT_EQ(ToLower("AbC"), "abc");
}

// ----------------------------------------------------------------- cli ----

TEST(Cli, ParsesAllValueForms) {
  CliParser cli("prog", "test");
  std::int64_t n = 1;
  double x = 0.5;
  std::string s = "def";
  bool flag = false;
  cli.AddInt("n", &n, "an int");
  cli.AddDouble("x", &x, "a double");
  cli.AddString("s", &s, "a string");
  cli.AddBool("flag", &flag, "a flag");
  const char* argv[] = {"prog", "--n=3", "--x", "2.5", "--s=hi", "--flag"};
  ASSERT_TRUE(cli.Parse(6, argv));
  EXPECT_EQ(n, 3);
  EXPECT_DOUBLE_EQ(x, 2.5);
  EXPECT_EQ(s, "hi");
  EXPECT_TRUE(flag);
}

TEST(Cli, UnknownFlagThrows) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(cli.Parse(2, argv), InvalidArgument);
}

TEST(Cli, MissingValueThrows) {
  CliParser cli("prog", "test");
  std::int64_t n = 0;
  cli.AddInt("n", &n, "int");
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(cli.Parse(2, argv), InvalidArgument);
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.Parse(2, argv));
}

TEST(Cli, BoolExplicitFalse) {
  CliParser cli("prog", "test");
  bool flag = true;
  cli.AddBool("flag", &flag, "a flag");
  const char* argv[] = {"prog", "--flag=false"};
  ASSERT_TRUE(cli.Parse(2, argv));
  EXPECT_FALSE(flag);
}

// ----------------------------------------------------------------- log ----

TEST(Log, LevelGateControlsEmission) {
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold logging must be a no-op (and must not crash).
  PSRA_LOG_DEBUG << "suppressed " << 42;
  PSRA_LOG_INFO << "suppressed";
  SetLogLevel(LogLevel::kOff);
  PSRA_LOG_ERROR << "also suppressed";
  SetLogLevel(prev);
}

TEST(Log, StructuredLineCarriesComponentAndVirtualTime) {
  const LogLevel prev = GetLogLevel();
  std::ostringstream captured;
  SetLogSink(&captured);
  SetLogLevel(LogLevel::kInfo);

  PSRA_SLOG(kInfo, "wlg").At(0.001234) << "regrouped " << 3 << " nodes";
  PSRA_SLOG(kWarn, "fault") << "no timestamp on this one";
  PSRA_LOG_INFO << "plain line";
  PSRA_SLOG(kDebug, "wlg") << "below threshold, suppressed";

  SetLogSink(nullptr);
  SetLogLevel(prev);

  const std::string out = captured.str();
  EXPECT_NE(out.find("[psra INFO  wlg @0.001234s] regrouped 3 nodes"),
            std::string::npos);
  EXPECT_NE(out.find("[psra WARN  fault] no timestamp on this one"),
            std::string::npos);
  EXPECT_NE(out.find("[psra INFO ] plain line"), std::string::npos);
  EXPECT_EQ(out.find("suppressed"), std::string::npos);
}

// ------------------------------------------------------------ stopwatch ----

TEST(Stopwatch, MeasuresNonNegativeMonotoneTime) {
  Stopwatch sw;
  const double a = sw.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  // Busy-wait a hair so the second reading cannot precede the first.
  volatile double sink = 0;
  for (int i = 0; i < 10000; ++i) sink += i;
  const double b = sw.ElapsedSeconds();
  EXPECT_GE(b, a);
  sw.Reset();
  EXPECT_LT(sw.ElapsedSeconds(), b + 1.0);
}

// --------------------------------------------------------------- table ----

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1.5"});
  t.AddRow({"b", "22"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), InvalidArgument);
}

}  // namespace
}  // namespace psra
