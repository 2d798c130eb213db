// Unit and property tests for the util module (rng, stats, table, cli).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/cli.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace mcharge {
namespace {

// ---------- Rng ----------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.5);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.5);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(99);
  double sum = 0.0;
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.between(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(17);
  Rng child = a.fork();
  EXPECT_NE(a(), child());
}

TEST(Rng, SplitMix64KnownDistinct) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

// ---------- RunningStats ----------

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(21);
  RunningStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

// ---------- SampleSet ----------

TEST(SampleSet, QuantilesOfKnownData) {
  SampleSet s;
  for (int i = 1; i <= 5; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
}

TEST(SampleSet, MeanAndStddev) {
  SampleSet s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(SampleSet, AddAfterQuantileStillCorrect) {
  SampleSet s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  s.add(100.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  // A value below every earlier sample must still be sorted in, whichever
  // quantile() path (interior or q = 1) ran before the add().
  SampleSet t;
  t.add(3.0);
  t.add(1.0);
  EXPECT_DOUBLE_EQ(t.median(), 2.0);
  t.add(0.0);
  EXPECT_DOUBLE_EQ(t.median(), 1.0);
  EXPECT_DOUBLE_EQ(t.quantile(1.0), 3.0);
  t.add(-1.0);
  EXPECT_DOUBLE_EQ(t.quantile(0.0), -1.0);
  EXPECT_DOUBLE_EQ(t.median(), 0.5);
}

// ---------- Table ----------

TEST(Table, CsvRoundTrip) {
  Table t({"n", "algo", "delay"});
  t.start_row();
  t.add(static_cast<long long>(200));
  t.add(std::string("Appro"));
  t.add(12.345, 2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "n,algo,delay\n200,Appro,12.35\n");
}

TEST(Table, PrintAlignsColumns) {
  Table t({"a", "long_header"});
  t.start_row();
  t.add(std::string("x"));
  t.add(std::string("y"));
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, RowsCount) {
  Table t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.start_row();
  t.add(std::string("1"));
  t.start_row();
  t.add(std::string("2"));
  EXPECT_EQ(t.rows(), 2u);
}

// ---------- CliFlags ----------

TEST(CliFlags, ParsesKeyValueAndBare) {
  const char* argv[] = {"prog", "--n=500", "--verbose", "positional",
                        "--rate=2.5"};
  CliFlags flags(5, argv);
  EXPECT_EQ(flags.get_int("n", 0), 500);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 2.5);
  EXPECT_FALSE(flags.has("positional"));
}

TEST(CliFlags, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliFlags flags(1, argv);
  EXPECT_EQ(flags.get_int("n", 7), 7);
  EXPECT_EQ(flags.get("name", "x"), "x");
  EXPECT_FALSE(flags.get_bool("flag", false));
  EXPECT_TRUE(flags.get_bool("flag", true));
}

TEST(CliFlags, NumbersMustConsumeTheWholeValue) {
  const char* argv[] = {"prog", "--n=-12", "--size=40", "--rate=-2.5e3",
                        "--tiny=1e-300"};
  CliFlags flags(5, argv);
  EXPECT_EQ(flags.get_int("n", 0), -12);
  EXPECT_EQ(flags.get_size("size", 0), 40u);
  EXPECT_EQ(flags.get_size("missing", 7), 7u);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), -2500.0);
  EXPECT_DOUBLE_EQ(flags.get_double("tiny", 0.0), 1e-300);
}

using CliFlagsDeathTest = ::testing::Test;

TEST_F(CliFlagsDeathTest, MalformedIntegerExitsWithStatus2) {
  const char* argv[] = {"prog", "--instances=1O0", "--jobs=abc", "--seed=",
                        "--verbose", "--big=99999999999999999999"};
  CliFlags flags(6, argv);
  EXPECT_EXIT(flags.get_int("instances", 1), ::testing::ExitedWithCode(2),
              "--instances=1O0");
  EXPECT_EXIT(flags.get_int("jobs", 1), ::testing::ExitedWithCode(2),
              "--jobs=abc");
  EXPECT_EXIT(flags.get_int("seed", 1), ::testing::ExitedWithCode(2),
              "--seed=");
  EXPECT_EXIT(flags.get_int("verbose", 1), ::testing::ExitedWithCode(2),
              "--verbose=true");
  EXPECT_EXIT(flags.get_int("big", 1), ::testing::ExitedWithCode(2),
              "--big=99999999999999999999");
}

TEST_F(CliFlagsDeathTest, NegativeOrMalformedSizeExitsWithStatus2) {
  const char* argv[] = {"prog", "--jobs=-1", "--instances=1O0", "--n=+5"};
  CliFlags flags(4, argv);
  EXPECT_EXIT(flags.get_size("jobs", 0), ::testing::ExitedWithCode(2),
              "--jobs=-1");
  EXPECT_EXIT(flags.get_size("instances", 1), ::testing::ExitedWithCode(2),
              "--instances=1O0");
  EXPECT_EXIT(flags.get_size("n", 1), ::testing::ExitedWithCode(2),
              "--n=\\+5");
}

TEST_F(CliFlagsDeathTest, ZeroOrNegativeCountExitsWithStatus2) {
  const char* argv[] = {"prog", "--chargers=0", "--rounds=-1",
                        "--instances=3"};
  CliFlags flags(4, argv);
  EXPECT_EQ(flags.get_count("instances", 1), 3u);
  EXPECT_EQ(flags.get_count("missing", 7), 7u);
  EXPECT_EXIT(flags.get_count("chargers", 2), ::testing::ExitedWithCode(2),
              "--chargers=0 is not a positive integer");
  EXPECT_EXIT(flags.get_count("rounds", 2), ::testing::ExitedWithCode(2),
              "--rounds=-1 is not a positive integer");
}

TEST_F(CliFlagsDeathTest, MalformedDoubleExitsWithStatus2) {
  const char* argv[] = {"prog", "--months=1.5x", "--rate=", "--gamma=2,7"};
  CliFlags flags(4, argv);
  EXPECT_EXIT(flags.get_double("months", 1.0), ::testing::ExitedWithCode(2),
              "--months=1.5x");
  EXPECT_EXIT(flags.get_double("rate", 1.0), ::testing::ExitedWithCode(2),
              "--rate=");
  EXPECT_EXIT(flags.get_double("gamma", 1.0), ::testing::ExitedWithCode(2),
              "--gamma=2,7");
}

TEST(CliFlags, ExplicitBoolValues) {
  const char* argv[] = {"prog", "--a=false", "--b=1", "--c=yes"};
  CliFlags flags(4, argv);
  EXPECT_FALSE(flags.get_bool("a", true));
  EXPECT_TRUE(flags.get_bool("b", false));
  EXPECT_TRUE(flags.get_bool("c", false));
}

}  // namespace
}  // namespace mcharge
