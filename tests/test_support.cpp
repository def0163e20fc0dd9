// Unit tests for the support module: RNG, statistics, table printer, CLI,
// and the leveled logger (level parsing, filtering, line formatting).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "support/cli.hpp"
#include "support/env.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "test_util.hpp"

namespace stance {
namespace {

// --- leveled logger --------------------------------------------------------

/// RAII guard: run a log test at a chosen level, restore the prior level.
class ScopedLogLevel {
 public:
  explicit ScopedLogLevel(log::Level lv) : prior_(log::level()) { log::set_level(lv); }
  ~ScopedLogLevel() { log::set_level(prior_); }

 private:
  log::Level prior_;
};

TEST(Log, ParseLevelAcceptsKnownNamesCaseInsensitively) {
  EXPECT_EQ(log::parse_level("error"), log::Level::kError);
  EXPECT_EQ(log::parse_level("WARN"), log::Level::kWarn);
  EXPECT_EQ(log::parse_level("Warning"), log::Level::kWarn);
  EXPECT_EQ(log::parse_level("info"), log::Level::kInfo);
  EXPECT_EQ(log::parse_level("DeBuG"), log::Level::kDebug);
  EXPECT_EQ(log::parse_level("trace"), log::Level::kTrace);
  // Unknown strings fall back to info rather than silencing everything.
  EXPECT_EQ(log::parse_level("verbose"), log::Level::kInfo);
  EXPECT_EQ(log::parse_level(""), log::Level::kInfo);
}

TEST(Log, WriteFormatsLevelTagAndMessage) {
  testing::internal::CaptureStderr();
  log::write(log::Level::kError, "coalesce", "stale plan detected");
  const std::string line = testing::internal::GetCapturedStderr();
  EXPECT_EQ(line, "[ERROR] coalesce: stale plan detected\n");
}

TEST(Log, HelpersConcatenateMixedArguments) {
  ScopedLogLevel scoped(log::Level::kInfo);
  testing::internal::CaptureStderr();
  log::info("lb", "rotated ", 2, " delegates in ", 1.5, " s");
  const std::string line = testing::internal::GetCapturedStderr();
  EXPECT_EQ(line, "[INFO] lb: rotated 2 delegates in 1.5 s\n");
}

TEST(Log, LevelFiltersMessagesAboveIt) {
  ScopedLogLevel scoped(log::Level::kWarn);
  testing::internal::CaptureStderr();
  log::debug("noisy", "dropped");
  log::trace("noisy", "dropped too");
  log::info("noisy", "dropped as well");
  log::warn("kept", "this survives");
  const std::string out = testing::internal::GetCapturedStderr();
  EXPECT_EQ(out, "[WARN] kept: this survives\n");
}

TEST(Log, SetLevelRoundTrips) {
  ScopedLogLevel scoped(log::Level::kTrace);
  EXPECT_EQ(log::level(), log::Level::kTrace);
  log::set_level(log::Level::kError);
  EXPECT_EQ(log::level(), log::Level::kError);
}

// --- SplitMix64 / Rng ------------------------------------------------------

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, Reproducible) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, BelowIsBounded) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalHasRoughlyUnitMoments) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  Rng a(42);
  Rng b = a.split();
  // The parent advanced one step; the child must not replay the parent.
  Rng parent_replay(42);
  (void)parent_replay();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (b() == parent_replay()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, MeanOfUniformIsHalf) {
  Rng rng(2024);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Shuffle, IsPermutation) {
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  Rng rng(17);
  shuffle(v, rng);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 10u);
}

TEST(Shuffle, DeterministicForSeed) {
  std::vector<int> a{1, 2, 3, 4, 5}, b{1, 2, 3, 4, 5};
  Rng ra(9), rb(9);
  shuffle(a, ra);
  shuffle(b, rb);
  EXPECT_EQ(a, b);
}

TEST(RandomWeights, SumToOneAndRespectMinShare) {
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    const auto w = random_weights(5, rng, 0.05);
    double sum = 0.0;
    for (const double x : w) {
      EXPECT_GE(x, 0.05 - 1e-12);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RandomWeights, SingleProcessorGetsEverything) {
  Rng rng(1);
  const auto w = random_weights(1, rng);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_NEAR(w[0], 1.0, 1e-12);
}

// --- RunningStats -----------------------------------------------------------

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(77);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-10, 10);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
}

TEST(Percentile, InterpolatesBetweenPoints) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.5);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 1.5), std::invalid_argument);
}

TEST(Imbalance, PerfectBalanceIsOne) {
  EXPECT_DOUBLE_EQ(imbalance({3.0, 3.0, 3.0}), 1.0);
}

TEST(Imbalance, MaxOverMean) {
  EXPECT_DOUBLE_EQ(imbalance({1.0, 2.0, 3.0}), 1.5);
}

// --- TextTable ---------------------------------------------------------------

TEST(TextTable, RendersHeaderAndRows) {
  TextTable t("Table X");
  t.set_header({"name", "value"});
  t.row().cell("alpha").cell(1.5);
  t.row().cell("beta").cell(std::size_t{42});
  const std::string s = t.str();
  EXPECT_NE(s.find("Table X"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(FormatNumber, TrimsTrailingZeros) {
  EXPECT_EQ(format_number(0.0250, 4), "0.025");
  EXPECT_EQ(format_number(2.0, 4), "2");
  EXPECT_EQ(format_number(1.8417, 4), "1.8417");
}

TEST(FormatNumber, RespectsPrecision) {
  EXPECT_EQ(format_number(1.0 / 3.0, 2), "0.33");
}

// --- CliArgs ------------------------------------------------------------------

TEST(CliArgs, ParsesEqualsAndSpaceForms) {
  // Note: a bare --flag consumes a following non-option token as its value,
  // so positionals must precede flags (documented parser behaviour).
  const char* argv[] = {"prog", "pos1", "--alpha=3", "--beta", "4", "--flag"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_int("beta", 0), 4);
  EXPECT_TRUE(args.get_bool("flag", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(CliArgs, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get("missing", "d"), "d");
  EXPECT_EQ(args.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(args.has("missing"));
}

TEST(CliArgs, BoolFalseSpellings) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=no", "--d=yes"};
  CliArgs args(5, argv);
  EXPECT_FALSE(args.get_bool("a", true));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_FALSE(args.get_bool("c", true));
  EXPECT_TRUE(args.get_bool("d", false));
}

// --- strict environment parsing --------------------------------------------

using test::ScopedEnv;

constexpr const char* kVar = "STANCE_TEST_ENV_INT";

TEST(EnvInt, UnsetAndEmptyReturnFallback) {
  {
    ScopedEnv env(kVar, nullptr);
    EXPECT_EQ(support::env_int(kVar), 0);
    EXPECT_EQ(support::env_int(kVar, 42), 42);
  }
  {
    ScopedEnv env(kVar, "");
    EXPECT_EQ(support::env_int(kVar, 42), 42);
  }
  {
    ScopedEnv env(kVar, "   ");
    EXPECT_EQ(support::env_int(kVar, 42), 42);
  }
}

TEST(EnvInt, ParsesPlainAndDecoratedNumbers) {
  {
    ScopedEnv env(kVar, "250");
    EXPECT_EQ(support::env_int(kVar), 250);
  }
  {
    ScopedEnv env(kVar, "  +7  ");
    EXPECT_EQ(support::env_int(kVar), 7);
  }
  {
    ScopedEnv env(kVar, "0");
    EXPECT_EQ(support::env_int(kVar, 9), 0);
  }
}

TEST(EnvInt, RejectsMalformedValuesLoudly) {
  // The bug this guards against: strtol-based parsing silently turned
  // "abc" into 0 (feature off) and "5s" into 5 (unit dropped).
  for (const char* bad : {"abc", "5s", "12 34", "0x10", "-1", "2.5", "++3", "9999999999999"}) {
    ScopedEnv env(kVar, bad);
    EXPECT_THROW((void)support::env_int(kVar), std::invalid_argument) << bad;
  }
}

TEST(EnvInt, ErrorNamesVariableAndValue) {
  ScopedEnv env(kVar, "banana");
  try {
    (void)support::env_int(kVar);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(kVar), std::string::npos);
    EXPECT_NE(what.find("banana"), std::string::npos);
  }
}

}  // namespace
}  // namespace stance
