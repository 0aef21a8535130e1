// Unit tests for src/util: PRNG, statistics, table rendering, env knobs,
// the small-buffer vector.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <utility>
#include <vector>

#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/small_vector.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace bprc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all seven values hit
}

TEST(Rng, FlipIsRoughlyFair) {
  Rng rng(11);
  int heads = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) heads += rng.flip();
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.5, 0.01);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  for (double p : {0.1, 0.5, 0.9}) {
    int hits = 0;
    const int trials = 50000;
    for (int i = 0; i < trials; ++i) hits += rng.bernoulli(p);
    EXPECT_NEAR(static_cast<double>(hits) / trials, p, 0.02);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(15);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(21);
  Rng a = parent.split(0);
  Rng b = parent.split(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 4);
}

TEST(Rng, SplitIsDeterministic) {
  Rng p1(33);
  Rng p2(33);
  Rng a = p1.split(5);
  Rng b = p2.split(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, SingleSampleHasZeroVariance) {
  RunningStat s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sem(), 0.0);
}

TEST(RunningStat, CiShrinksWithSamples) {
  RunningStat small;
  RunningStat large;
  Rng rng(1);
  for (int i = 0; i < 10; ++i) small.add(rng.uniform());
  for (int i = 0; i < 1000; ++i) large.add(rng.uniform());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(Proportion, EstimateAndWilson) {
  Proportion p;
  for (int i = 0; i < 80; ++i) p.add(true);
  for (int i = 0; i < 20; ++i) p.add(false);
  EXPECT_DOUBLE_EQ(p.estimate(), 0.8);
  const auto ci = p.wilson95();
  EXPECT_LT(ci.low, 0.8);
  EXPECT_GT(ci.high, 0.8);
  EXPECT_GT(ci.low, 0.69);
  EXPECT_LT(ci.high, 0.88);
}

TEST(Proportion, WilsonHandlesExtremes) {
  Proportion zero;
  for (int i = 0; i < 50; ++i) zero.add(false);
  const auto ci0 = zero.wilson95();
  EXPECT_DOUBLE_EQ(ci0.low, 0.0);
  EXPECT_GT(ci0.high, 0.0);  // never claims impossibility
  EXPECT_LT(ci0.high, 0.12);

  Proportion empty;
  const auto cie = empty.wilson95();
  EXPECT_DOUBLE_EQ(cie.low, 0.0);
  EXPECT_DOUBLE_EQ(cie.high, 1.0);
}

TEST(Samples, QuantilesExact) {
  Samples s;
  for (int i = 1; i <= 101; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.median(), 51.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 101.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 26.0);
  EXPECT_DOUBLE_EQ(s.max(), 101.0);
}

TEST(Samples, MeanMatchesDefinition) {
  Samples s;
  s.add(1.0);
  s.add(2.0);
  s.add(6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(PowerFit, RecoversQuadraticCoefficient) {
  std::vector<double> xs{2, 4, 8, 16};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(3.0 * x * x);
  const auto fit = fit_power(xs, ys, 2.0);
  EXPECT_NEAR(fit.coefficient, 3.0, 1e-9);
  EXPECT_NEAR(fit.max_rel_residual, 0.0, 1e-9);
}

TEST(PowerFit, ReportsResidualOnBadModel) {
  std::vector<double> xs{1, 2, 4, 8};
  std::vector<double> ys{1, 8, 64, 512};  // cubic, fit as quadratic
  const auto fit = fit_power(xs, ys, 2.0);
  EXPECT_GT(fit.max_rel_residual, 0.5);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::num(std::int64_t{-7}), "-7");
}

TEST(Table, RowWidthMismatchAborts) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "row width");
}

TEST(Env, ScaledTrialsDefaultsToBase) {
  unsetenv("BPRC_SCALE");
  EXPECT_EQ(scaled_trials(100), 100u);
}

TEST(Env, ScaledTrialsHonorsVariable) {
  setenv("BPRC_SCALE", "3", 1);
  EXPECT_EQ(scaled_trials(100), 300u);
  unsetenv("BPRC_SCALE");
}

TEST(Env, IntParsesAndFallsBack) {
  setenv("BPRC_TEST_ENV_INT", "17", 1);
  EXPECT_EQ(env_int("BPRC_TEST_ENV_INT", 5), 17);
  setenv("BPRC_TEST_ENV_INT", "-3", 1);
  EXPECT_EQ(env_int("BPRC_TEST_ENV_INT", 5), -3);
  // Unset and empty mean "use the default" — the user said nothing.
  unsetenv("BPRC_TEST_ENV_INT");
  EXPECT_EQ(env_int("BPRC_TEST_ENV_INT", 5), 5);
  setenv("BPRC_TEST_ENV_INT", "", 1);
  EXPECT_EQ(env_int("BPRC_TEST_ENV_INT", 5), 5);
  unsetenv("BPRC_TEST_ENV_INT");
}

TEST(Env, UnparseableValueAborts) {
  // A knob the user set and got wrong must abort with a diagnostic, not
  // silently degrade to the default ("I benchmarked at 8 jobs" — no).
  setenv("BPRC_TEST_ENV_INT", "banana", 1);
  EXPECT_DEATH(env_int("BPRC_TEST_ENV_INT", 5), "not a valid integer");
  setenv("BPRC_TEST_ENV_INT", "8jobs", 1);  // trailing garbage
  EXPECT_DEATH(env_int("BPRC_TEST_ENV_INT", 5), "not a valid integer");
  setenv("BPRC_TEST_ENV_INT", "999999999999999999999", 1);  // out of range
  EXPECT_DEATH(env_int("BPRC_TEST_ENV_INT", 5), "not a valid integer");
  unsetenv("BPRC_TEST_ENV_INT");
}

using SmallVec4 = SmallVector<std::int64_t, 4>;

std::vector<std::int64_t> items(const SmallVec4& v) {
  return {v.begin(), v.end()};
}

TEST(SmallVector, InlineValueSemantics) {
  SmallVec4 a(3, 7);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.capacity(), 4u);
  EXPECT_EQ(items(a), (std::vector<std::int64_t>{7, 7, 7}));
  SmallVec4 b = a;
  b[1] = 8;
  EXPECT_EQ(items(a), (std::vector<std::int64_t>{7, 7, 7}));
  EXPECT_FALSE(a == b);
  b = a;
  EXPECT_EQ(a, b);
  b = {1, 2};
  EXPECT_EQ(items(b), (std::vector<std::int64_t>{1, 2}));
  EXPECT_FALSE(a == b);  // sizes differ
}

TEST(SmallVector, SpillsPastInlineCapacityAndKeepsItsBlock) {
  SmallVec4 big;
  for (std::int64_t i = 0; i < 9; ++i) big.push_back(i);
  EXPECT_EQ(big.size(), 9u);
  EXPECT_GE(big.capacity(), 9u);
  for (std::int64_t i = 0; i < 9; ++i) {
    EXPECT_EQ(big[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(big.back(), 8);

  // A spilled destination keeps its block for smaller sources.
  SmallVec4 dst = big;
  const std::int64_t* block = dst.data();
  const std::size_t cap = dst.capacity();
  const SmallVec4 two{5, 6};
  dst = two;
  EXPECT_EQ(dst.data(), block);
  EXPECT_EQ(dst.capacity(), cap);
  EXPECT_EQ(items(dst), (std::vector<std::int64_t>{5, 6}));
  dst = big;
  EXPECT_EQ(dst.data(), block);
  EXPECT_EQ(dst, big);

  // An inline destination takes a spilled source by growing.
  SmallVec4 small(2, 1);
  small = big;
  EXPECT_EQ(small, big);
  small.assign(12, 3);
  EXPECT_EQ(small.size(), 12u);
  EXPECT_EQ(small[11], 3);
}

TEST(SmallVector, MoveStealsTheBlockAndEmptiesTheSource) {
  SmallVec4 big(10, 4);
  const std::int64_t* block = big.data();
  SmallVec4 moved = std::move(big);
  EXPECT_EQ(moved.data(), block);
  EXPECT_EQ(moved.size(), 10u);
  EXPECT_TRUE(big.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(big.capacity(), 4u);

  SmallVec4 inline_src{1, 2, 3};
  SmallVec4 target(10, 0);
  target = std::move(inline_src);
  EXPECT_EQ(items(target), (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(target.capacity(), 4u);
}

}  // namespace
}  // namespace bprc
