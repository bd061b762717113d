// Unit tests for the discrete-event core: simulator semantics, RNG
// distributions, statistics containers.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "des/random.hpp"
#include "des/simulator.hpp"
#include "des/stats.hpp"
#include "util/error.hpp"

namespace spacecdn::des {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Milliseconds{30.0}, [&] { order.push_back(3); });
  sim.schedule(Milliseconds{10.0}, [&] { order.push_back(1); });
  sim.schedule(Milliseconds{20.0}, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().value(), 30.0);
  EXPECT_EQ(sim.processed_events(), 3u);
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(Milliseconds{5.0}, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(Milliseconds{1.0}, [&] {
    ++fired;
    sim.schedule(Milliseconds{1.0}, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now().value(), 2.0);
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule(Milliseconds{10.0}, [&] { ++fired; });
  sim.schedule(Milliseconds{50.0}, [&] { ++fired; });
  sim.run_until(Milliseconds{20.0});
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().value(), 20.0);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule(Milliseconds{5.0}, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelOfFiredEventIsFalse) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule(Milliseconds{5.0}, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  // The event already ran; cancelling its id must report false and must not
  // disturb later events, even though the pooled slot gets recycled.
  EXPECT_FALSE(sim.cancel(id));
  int later = 0;
  const EventId reused = sim.schedule(Milliseconds{1.0}, [&] { ++later; });
  EXPECT_FALSE(sim.cancel(id));  // stale generation, not the new occupant
  sim.run();
  EXPECT_EQ(later, 1);
  EXPECT_FALSE(sim.cancel(reused));
}

TEST(Simulator, RunUntilEmptyQueueAdvancesClock) {
  Simulator sim;
  sim.run_until(Milliseconds{42.0});
  EXPECT_DOUBLE_EQ(sim.now().value(), 42.0);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.processed_events(), 0u);
  // run() on an empty queue is likewise a no-op that leaves the clock alone.
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now().value(), 42.0);
}

TEST(Simulator, SameInstantStableOrderingAcrossThousandEvents) {
  Simulator sim;
  std::vector<int> order;
  order.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    sim.schedule(Milliseconds{7.0}, [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleAtInThePastThrowsConfigError) {
  Simulator sim;
  sim.schedule(Milliseconds{10.0}, [] {});
  sim.run();  // clock is now 10
  EXPECT_THROW(sim.schedule_at(Milliseconds{9.999}, [] {}), ConfigError);
  // run_until also moves the clock; scheduling before it must throw too.
  sim.run_until(Milliseconds{20.0});
  EXPECT_THROW(sim.schedule_at(Milliseconds{15.0}, [] {}), ConfigError);
  // Scheduling exactly at now() is allowed (zero-delay follow-up work).
  int fired = 0;
  sim.schedule_at(Milliseconds{20.0}, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, SlotPoolRecyclesWithoutGrowth) {
  // A long-running open-loop simulation keeps scheduling follow-up events;
  // the pooled storage must keep the live-event count exact throughout.
  Simulator sim;
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 10'000) sim.schedule(Milliseconds{1.0}, tick);
  };
  sim.schedule(Milliseconds{1.0}, tick);
  sim.run();
  EXPECT_EQ(fired, 10'000);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.processed_events(), 10'000u);
}

TEST(Simulator, StepRunsExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule(Milliseconds{1.0}, [&] { ++fired; });
  sim.schedule(Milliseconds{2.0}, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RejectsNegativeDelayAndPastSchedule) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(Milliseconds{-1.0}, [] {}), ConfigError);
  sim.schedule(Milliseconds{10.0}, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(Milliseconds{5.0}, [] {}), ConfigError);
}

TEST(SimulatorOrdering, ScheduleAtNowFromActionRunsAfterQueuedPeers) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(Milliseconds{5.0}, [&] {
    order.push_back(0);
    // Scheduled *at the current instant* from inside an action: it must run
    // after every event already queued for t=5 (stable FIFO by sequence).
    sim.schedule_at(sim.now(), [&] { order.push_back(3); });
  });
  sim.schedule_at(Milliseconds{5.0}, [&] { order.push_back(1); });
  sim.schedule_at(Milliseconds{5.0}, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorOrdering, CancelInsideActionSuppressesSameInstantPeer) {
  Simulator sim;
  std::vector<int> order;
  EventId victim = 0;
  sim.schedule_at(Milliseconds{2.0}, [&] {
    order.push_back(0);
    EXPECT_TRUE(sim.cancel(victim));   // not yet fired: cancellable
    EXPECT_FALSE(sim.cancel(victim));  // second cancel is a stale no-op
  });
  victim = sim.schedule_at(Milliseconds{2.0}, [&] { order.push_back(99); });
  sim.schedule_at(Milliseconds{2.0}, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, LognormalMedianIsMedian) {
  Rng rng(3);
  SampleSet s;
  for (int i = 0; i < 20000; ++i) s.add(rng.lognormal_median(20.0, 0.5));
  EXPECT_NEAR(s.median(), 20.0, 0.6);
  // Zero sigma degenerates to the median exactly.
  EXPECT_DOUBLE_EQ(rng.lognormal_median(7.0, 0.0), 7.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(4);
  OnlineSummary s;
  for (int i = 0; i < 50000; ++i) s.add(rng.exponential(10.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.3);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(5);
  std::vector<double> counts(3, 0.0);
  for (int i = 0; i < 30000; ++i) counts[rng.weighted_index({1.0, 2.0, 7.0})] += 1.0;
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(6);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::uint32_t v : sample) EXPECT_LT(v, 100u);
  EXPECT_THROW((void)rng.sample_without_replacement(5, 6), ConfigError);
}

// Rng's engine is a lazily expanded MT19937-64: outputs 1..156 come from a
// two-word prefix, later ones from a std::mt19937_64 built on draw 157.  A
// full-range uniform_int passes engine outputs through unchanged, so these
// tests compare raw outputs against the std engine across the switch.
constexpr std::uint64_t kFullRange = ~std::uint64_t{0};

/// Expects `rng` to continue as `ref` for `count` outputs.
void expect_same_outputs(Rng& rng, std::mt19937_64& ref, int count, std::uint64_t seed,
                         int start) {
  for (int i = 0; i < count; ++i) {
    const std::uint64_t want = ref();
    const std::uint64_t got = rng.uniform_int(0, kFullRange);
    if (got != want) {
      ADD_FAILURE() << "seed " << seed << ": output " << start + i << " is " << got
                    << ", std::mt19937_64 gives " << want;
      return;
    }
  }
}

TEST(Rng, EngineMatchesStdMt19937_64AcrossPrefixSwitch) {
  std::vector<std::uint64_t> seeds = {0, 1, kFullRange};
  for (std::uint64_t s = 0; s < 500; ++s) seeds.push_back(mix_seed(20240917, s));
  for (const std::uint64_t seed : seeds) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    expect_same_outputs(rng, ref, 1000, seed, 0);
  }
}

TEST(Rng, CopiesAndMovesContinueIdentically) {
  const std::uint64_t seed = mix_seed(7, 3);
  for (const int drawn : {0, 155, 156, 157, 500}) {
    Rng original(seed);
    for (int i = 0; i < drawn; ++i) (void)original.uniform_int(0, kFullRange);
    std::mt19937_64 ref(seed);
    ref.discard(static_cast<unsigned long long>(drawn));

    Rng copied(original);
    Rng assigned(1);
    assigned = original;
    Rng move_source(original);
    Rng moved(std::move(move_source));
    Rng move_assigned(2);
    move_assigned = Rng(original);
    for (Rng* rng : {&copied, &assigned, &moved, &move_assigned}) {
      std::mt19937_64 expected = ref;
      expect_same_outputs(*rng, expected, 400, seed, drawn);
    }
    // Copies are deep: drawing from them left the original where it was.
    expect_same_outputs(original, ref, 400, seed, drawn);
  }
}

TEST(Rng, MethodsMatchStdDistributionsOnStdEngine) {
  for (const std::uint64_t seed : {std::uint64_t{3}, mix_seed(11, 5)}) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    const std::vector<double> weights = {1.0, 2.0, 7.0, 0.5};
    // About 16 outputs a round, so the rounds cross draw 157 early.
    for (int round = 0; round < 40; ++round) {
      EXPECT_EQ(rng.uniform(-2.0, 5.0),
                std::uniform_real_distribution<double>(-2.0, 5.0)(ref));
      EXPECT_EQ(rng.uniform_int(3, 1000),
                std::uniform_int_distribution<std::uint64_t>(3, 1000)(ref));
      EXPECT_EQ(rng.chance(0.3), std::bernoulli_distribution(0.3)(ref));
      EXPECT_EQ(rng.normal(10.0, 2.0), std::normal_distribution<double>(10.0, 2.0)(ref));
      EXPECT_EQ(rng.lognormal_median(20.0, 0.5),
                std::lognormal_distribution<double>(std::log(20.0), 0.5)(ref));
      EXPECT_EQ(rng.exponential(4.0), std::exponential_distribution<double>(0.25)(ref));
      EXPECT_EQ(
          rng.weighted_index(weights),
          std::discrete_distribution<std::size_t>(weights.begin(), weights.end())(ref));

      // Partial Fisher-Yates, as sample_without_replacement documents.
      std::vector<std::uint32_t> pool(20);
      std::iota(pool.begin(), pool.end(), 0u);
      for (std::uint32_t i = 0; i < 5; ++i) {
        const auto j = static_cast<std::uint32_t>(
            std::uniform_int_distribution<std::uint64_t>(i, 19)(ref));
        std::swap(pool[i], pool[j]);
      }
      pool.resize(5);
      EXPECT_EQ(rng.sample_without_replacement(20, 5), pool);

      std::vector<int> shuffled(7), expected(7);
      std::iota(shuffled.begin(), shuffled.end(), 0);
      std::iota(expected.begin(), expected.end(), 0);
      rng.shuffle(shuffled);
      std::shuffle(expected.begin(), expected.end(), ref);
      EXPECT_EQ(shuffled, expected);
    }
  }
}

TEST(Zipf, PmfSumsToOne) {
  const ZipfDistribution zipf(1000, 0.9);
  double total = 0.0;
  for (std::uint64_t r = 1; r <= 1000; ++r) total += zipf.pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, RankOneMostPopular) {
  const ZipfDistribution zipf(100, 1.0);
  EXPECT_GT(zipf.pmf(1), zipf.pmf(2));
  EXPECT_GT(zipf.pmf(2), zipf.pmf(50));
}

TEST(Zipf, SampleFrequenciesFollowPmf) {
  const ZipfDistribution zipf(50, 0.8);
  Rng rng(7);
  std::vector<double> counts(51, 0.0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[zipf.sample(rng)] += 1.0;
  EXPECT_NEAR(counts[1] / n, zipf.pmf(1), 0.01);
  EXPECT_NEAR(counts[10] / n, zipf.pmf(10), 0.01);
}

TEST(Zipf, ZeroExponentIsUniform) {
  const ZipfDistribution zipf(10, 0.0);
  EXPECT_NEAR(zipf.pmf(1), 0.1, 1e-12);
  EXPECT_NEAR(zipf.pmf(10), 0.1, 1e-12);
}

TEST(OnlineSummary, MatchesDirectComputation) {
  OnlineSummary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineSummary, MergeMatchesSingleStream) {
  // Chan et al. parallel combine: merging per-shard summaries must agree
  // with accumulating the concatenated stream into one summary.
  Rng rng(17);
  std::vector<double> all;
  OnlineSummary whole;
  OnlineSummary shards[3];
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.lognormal_median(50.0, 0.7);
    all.push_back(x);
    whole.add(x);
    shards[i % 3].add(x);
  }
  OnlineSummary merged;
  for (const OnlineSummary& shard : shards) merged.merge(shard);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9 * whole.mean());
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-9 * whole.variance());
}

TEST(OnlineSummary, MergeIsAssociativeAcrossShards) {
  // Parallel sweeps fold per-shard summaries in whatever grouping the
  // scheduler produced; (a+b)+c and a+(b+c) must agree with the flat fold
  // to floating-point tolerance, or thread count would leak into results.
  Rng rng(19);
  OnlineSummary shards[4];
  for (int i = 0; i < 4000; ++i) {
    shards[i % 4].add(rng.lognormal_median(30.0, 0.9));
  }

  OnlineSummary left;  // ((a+b)+c)+d
  for (const OnlineSummary& shard : shards) left.merge(shard);

  OnlineSummary bc = shards[1];  // a+((b+c)+d)
  bc.merge(shards[2]);
  bc.merge(shards[3]);
  OnlineSummary right = shards[0];
  right.merge(bc);

  OnlineSummary pairs = shards[0];  // (a+b)+(c+d)
  pairs.merge(shards[1]);
  OnlineSummary cd = shards[2];
  cd.merge(shards[3]);
  pairs.merge(cd);

  for (const OnlineSummary* grouped : {&right, &pairs}) {
    EXPECT_EQ(grouped->count(), left.count());
    EXPECT_DOUBLE_EQ(grouped->min(), left.min());
    EXPECT_DOUBLE_EQ(grouped->max(), left.max());
    EXPECT_NEAR(grouped->mean(), left.mean(), 1e-9 * left.mean());
    EXPECT_NEAR(grouped->variance(), left.variance(), 1e-9 * left.variance());
  }

  // Merging an empty shard is the identity in any position.
  OnlineSummary with_empty = left;
  with_empty.merge(OnlineSummary{});
  EXPECT_EQ(with_empty.count(), left.count());
  EXPECT_DOUBLE_EQ(with_empty.mean(), left.mean());
  EXPECT_DOUBLE_EQ(with_empty.variance(), left.variance());
}

TEST(OnlineSummary, MergeSkewedShardSizes) {
  // 1 sample vs 10,000: the combine must stay exact, not just balanced.
  OnlineSummary big, tiny, whole;
  Rng rng(18);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    big.add(x);
    whole.add(x);
  }
  tiny.add(123.0);
  whole.add(123.0);
  OnlineSummary merged = big;
  merged.merge(tiny);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12 * whole.mean());
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-9 * whole.variance());
  EXPECT_DOUBLE_EQ(merged.max(), 123.0);
}

TEST(OnlineSummary, MergeEmptyEdgeCases) {
  OnlineSummary empty1, empty2;
  empty1.merge(empty2);
  EXPECT_EQ(empty1.count(), 0u);

  OnlineSummary filled;
  filled.add(3.0);
  filled.add(5.0);
  OnlineSummary target;
  target.merge(filled);  // empty <- filled copies
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 4.0);
  EXPECT_DOUBLE_EQ(target.min(), 3.0);

  filled.merge(empty1);  // filled <- empty is a no-op
  EXPECT_EQ(filled.count(), 2u);
  EXPECT_DOUBLE_EQ(filled.mean(), 4.0);
}

TEST(SampleSet, QuantilesInterpolate) {
  SampleSet s({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 1.75);
}

TEST(SampleSet, SingleSample) {
  SampleSet s({42.0});
  EXPECT_DOUBLE_EQ(s.median(), 42.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 42.0);
}

TEST(SampleSet, RejectsEmptyAndBadQuantile) {
  SampleSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW((void)s.median(), ConfigError);
  s.add(1.0);
  EXPECT_THROW((void)s.quantile(1.5), ConfigError);
}

TEST(SampleSet, CdfIsMonotone) {
  Rng rng(8);
  SampleSet s;
  for (int i = 0; i < 1000; ++i) s.add(rng.normal(50.0, 10.0));
  const auto cdf = s.cdf(20);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LT(cdf[i - 1].cumulative_probability, cdf[i].cumulative_probability);
  }
  EXPECT_DOUBLE_EQ(cdf.back().cumulative_probability, 1.0);
}

TEST(SampleSet, FractionBelow) {
  SampleSet s({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.fraction_below(2.5), 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_below(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.fraction_below(10.0), 1.0);
}

TEST(SampleSet, BoxStats) {
  SampleSet s({1.0, 2.0, 3.0, 4.0, 100.0});
  const BoxStats box = s.box_stats();
  EXPECT_DOUBLE_EQ(box.min, 1.0);
  EXPECT_DOUBLE_EQ(box.median, 3.0);
  EXPECT_DOUBLE_EQ(box.max, 100.0);
  EXPECT_DOUBLE_EQ(box.mean, 22.0);
  EXPECT_EQ(box.count, 5u);
}

TEST(SampleSet, AddAllInvalidatesCache) {
  SampleSet s({5.0});
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  s.add_all({1.0, 9.0});
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  s.add(100.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
}

/// Every query of `s` against a set built from its raw samples, which sorts
/// them all at once.
void expect_matches_full_sort(const SampleSet& s, Rng& rng, const std::string& where) {
  const SampleSet full(s.raw());
  for (int k = 0; k < 4; ++k) {
    const double q = k == 0 ? 0.99 : rng.uniform(0.0, 1.0);
    EXPECT_EQ(s.quantile(q), full.quantile(q)) << where << " q=" << q;
  }
  EXPECT_EQ(s.min(), full.min()) << where;
  EXPECT_EQ(s.max(), full.max()) << where;
  const double threshold = std::round(rng.uniform(0.0, 60.0));  // often a sample
  EXPECT_EQ(s.fraction_below(threshold), full.fraction_below(threshold)) << where;
  const auto got = s.cdf(7);
  const auto want = full.cdf(7);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].value, want[i].value) << where << " cdf point " << i;
  }
}

TEST(SampleSet, IncrementalSortMatchesFullSort) {
  // A seeded stream of appends and queries over two sets, one sometimes
  // replaced by a copy of the other mid-stream.  Values are rounded to
  // integers so duplicates are common.
  Rng rng(mix_seed(41, 0));
  std::array<SampleSet, 2> sets;
  sets[0].add(rng.uniform(0.0, 50.0));
  sets[1].add(rng.uniform(0.0, 50.0));
  for (int step = 0; step < 600; ++step) {
    const std::string where = "step " + std::to_string(step);
    SampleSet& s = sets[rng.uniform_int(0, 1)];
    switch (rng.uniform_int(0, 4)) {
      case 0:
        s.add(std::round(rng.uniform(0.0, 50.0)));
        break;
      case 1: {
        std::vector<double> xs(rng.uniform_int(0, 40));
        for (double& x : xs) {
          x = rng.chance(0.5) ? std::round(rng.uniform(0.0, 50.0))
                              : rng.uniform(0.0, 60.0);
        }
        s.add_all(xs);
        break;
      }
      case 2: {
        const std::size_t from = rng.uniform_int(0, 1);
        sets[1 - from] = SampleSet(sets[from]);
        expect_matches_full_sort(sets[1 - from], rng, where + " copy");
        break;
      }
      default:
        expect_matches_full_sort(s, rng, where);
        break;
    }
  }
  for (const SampleSet& s : sets) expect_matches_full_sort(s, rng, "end");
}

TEST(Histogram, RenderSketchesBars) {
  Histogram h(0.0, 10.0, 2);
  for (int i = 0; i < 8; ++i) h.add(2.0);
  h.add(7.0);
  std::ostringstream os;
  h.render(os, 8);
  const std::string out = os.str();
  EXPECT_NE(out.find("########"), std::string::npos);  // peak bin at full width
  EXPECT_NE(out.find("[     0.0,      5.0)"), std::string::npos);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0);   // bin 0
  h.add(9.9);   // bin 4
  h.add(-5.0);  // clamps to bin 0
  h.add(50.0);  // clamps to bin 4
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lower(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(1), 4.0);
  EXPECT_THROW((void)h.count(5), ConfigError);
}

// The published FNV-1a 64-bit test vectors (offset basis, "a", "foobar").
TEST(Fnv1aChecksum, KnownAnswersThroughAddBytes) {
  const auto digest_of = [](std::string_view text) {
    Fnv1aChecksum sum;
    sum.add_bytes(text);
    return sum.digest();
  };
  EXPECT_EQ(digest_of(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(digest_of("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(digest_of("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(Fnv1aChecksum{}.hex(), "0xcbf29ce484222325");
}

TEST(Fnv1aChecksum, AddDoubleIsAddWordOfItsBits) {
  Fnv1aChecksum by_double;
  Fnv1aChecksum by_word;
  for (const double value : {0.0, -0.0, 1.5, -273.15, 1e-300, 6.02214076e23}) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    by_double.add(value);
    by_word.add_word(bits);
    EXPECT_EQ(by_double.digest(), by_word.digest()) << value;
  }
  // A word folds low byte first: add_word(0x61) is "a" then seven NULs.
  Fnv1aChecksum word;
  word.add_word(0x61);
  Fnv1aChecksum bytes;
  bytes.add_bytes(std::string_view("a\0\0\0\0\0\0\0", 8));
  EXPECT_EQ(word.digest(), bytes.digest());
}

}  // namespace
}  // namespace spacecdn::des
