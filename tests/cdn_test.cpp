// Unit tests for the CDN substrate: catalog, popularity, cache policies,
// deployment.
#include <gtest/gtest.h>

#include <set>

#include "cdn/cache.hpp"
#include "cdn/content.hpp"
#include "cdn/deployment.hpp"
#include "cdn/popularity.hpp"
#include "data/datasets.hpp"
#include "util/error.hpp"

namespace spacecdn::cdn {
namespace {

ContentItem item(ContentId id, double mb) {
  return ContentItem{id, Megabytes{mb}, data::Region::kEurope};
}

constexpr Milliseconds kNow{0.0};

TEST(Catalog, GeneratesRequestedObjects) {
  des::Rng rng(1);
  CatalogConfig cfg;
  cfg.object_count = 500;
  const ContentCatalog catalog(cfg, rng);
  EXPECT_EQ(catalog.size(), 500u);
  EXPECT_GT(catalog.total_bytes().value(), 0.0);
  EXPECT_THROW((void)catalog.item(500), NotFoundError);
}

TEST(Catalog, SizesWithinBounds) {
  des::Rng rng(2);
  CatalogConfig cfg;
  cfg.object_count = 2000;
  const ContentCatalog catalog(cfg, rng);
  for (const auto& it : catalog.items()) {
    EXPECT_GE(it.size.value(), cfg.min_size.value());
    EXPECT_LE(it.size.value(), cfg.max_size.value());
  }
}

TEST(Catalog, IdsAreDense) {
  des::Rng rng(3);
  CatalogConfig cfg;
  cfg.object_count = 100;
  const ContentCatalog catalog(cfg, rng);
  for (ContentId id = 0; id < 100; ++id) EXPECT_EQ(catalog.item(id).id, id);
}

TEST(Popularity, RanksAreAPermutation) {
  const RegionalPopularity pop(100, {});
  std::set<ContentId> seen;
  for (std::uint64_t rank = 1; rank <= 100; ++rank) {
    seen.insert(pop.object_at_rank(data::Region::kAfrica, rank));
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(Popularity, RankOfInvertsObjectAtRank) {
  const RegionalPopularity pop(200, {});
  for (std::uint64_t rank = 1; rank <= 200; rank += 13) {
    const ContentId id = pop.object_at_rank(data::Region::kAsia, rank);
    EXPECT_EQ(pop.rank_of(data::Region::kAsia, id), rank);
  }
}

TEST(Popularity, GlobalHeadIsShared) {
  PopularityConfig cfg;
  cfg.global_share = 0.3;
  const RegionalPopularity pop(100, cfg);
  // The first 30 ranks are identical across regions.
  for (std::uint64_t rank = 1; rank <= 30; ++rank) {
    EXPECT_EQ(pop.object_at_rank(data::Region::kEurope, rank),
              pop.object_at_rank(data::Region::kAfrica, rank));
  }
}

TEST(Popularity, TailsDivergeAcrossRegions) {
  PopularityConfig cfg;
  cfg.global_share = 0.0;
  const RegionalPopularity pop(2000, cfg);
  const double overlap =
      pop.top_k_overlap(data::Region::kEurope, data::Region::kAfrica, 100);
  EXPECT_LT(overlap, 0.3);  // mostly different content is popular
  EXPECT_DOUBLE_EQ(pop.top_k_overlap(data::Region::kEurope, data::Region::kEurope, 100),
                   1.0);
}

TEST(Popularity, SamplesFavorTopRanks) {
  const RegionalPopularity pop(1000, {});
  des::Rng rng(4);
  std::uint64_t head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const ContentId id = pop.sample(data::Region::kLatinAmerica, rng);
    if (pop.rank_of(data::Region::kLatinAmerica, id) <= 100) ++head;
  }
  // Zipf 0.9 over 1000: top 10% of ranks draw well over a third of requests.
  EXPECT_GT(static_cast<double>(head) / n, 0.35);
}

TEST(Popularity, TopKIsRankPrefix) {
  const RegionalPopularity pop(50, {});
  const auto top = pop.top_k(data::Region::kOceania, 5);
  ASSERT_EQ(top.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(top[i], pop.object_at_rank(data::Region::kOceania, i + 1));
  }
}

template <typename CacheT>
class CachePolicyTest : public ::testing::Test {};

using Policies = ::testing::Types<LruCache, LfuCache, FifoCache>;
TYPED_TEST_SUITE(CachePolicyTest, Policies);

TYPED_TEST(CachePolicyTest, HitAfterInsert) {
  TypeParam cache(Megabytes{10.0});
  EXPECT_FALSE(cache.access(1, kNow));
  EXPECT_TRUE(cache.insert(item(1, 2.0), kNow));
  EXPECT_TRUE(cache.access(1, kNow));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TYPED_TEST(CachePolicyTest, NeverExceedsCapacity) {
  TypeParam cache(Megabytes{10.0});
  for (ContentId id = 0; id < 100; ++id) {
    (void)cache.insert(item(id, 3.0), kNow);
    EXPECT_LE(cache.used().value(), 10.0 + 1e-9);
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

TYPED_TEST(CachePolicyTest, RejectsOversizedObject) {
  TypeParam cache(Megabytes{10.0});
  EXPECT_FALSE(cache.insert(item(1, 11.0), kNow));
  EXPECT_EQ(cache.object_count(), 0u);
}

TYPED_TEST(CachePolicyTest, CountsOversizedRejections) {
  // The rejection must be visible in stats: a placement loop re-offering an
  // oversized object would otherwise spin without any counter moving.
  TypeParam cache(Megabytes{10.0});
  EXPECT_FALSE(cache.insert(item(1, 11.0), kNow));
  EXPECT_FALSE(cache.insert(item(2, 200.0), kNow));
  EXPECT_EQ(cache.stats().rejected_oversized, 2u);
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_TRUE(cache.insert(item(3, 10.0), kNow));  // exactly at capacity fits
  EXPECT_EQ(cache.stats().rejected_oversized, 2u);
}

TYPED_TEST(CachePolicyTest, EraseRemoves) {
  TypeParam cache(Megabytes{10.0});
  (void)cache.insert(item(1, 2.0), kNow);
  EXPECT_TRUE(cache.erase(1));
  EXPECT_FALSE(cache.erase(1));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_DOUBLE_EQ(cache.used().value(), 0.0);
}

TYPED_TEST(CachePolicyTest, ReinsertIsIdempotent) {
  TypeParam cache(Megabytes{10.0});
  EXPECT_TRUE(cache.insert(item(1, 2.0), kNow));
  EXPECT_TRUE(cache.insert(item(1, 2.0), kNow));
  EXPECT_EQ(cache.object_count(), 1u);
  EXPECT_DOUBLE_EQ(cache.used().value(), 2.0);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache cache(Megabytes{6.0});
  (void)cache.insert(item(1, 2.0), kNow);
  (void)cache.insert(item(2, 2.0), kNow);
  (void)cache.insert(item(3, 2.0), kNow);
  (void)cache.access(1, kNow);  // 2 becomes LRU
  (void)cache.insert(item(4, 2.0), kNow);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
}

TEST(LfuCache, EvictsLeastFrequentlyUsed) {
  LfuCache cache(Megabytes{6.0});
  (void)cache.insert(item(1, 2.0), kNow);
  (void)cache.insert(item(2, 2.0), kNow);
  (void)cache.insert(item(3, 2.0), kNow);
  (void)cache.access(1, kNow);
  (void)cache.access(1, kNow);
  (void)cache.access(3, kNow);
  (void)cache.insert(item(4, 2.0), kNow);  // evicts 2 (frequency 1)
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(LfuCache, TieBreaksByRecency) {
  LfuCache cache(Megabytes{4.0});
  (void)cache.insert(item(1, 2.0), kNow);
  (void)cache.insert(item(2, 2.0), kNow);
  // Both frequency 1; 1 is older (less recently inserted).
  (void)cache.insert(item(3, 2.0), kNow);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(FifoCache, EvictsInInsertionOrder) {
  FifoCache cache(Megabytes{6.0});
  (void)cache.insert(item(1, 2.0), kNow);
  (void)cache.insert(item(2, 2.0), kNow);
  (void)cache.insert(item(3, 2.0), kNow);
  (void)cache.access(1, kNow);  // FIFO ignores recency
  (void)cache.insert(item(4, 2.0), kNow);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(CacheFactory, MakesEachPolicy) {
  for (const CachePolicy p : {CachePolicy::kLru, CachePolicy::kLfu, CachePolicy::kFifo}) {
    const auto cache = make_cache(p, Megabytes{5.0});
    ASSERT_NE(cache, nullptr);
    EXPECT_DOUBLE_EQ(cache->capacity().value(), 5.0);
  }
  EXPECT_EQ(to_string(CachePolicy::kLru), "LRU");
}

TEST(CacheStats, HitRate) {
  CacheStats stats;
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.0);
  stats.hits = 3;
  stats.misses = 1;
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.75);
}

TEST(Deployment, NearestSite) {
  const CdnDeployment cdn(data::cdn_sites(), {});
  const std::size_t idx = cdn.nearest_site(data::location(data::city("Maputo")));
  EXPECT_EQ(cdn.site(idx).iata, "MPM");
}

TEST(Deployment, ServeMissThenHit) {
  CdnDeployment cdn(data::cdn_sites(), {});
  const ContentItem obj = item(7, 10.0);
  const auto miss = cdn.serve(0, obj, Milliseconds{20.0}, Milliseconds{80.0}, kNow);
  EXPECT_FALSE(miss.hit);
  EXPECT_DOUBLE_EQ(miss.first_byte.value(), 100.0);
  const auto hit = cdn.serve(0, obj, Milliseconds{20.0}, Milliseconds{80.0}, kNow);
  EXPECT_TRUE(hit.hit);
  EXPECT_DOUBLE_EQ(hit.first_byte.value(), 20.0);
}

TEST(Deployment, WarmPreloadsSite) {
  CdnDeployment cdn(data::cdn_sites(), {});
  const std::vector<ContentItem> items{item(1, 1.0), item(2, 1.0)};
  cdn.warm(3, items, kNow);
  EXPECT_TRUE(cdn.cache(3).contains(1));
  EXPECT_TRUE(cdn.cache(3).contains(2));
  EXPECT_FALSE(cdn.cache(4).contains(1));  // other sites untouched
}

TEST(Deployment, SitesAreIndependentCaches) {
  CdnDeployment cdn(data::cdn_sites(), {});
  (void)cdn.serve(0, item(9, 1.0), Milliseconds{1.0}, Milliseconds{1.0}, kNow);
  EXPECT_TRUE(cdn.cache(0).contains(9));
  EXPECT_FALSE(cdn.cache(1).contains(9));
}

}  // namespace
}  // namespace spacecdn::cdn
