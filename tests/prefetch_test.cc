// Tests for the speculative-prefetch path: TileCache speculative-insert /
// cost-aware-eviction semantics (scripted, single-threaded, exact counters),
// the Prefetcher's access-pattern classifier and depth control, its fault
// discipline (a faulted speculative decode is dropped silently, never
// cached), and the end-to-end serve path with prefetch enabled.
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "codec/systems.h"
#include "gtest/gtest.h"
#include "serve/prefetcher.h"
#include "serve/server.h"
#include "serve/tile_cache.h"
#include "sim/device.h"
#include "ssb/generator.h"
#include "ssb/queries.h"

namespace tilecomp::serve {
namespace {

constexpr uint32_t kTile = 512;
constexpr uint64_t kTileBytes = kTile * sizeof(uint32_t);

std::vector<uint32_t> TileValues(uint32_t fill) {
  return std::vector<uint32_t>(kTile, fill);
}

// --- TileCache: speculative-insert semantics ---

TEST(SpeculativeInsertTest, StartsColdAndPromotesOnFirstDemandHit) {
  TileCache cache(4 * kTileBytes, EvictionPolicy::kLru);
  const std::vector<uint32_t> v = TileValues(7);

  EXPECT_EQ(cache.InsertSpeculative(codec::ColumnId(0), 0, v.data(), kTile),
            SpeculativeInsert::kInserted);
  EXPECT_EQ(cache.InsertSpeculative(codec::ColumnId(0), 0, v.data(), kTile),
            SpeculativeInsert::kAlreadyResident);
  TileCache::Stats s = cache.stats();
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.prefetch_late, 1u);
  EXPECT_EQ(s.speculative_entries, 1u);

  // First demand hit: attributed to the prefetcher and promoted (useful).
  TileCache::LookupInfo info;
  TileCache::PinnedTile pin = cache.Lookup(codec::ColumnId(0), 0, 100, &info);
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(pin.data()[0], 7u);
  EXPECT_TRUE(info.prefetch_hit);
  EXPECT_TRUE(info.promoted);
  s = cache.stats();
  EXPECT_EQ(s.prefetch_hits, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.prefetch_useful, 1u);
  EXPECT_EQ(s.speculative_entries, 0u);
  EXPECT_EQ(s.saved_bytes, 100u);

  // Later hits keep the prefetch attribution but are no longer "useful".
  info = TileCache::LookupInfo();
  TileCache::PinnedTile again = cache.Lookup(codec::ColumnId(0), 0, 0, &info);
  ASSERT_TRUE(again.valid());
  EXPECT_TRUE(info.prefetch_hit);
  EXPECT_FALSE(info.promoted);
  s = cache.stats();
  EXPECT_EQ(s.prefetch_hits, 2u);
  EXPECT_EQ(s.prefetch_useful, 1u);
}

TEST(SpeculativeInsertTest, NeverHitSpeculationIsEvictedFirstUnderLru) {
  TileCache cache(3 * kTileBytes, EvictionPolicy::kLru);
  const std::vector<uint32_t> v = TileValues(1);
  cache.Insert(codec::ColumnId(0), 0, v.data(), kTile);
  cache.Insert(codec::ColumnId(0), 1, v.data(), kTile);
  EXPECT_EQ(cache.InsertSpeculative(codec::ColumnId(0), 2, v.data(), kTile),
            SpeculativeInsert::kInserted);
  // Touch the demand entries so they are hotter than the staged one.
  cache.Lookup(codec::ColumnId(0), 0);
  cache.Lookup(codec::ColumnId(0), 1);

  cache.Insert(codec::ColumnId(0), 3, v.data(), kTile);
  EXPECT_FALSE(cache.Contains(codec::ColumnId(0), 2));
  EXPECT_TRUE(cache.Contains(codec::ColumnId(0), 0));
  EXPECT_TRUE(cache.Contains(codec::ColumnId(0), 1));
  // Evicted before any demand hit: the speculation was wasted.
  EXPECT_EQ(cache.stats().prefetch_wasted, 1u);
}

TEST(SpeculativeInsertTest, RefusedInsertCountsWasted) {
  TileCache cache(kTileBytes, EvictionPolicy::kLru);
  const std::vector<uint32_t> v = TileValues(2);
  TileCache::PinnedTile pin =
      cache.Insert(codec::ColumnId(0), 0, v.data(), kTile);
  ASSERT_TRUE(pin.valid());
  // The only resident entry is pinned: no room can be made.
  EXPECT_EQ(cache.InsertSpeculative(codec::ColumnId(0), 1, v.data(), kTile),
            SpeculativeInsert::kRefused);
  const TileCache::Stats s = cache.stats();
  EXPECT_EQ(s.prefetch_wasted, 1u);
  EXPECT_EQ(s.insert_failures, 1u);
  EXPECT_LE(s.bytes_in_use, cache.budget_bytes());
}

TEST(SpeculativeInsertTest, DemandInsertDemotesStagedDuplicateWithoutUseful) {
  // Demand re-decoded a tile the prefetcher had staged (the demand miss
  // pre-dated the staging): pinning the resident copy must not count the
  // speculation useful, and the entry loses its prefetch attribution.
  TileCache cache(4 * kTileBytes, EvictionPolicy::kLru);
  const std::vector<uint32_t> v = TileValues(3);
  EXPECT_EQ(cache.InsertSpeculative(codec::ColumnId(0), 0, v.data(), kTile),
            SpeculativeInsert::kInserted);
  TileCache::PinnedTile pin =
      cache.Insert(codec::ColumnId(0), 0, v.data(), kTile);
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(cache.stats().prefetch_useful, 0u);
  EXPECT_EQ(cache.stats().speculative_entries, 0u);
  pin.Release();
  TileCache::LookupInfo info;
  cache.Lookup(codec::ColumnId(0), 0, 0, &info);
  EXPECT_FALSE(info.prefetch_hit);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().prefetch_hits, 0u);
}

// --- TileCache: cost-aware eviction ---

TEST(CostAwareTest, EvictsCheapestRebuildAmongColdEntries) {
  TileCache cache(3 * kTileBytes, EvictionPolicy::kCostAware);
  const std::vector<uint32_t> v = TileValues(4);
  TileCost expensive;
  expensive.decode_cost = 1000;
  expensive.encoded_bytes = 4096;
  TileCost cheap;
  cheap.decode_cost = 1;
  cheap.encoded_bytes = 64;
  cache.Insert(codec::ColumnId(0), 0, v.data(), kTile, nullptr, expensive);
  cache.Insert(codec::ColumnId(0), 1, v.data(), kTile, nullptr, cheap);
  cache.Insert(codec::ColumnId(0), 2, v.data(), kTile, nullptr, expensive);

  cache.Insert(codec::ColumnId(0), 3, v.data(), kTile, nullptr, expensive);
  // Tile 1 was not the coldest, but it is by far the cheapest to rebuild.
  EXPECT_FALSE(cache.Contains(codec::ColumnId(0), 1));
  EXPECT_TRUE(cache.Contains(codec::ColumnId(0), 0));
  EXPECT_TRUE(cache.Contains(codec::ColumnId(0), 2));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CostAwareTest, NeverHitSpeculationGoesBeforeAnyDemandEntry) {
  TileCache cache(3 * kTileBytes, EvictionPolicy::kCostAware);
  const std::vector<uint32_t> v = TileValues(5);
  TileCost cheap;  // the cheapest demand entry in the window
  cheap.decode_cost = 1;
  cheap.encoded_bytes = 1;
  TileCost expensive;
  expensive.decode_cost = 1000;
  expensive.encoded_bytes = 4096;
  cache.Insert(codec::ColumnId(0), 0, v.data(), kTile, nullptr, cheap);
  cache.Insert(codec::ColumnId(0), 1, v.data(), kTile, nullptr, expensive);
  // Staged speculatively with a high rebuild cost — still first in line.
  EXPECT_EQ(cache.InsertSpeculative(codec::ColumnId(0), 2, v.data(), kTile,
                                    expensive),
            SpeculativeInsert::kInserted);

  cache.Insert(codec::ColumnId(0), 3, v.data(), kTile, nullptr, cheap);
  EXPECT_FALSE(cache.Contains(codec::ColumnId(0), 2));
  EXPECT_TRUE(cache.Contains(codec::ColumnId(0), 0));
  EXPECT_TRUE(cache.Contains(codec::ColumnId(0), 1));
  EXPECT_EQ(cache.stats().prefetch_wasted, 1u);
}

TEST(CostAwareTest, GhostListsAdaptFrequencyWeight) {
  TileCache cache(kTileBytes, EvictionPolicy::kCostAware);
  const std::vector<uint32_t> v = TileValues(6);
  EXPECT_DOUBLE_EQ(cache.frequency_weight(), 0.5);

  // Evict tile 0 before any hit: its key lands in the recency ghost (B1).
  cache.Insert(codec::ColumnId(0), 0, v.data(), kTile);
  cache.Insert(codec::ColumnId(0), 1, v.data(), kTile);
  EXPECT_EQ(cache.stats().ghost_recency_entries, 1u);
  // A miss on the B1 key says recency deserved more weight.
  EXPECT_FALSE(cache.Lookup(codec::ColumnId(0), 0).valid());
  EXPECT_DOUBLE_EQ(cache.frequency_weight(), 0.5 - 1.0 / 16.0);
  // The ghost entry is consumed: a second miss on the same key is neutral.
  EXPECT_FALSE(cache.Lookup(codec::ColumnId(0), 0).valid());
  EXPECT_DOUBLE_EQ(cache.frequency_weight(), 0.5 - 1.0 / 16.0);

  // Re-insert tile 0, hit it, then evict it: now it ghosts into B2, and a
  // miss on it shifts the weight back toward frequency.
  cache.Insert(codec::ColumnId(0), 0, v.data(), kTile);
  EXPECT_TRUE(cache.Lookup(codec::ColumnId(0), 0).valid());
  cache.Insert(codec::ColumnId(0), 2, v.data(), kTile);
  EXPECT_EQ(cache.stats().ghost_frequency_entries, 1u);
  EXPECT_FALSE(cache.Lookup(codec::ColumnId(0), 0).valid());
  EXPECT_DOUBLE_EQ(cache.frequency_weight(), 0.5);
}

TEST(CostAwareTest, BudgetNeverExceededUnderSpeculativeChurn) {
  // The serve-path budget invariant under a mix of demand inserts,
  // speculative inserts, lookups and invalidations, for every policy.
  const uint64_t budget = 5 * kTileBytes + 100;  // deliberately unaligned
  for (EvictionPolicy policy :
       {EvictionPolicy::kLru, EvictionPolicy::kCostAware}) {
    TileCache cache(budget, policy);
    uint64_t state = 98765;
    for (int i = 0; i < 3000; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const uint32_t col = static_cast<uint32_t>(state >> 32) % 3;
      const int64_t tile = static_cast<int64_t>((state >> 16) % 40);
      const uint32_t count = 1 + static_cast<uint32_t>(state % kTile);
      TileCost cost;
      cost.decode_cost = 1 + (state >> 8) % 1000;
      cost.encoded_bytes = 64 + (state >> 4) % 2048;
      switch (state % 4) {
        case 0: {
          std::vector<uint32_t> v(count, col);
          cache.Insert(codec::ColumnId(col), tile, v.data(), count, nullptr,
                       cost);
          break;
        }
        case 1: {
          std::vector<uint32_t> v(count, col);
          cache.InsertSpeculative(codec::ColumnId(col), tile, v.data(), count,
                                  cost);
          break;
        }
        case 2: {
          TileCache::PinnedTile pin =
              cache.Lookup(codec::ColumnId(col), tile);
          if (pin.valid()) {
            EXPECT_EQ(pin.data()[0], col);
          }
          break;
        }
        default:
          cache.Invalidate(codec::ColumnId(col), tile);
          break;
      }
      ASSERT_LE(cache.stats().bytes_in_use, budget);
      const double w = cache.frequency_weight();
      ASSERT_GE(w, 0.0);
      ASSERT_LE(w, 1.0);
    }
    const TileCache::Stats s = cache.stats();
    EXPECT_GT(s.evictions, 0u);
    EXPECT_GT(s.prefetch_hits + s.hits, 0u);
    EXPECT_GT(s.prefetch_wasted, 0u);  // churn evicts staged entries
  }
}

// --- Prefetcher: classification, depth control, fault discipline ---

struct PrefetchFixture {
  sim::Device dev;
  TileCache cache;
  std::vector<uint32_t> values;
  codec::CompressedColumn column;
  Prefetcher prefetcher;

  static PrefetchOptions Opts(int initial_depth = 4, int max_depth = 64) {
    PrefetchOptions o;
    o.enabled = true;
    o.initial_depth = initial_depth;
    o.max_depth = max_depth;
    return o;
  }

  explicit PrefetchFixture(int num_tiles = 16, PrefetchOptions opts = Opts(),
                           fault::FaultPlan* plan = nullptr)
      : cache(256ull << 20, EvictionPolicy::kLru),
        values(MakeValues(num_tiles)),
        column(codec::CompressedColumn::Encode(codec::Scheme::kGpuFor,
                                               values)),
        prefetcher(dev, &cache, opts, plan) {
    prefetcher.RegisterColumn(codec::ColumnId(0), &column);
  }

  static std::vector<uint32_t> MakeValues(int num_tiles) {
    std::vector<uint32_t> v(static_cast<size_t>(num_tiles) * kTile);
    std::iota(v.begin(), v.end(), 0u);
    return v;
  }

  void Access(std::initializer_list<int64_t> tiles) {
    for (int64_t t : tiles) {
      prefetcher.RecordAccess(codec::ColumnId(0), t);
    }
  }
};

TEST(PrefetcherTest, SequentialRoundStagesNextTiles) {
  PrefetchFixture f;
  f.Access({0, 1, 2, 3});
  EXPECT_EQ(f.prefetcher.IssueRound(), 4u);
  EXPECT_EQ(f.prefetcher.pattern(codec::ColumnId(0)),
            Prefetcher::Pattern::kSequential);
  EXPECT_EQ(f.prefetcher.depth(codec::ColumnId(0)), 4);
  for (int64_t t : {4, 5, 6, 7}) {
    EXPECT_TRUE(f.cache.Contains(codec::ColumnId(0), t)) << "tile " << t;
  }
  EXPECT_FALSE(f.cache.Contains(codec::ColumnId(0), 8));
  const TileCache::Stats s = f.cache.stats();
  EXPECT_EQ(s.prefetch_issued, 4u);
  EXPECT_EQ(s.speculative_entries, 4u);
  // The staged tiles carry the decoded data, bit-exact.
  TileCache::PinnedTile pin = f.cache.Peek(codec::ColumnId(0), 4);
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(pin.data()[0], 4u * kTile);
}

TEST(PrefetcherTest, StreakDoublesDepthUpToCap) {
  PrefetchFixture f(/*num_tiles=*/64, PrefetchFixture::Opts(4, 16));
  f.Access({0, 1, 2, 3});
  f.prefetcher.IssueRound();
  EXPECT_EQ(f.prefetcher.depth(codec::ColumnId(0)), 4);
  f.Access({4, 5, 6, 7});
  f.prefetcher.IssueRound();
  EXPECT_EQ(f.prefetcher.depth(codec::ColumnId(0)), 8);
  f.Access({8, 9, 10, 11});
  f.prefetcher.IssueRound();
  EXPECT_EQ(f.prefetcher.depth(codec::ColumnId(0)), 16);
  f.Access({12, 13, 14, 15});
  f.prefetcher.IssueRound();
  EXPECT_EQ(f.prefetcher.depth(codec::ColumnId(0)), 16);  // capped

  // An irregular round resets the streak; the next sequential round is
  // back at the initial depth.
  f.Access({0, 20, 41});
  f.prefetcher.IssueRound();
  EXPECT_EQ(f.prefetcher.pattern(codec::ColumnId(0)),
            Prefetcher::Pattern::kRandom);
  EXPECT_EQ(f.prefetcher.depth(codec::ColumnId(0)), 0);
  f.Access({0, 1, 2});
  f.prefetcher.IssueRound();
  EXPECT_EQ(f.prefetcher.depth(codec::ColumnId(0)), 4);
}

TEST(PrefetcherTest, StridedPatternFollowsStride) {
  PrefetchFixture f(/*num_tiles=*/32);
  f.Access({0, 3, 6, 9});
  EXPECT_EQ(f.prefetcher.IssueRound(), 4u);
  EXPECT_EQ(f.prefetcher.pattern(codec::ColumnId(0)),
            Prefetcher::Pattern::kStrided);
  EXPECT_EQ(f.prefetcher.stride(codec::ColumnId(0)), 3);
  for (int64_t t : {12, 15, 18, 21}) {
    EXPECT_TRUE(f.cache.Contains(codec::ColumnId(0), t)) << "tile " << t;
  }
  EXPECT_FALSE(f.cache.Contains(codec::ColumnId(0), 13));
}

TEST(PrefetcherTest, RandomAndIdleRoundsStageNothing) {
  PrefetchFixture f;
  f.Access({0, 5, 6});
  EXPECT_EQ(f.prefetcher.IssueRound(), 0u);
  EXPECT_EQ(f.prefetcher.pattern(codec::ColumnId(0)),
            Prefetcher::Pattern::kRandom);
  EXPECT_EQ(f.cache.stats().prefetch_issued, 0u);
  EXPECT_EQ(f.prefetcher.IssueRound(), 0u);  // nothing recorded since
  EXPECT_EQ(f.prefetcher.pattern(codec::ColumnId(0)),
            Prefetcher::Pattern::kIdle);
}

TEST(PrefetcherTest, SequentialToleratesPruningGaps) {
  // 3 of 4 deltas are unit: still sequential (predicate pushdown pruned a
  // tile out of a linear scan).
  PrefetchFixture f;
  f.Access({0, 1, 2, 3, 7});
  EXPECT_GT(f.prefetcher.IssueRound(), 0u);
  EXPECT_EQ(f.prefetcher.pattern(codec::ColumnId(0)),
            Prefetcher::Pattern::kSequential);
}

TEST(PrefetcherTest, PredictionWrapsAroundTheColumn) {
  // A serving workload rescans the column on the next query: the window
  // past the last tile wraps to the front.
  PrefetchFixture f(/*num_tiles=*/16, PrefetchFixture::Opts(4, 4));
  f.Access({13, 14, 15});
  EXPECT_EQ(f.prefetcher.IssueRound(), 4u);
  for (int64_t t : {0, 1, 2, 3}) {
    EXPECT_TRUE(f.cache.Contains(codec::ColumnId(0), t)) << "tile " << t;
  }
}

TEST(PrefetcherTest, ResidentTilesAreSkipped) {
  PrefetchFixture f(/*num_tiles=*/16, PrefetchFixture::Opts(4, 4));
  const std::vector<uint32_t> v = TileValues(1);
  f.cache.Insert(codec::ColumnId(0), 4, v.data(), kTile);
  f.cache.Insert(codec::ColumnId(0), 6, v.data(), kTile);
  f.Access({0, 1, 2, 3});
  // Depth 4 predictions skip the resident tiles 4 and 6: 5, 7, 8, 9.
  EXPECT_EQ(f.prefetcher.IssueRound(), 4u);
  for (int64_t t : {5, 7, 8, 9}) {
    EXPECT_TRUE(f.cache.Contains(codec::ColumnId(0), t)) << "tile " << t;
  }
  EXPECT_EQ(f.cache.stats().prefetch_late, 0u);
}

TEST(PrefetcherTest, FaultedSpeculativeDecodeIsDroppedSilently) {
  fault::FaultPlanOptions fopts;
  fopts.rate[static_cast<int>(fault::FaultSite::kTileDecode)] = 1.0;
  fault::FaultPlan plan(fopts);
  PrefetchFixture f(/*num_tiles=*/16, PrefetchFixture::Opts(), &plan);
  f.Access({0, 1, 2, 3});
  EXPECT_EQ(f.prefetcher.IssueRound(), 4u);
  // Every speculative decode faulted: nothing was cached (no poisoning) and
  // all the work is counted wasted.
  const TileCache::Stats s = f.cache.stats();
  EXPECT_EQ(s.prefetch_issued, 4u);
  EXPECT_EQ(s.prefetch_wasted, 4u);
  EXPECT_EQ(s.speculative_entries, 0u);
  EXPECT_EQ(s.entries, 0u);
  for (int64_t t : {4, 5, 6, 7}) {
    EXPECT_FALSE(f.cache.Contains(codec::ColumnId(0), t)) << "tile " << t;
  }
}

TEST(PrefetcherTest, UnsupportedSchemeIsIgnored) {
  sim::Device dev;
  TileCache cache(256ull << 20);
  Prefetcher prefetcher(dev, &cache, PrefetchFixture::Opts());
  const std::vector<uint32_t> values = PrefetchFixture::MakeValues(8);
  const codec::CompressedColumn raw =
      codec::CompressedColumn::Encode(codec::Scheme::kNone, values);
  prefetcher.RegisterColumn(codec::ColumnId(3), &raw);
  for (int64_t t : {0, 1, 2, 3}) {
    prefetcher.RecordAccess(codec::ColumnId(3), t);
  }
  EXPECT_EQ(prefetcher.IssueRound(), 0u);
  EXPECT_EQ(prefetcher.pattern(codec::ColumnId(3)),
            Prefetcher::Pattern::kIdle);
}

// --- End-to-end: serve with prefetch enabled ---

const ssb::SsbData& TestData() {
  static const ssb::SsbData* data =
      new ssb::SsbData(ssb::GenerateSsbSmall(60000));
  return *data;
}

void ExpectBitExact(const ServeReport& report,
                    const ssb::QueryRunner& runner) {
  for (const ServedQuery& sq : report.queries) {
    const ssb::QueryResult ref = runner.RunHostReference(sq.query);
    EXPECT_EQ(sq.result.groups, ref.groups)
        << "query " << ssb::QueryName(sq.query);
  }
}

TEST(ServerPrefetchTest, BitExactWithPrefetchAcrossPolicies) {
  const ssb::SsbData& data = TestData();
  const ssb::EncodedLineorder enc =
      ssb::EncodeLineorder(data, codec::System::kGpuBp);
  std::vector<ssb::QueryId> batch = ssb::AllQueries();
  const std::vector<ssb::QueryId> again = ssb::AllQueries();
  batch.insert(batch.end(), again.begin(), again.end());

  for (EvictionPolicy policy :
       {EvictionPolicy::kLru, EvictionPolicy::kCostAware}) {
    sim::Device dev;
    ServeOptions options;
    options.num_streams = 2;
    options.policy = policy;
    // Smaller than a single query's decoded working set, so non-resident
    // tiles always exist for the prefetcher to stage into (a bigger budget
    // keeps the last query's columns fully resident and every prediction
    // round would find nothing to do).
    options.cache_budget_bytes = 512ull << 10;
    options.prefetch.enabled = true;
    // Deep enough to cover a whole ~116-tile column: the server enables
    // completion gating for gpubp, which refuses to stage a column whose
    // missing-tile count exceeds the depth — and at this budget entire
    // columns go missing between repeats.
    options.prefetch.initial_depth = 64;
    options.prefetch.max_depth = 128;
    Server server(dev, data, enc, options);
    const ServeReport report = server.Serve(batch);

    ASSERT_EQ(report.queries.size(), batch.size());
    ExpectBitExact(report, server.runner());
    EXPECT_GT(report.prefetch.issued, 0u);
    EXPECT_GT(report.cache.prefetch_hits + report.cache.hits, 0u);
    EXPECT_LE(report.cache.bytes_in_use, options.cache_budget_bytes);
    // Kernel-side and cache-side issue counts agree (failed launches are
    // only visible cache-side, where they are also counted wasted).
    EXPECT_LE(report.prefetch.issued, report.cache.prefetch_issued);
    EXPECT_EQ(report.failed_queries, 0u);
  }
}

TEST(ServerPrefetchTest, PerQueryCountersSumToBatchCounters) {
  const ssb::SsbData& data = TestData();
  const ssb::EncodedLineorder enc =
      ssb::EncodeLineorder(data, codec::System::kGpuBp);
  sim::Device dev;
  ServeOptions options;
  options.num_streams = 2;
  // Half a query's decoded working set: repeats of the same query keep
  // missing, so every round has non-resident tiles to speculate on. The
  // depth must cover a whole ~116-tile column to clear gpubp's completion
  // gate (see BitExactWithPrefetchAcrossPolicies).
  options.cache_budget_bytes = 512ull << 10;
  options.prefetch.enabled = true;
  options.prefetch.initial_depth = 64;
  options.prefetch.max_depth = 128;
  Server server(dev, data, enc, options);
  const ServeReport report =
      server.Serve({ssb::QueryId::kQ21, ssb::QueryId::kQ21,
                    ssb::QueryId::kQ21, ssb::QueryId::kQ21});

  sim::PrefetchCounters sum;
  for (const ServedQuery& sq : report.queries) sum += sq.prefetch;
  EXPECT_EQ(sum.issued, report.prefetch.issued);
  EXPECT_EQ(sum.useful, report.prefetch.useful);
  EXPECT_EQ(sum.wasted, report.prefetch.wasted);
  EXPECT_EQ(sum.late, report.prefetch.late);
  EXPECT_GT(report.prefetch.issued, 0u);
}

TEST(ServerPrefetchTest, PrefetchOffLeavesCountersZero) {
  const ssb::SsbData& data = TestData();
  const ssb::EncodedLineorder enc =
      ssb::EncodeLineorder(data, codec::System::kGpuBp);
  sim::Device dev;
  ServeOptions options;
  options.num_streams = 2;
  Server server(dev, data, enc, options);
  const ServeReport report =
      server.Serve({ssb::QueryId::kQ21, ssb::QueryId::kQ21});
  EXPECT_EQ(server.prefetcher(), nullptr);
  EXPECT_EQ(report.prefetch.issued, 0u);
  EXPECT_EQ(report.cache.prefetch_issued, 0u);
  EXPECT_EQ(report.cache.prefetch_hits, 0u);
}

}  // namespace
}  // namespace tilecomp::serve
