// Tests for the query-serving layer: TileCache replacement/pinning/budget
// semantics (scripted, single-threaded, so every counter is exact) and the
// Server's multi-stream serving loop (stress-tested for bit-exactness
// against the host reference executor, cache on and off).
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "codec/systems.h"
#include "fixed_batch_contract.h"
#include "gtest/gtest.h"
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

// --- TileCache: scripted single-threaded semantics ---

TEST(TileCacheTest, HitMissCountersAreExact) {
  TileCache cache(4 * kTileBytes);
  const std::vector<uint32_t> v = TileValues(7);

  EXPECT_FALSE(cache.Lookup(codec::ColumnId(0), 0).valid());  // miss
  cache.Insert(codec::ColumnId(0), 0, v.data(), kTile);
  EXPECT_TRUE(cache.Lookup(codec::ColumnId(0), 0, /*saved_encoded_bytes=*/100).valid());
  EXPECT_TRUE(cache.Lookup(codec::ColumnId(0), 0, /*saved_encoded_bytes=*/100).valid());
  EXPECT_FALSE(cache.Lookup(codec::ColumnId(0), 1).valid());
  EXPECT_FALSE(cache.Lookup(codec::ColumnId(1), 0).valid());  // same tile id, other column

  const TileCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.saved_bytes, 200u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes_in_use, kTileBytes);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.4);
}

TEST(TileCacheTest, LruEvictsLeastRecentlyUsed) {
  TileCache cache(3 * kTileBytes, EvictionPolicy::kLru);
  const std::vector<uint32_t> v = TileValues(1);
  for (uint32_t t = 0; t < 3; ++t) cache.Insert(codec::ColumnId(0), t, v.data(), kTile);

  // Touch tile 0: tile 1 becomes the LRU victim.
  EXPECT_TRUE(cache.Lookup(codec::ColumnId(0), 0).valid());
  cache.Insert(codec::ColumnId(0), 3, v.data(), kTile);

  EXPECT_TRUE(cache.Contains(codec::ColumnId(0), 0));
  EXPECT_FALSE(cache.Contains(codec::ColumnId(0), 1));
  EXPECT_TRUE(cache.Contains(codec::ColumnId(0), 2));
  EXPECT_TRUE(cache.Contains(codec::ColumnId(0), 3));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(TileCacheTest, PinBlocksEviction) {
  TileCache cache(2 * kTileBytes, EvictionPolicy::kLru);
  const std::vector<uint32_t> v = TileValues(3);

  TileCache::PinnedTile pinned = cache.Insert(codec::ColumnId(0), 0, v.data(), kTile);
  ASSERT_TRUE(pinned.valid());
  cache.Insert(codec::ColumnId(0), 1, v.data(), kTile);

  // Tile 0 is the LRU victim but is pinned: tile 1 is evicted instead.
  cache.Insert(codec::ColumnId(0), 2, v.data(), kTile);
  EXPECT_TRUE(cache.Contains(codec::ColumnId(0), 0));
  EXPECT_FALSE(cache.Contains(codec::ColumnId(0), 1));

  // Pin the remaining entry too: now nothing can be evicted and the insert
  // is refused, never exceeding the budget.
  TileCache::PinnedTile pinned2 = cache.Lookup(codec::ColumnId(0), 2);
  ASSERT_TRUE(pinned2.valid());
  TileCache::PinnedTile refused = cache.Insert(codec::ColumnId(0), 3, v.data(), kTile);
  EXPECT_FALSE(refused.valid());
  EXPECT_EQ(cache.stats().insert_failures, 1u);
  EXPECT_LE(cache.stats().bytes_in_use, cache.budget_bytes());

  // Releasing the pins makes room again.
  pinned.Release();
  pinned2.Release();
  EXPECT_TRUE(cache.Insert(codec::ColumnId(0), 3, v.data(), kTile).valid());
}

TEST(TileCacheTest, OversizedEntryIsRefused) {
  TileCache cache(kTileBytes / 2);
  const std::vector<uint32_t> v = TileValues(4);
  EXPECT_FALSE(cache.Insert(codec::ColumnId(0), 0, v.data(), kTile).valid());
  EXPECT_EQ(cache.stats().insert_failures, 1u);
  EXPECT_EQ(cache.stats().bytes_in_use, 0u);
}

TEST(TileCacheTest, BudgetNeverExceededUnderChurn) {
  const uint64_t budget = 5 * kTileBytes + 100;  // deliberately unaligned
  for (EvictionPolicy policy :
       {EvictionPolicy::kLru, EvictionPolicy::kCostAware}) {
    TileCache cache(budget, policy);
    uint64_t state = 12345;
    for (int i = 0; i < 2000; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const uint32_t col = static_cast<uint32_t>(state >> 32) % 3;
      const int64_t tile = static_cast<int64_t>((state >> 16) % 40);
      // Variable tile sizes exercise partial tail tiles.
      const uint32_t count = 1 + static_cast<uint32_t>(state % kTile);
      if (state % 3 == 0) {
        std::vector<uint32_t> v(count, col);
        cache.Insert(codec::ColumnId(col), tile, v.data(), count);
      } else {
        TileCache::PinnedTile pin = cache.Lookup(codec::ColumnId(col), tile);
        if (pin.valid()) {
          EXPECT_EQ(pin.data()[0], col);
        }
      }
      ASSERT_LE(cache.stats().bytes_in_use, budget);
    }
    const TileCache::Stats s = cache.stats();
    EXPECT_GT(s.hits, 0u);
    EXPECT_GT(s.evictions, 0u);
  }
}

TEST(TileCacheTest, DuplicateInsertPinsExistingEntry) {
  TileCache cache(4 * kTileBytes);
  const std::vector<uint32_t> a = TileValues(10);
  const std::vector<uint32_t> b = TileValues(20);
  cache.Insert(codec::ColumnId(0), 0, a.data(), kTile);
  TileCache::PinnedTile pin = cache.Insert(codec::ColumnId(0), 0, b.data(), kTile);
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(pin.data()[0], 10u);  // first insert wins
  EXPECT_EQ(cache.stats().inserts, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(TileCacheDeathTest, OversizedTileIdAbortsInRelease) {
  // An out-of-range tile id would silently alias another column's key and
  // serve its data. The guard is a release-mode CHECK (not a DCHECK), so it
  // must fire in every build configuration.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TileCache cache(4 * kTileBytes);
  const std::vector<uint32_t> v = TileValues(9);
  EXPECT_DEATH(cache.Insert(codec::ColumnId(0), int64_t{1} << 32, v.data(), kTile),
               "tile_id out of the 32-bit key range");
  EXPECT_DEATH(cache.Lookup(codec::ColumnId(0), int64_t{-1}),
               "tile_id out of the 32-bit key range");
}

TEST(TileCacheTest, ClearKeepsPinnedEntries) {
  TileCache cache(4 * kTileBytes);
  const std::vector<uint32_t> v = TileValues(5);
  TileCache::PinnedTile pin = cache.Insert(codec::ColumnId(0), 0, v.data(), kTile);
  cache.Insert(codec::ColumnId(0), 1, v.data(), kTile);
  cache.Clear();
  EXPECT_TRUE(cache.Contains(codec::ColumnId(0), 0));
  EXPECT_FALSE(cache.Contains(codec::ColumnId(0), 1));
  pin.Release();
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes_in_use, 0u);
}

// --- Latency percentiles ---

TEST(PercentileTest, NearestRankPinsKnownVectors) {
  // n = 10, values 1..10 (shuffled — the function sorts): nearest-rank
  // p50 = ceil(0.50 * 10) = 5th value, p95 = ceil(9.5) = 10th, p99 = 10th.
  // The old floored rank (n-1)*95/100 = index 8 read the 9th value for p95
  // — the ~85th percentile of a 10-sample set.
  const std::vector<double> ten = {7, 1, 10, 3, 5, 2, 9, 4, 8, 6};
  EXPECT_DOUBLE_EQ(NearestRankPercentile(ten, 50), 5.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(ten, 95), 10.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(ten, 99), 10.0);

  // n = 20, values 1..20: p50 = 10th, p95 = ceil(19.0) = 19th, p99 = 20th.
  std::vector<double> twenty;
  for (int i = 1; i <= 20; ++i) twenty.push_back(i);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(twenty, 50), 10.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(twenty, 95), 19.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(twenty, 99), 20.0);

  // n = 100: p99 is the 99th value, distinct from the max.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(hundred, 95), 95.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(hundred, 99), 99.0);

  // Degenerate inputs: a single sample is every percentile; empty is 0.
  EXPECT_DOUBLE_EQ(NearestRankPercentile({42.0}, 50), 42.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile({42.0}, 99), 42.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile({}, 95), 0.0);
}

// --- CachedTileLoader: saved-bytes crediting ---

TEST(CachedTileLoaderTest, PoisonedHitIsNeverCreditedSaved) {
  // Regression: saved_bytes used to be credited at Lookup time, before the
  // loader's poison draw — a hit that was then discarded and re-decoded
  // still counted as "bytes saved". The credit must land only once the hit
  // is actually served.
  sim::Device dev;
  TileCache cache(4 * kTileBytes);
  std::vector<uint32_t> values(kTile);
  std::iota(values.begin(), values.end(), 100u);
  const codec::CompressedColumn column =
      codec::CompressedColumn::Encode(codec::Scheme::kGpuFor, values);
  const uint64_t tile_bytes = TileEncodedBytes(column);
  ASSERT_GT(tile_bytes, 0u);

  sim::LaunchConfig cfg;
  cfg.grid_dim = 1;

  // Clean loader: miss + insert, then a served hit credits exactly one
  // tile's encoded footprint.
  CachedTileLoader clean(&cache);
  dev.Launch("test.load", cfg, [&](sim::BlockContext& ctx) {
    uint32_t buf[crystal::kTileSize];
    clean.LoadTile(ctx, column, codec::ColumnId(0), 0, buf);
    const uint32_t n = clean.LoadTile(ctx, column, codec::ColumnId(0), 0, buf);
    EXPECT_EQ(n, kTile);
    EXPECT_EQ(buf[0], 100u);
  });
  TileCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.saved_bytes, tile_bytes);

  // Poisoned loader (kTileDecode always fires): the hit is counted and the
  // entry invalidated, but no saved bytes are credited — and the fallback
  // decode fails terminally, raising the sticky flag.
  fault::FaultPlanOptions fopts;
  fopts.rate[static_cast<int>(fault::FaultSite::kTileDecode)] = 1.0;
  fault::FaultPlan plan(fopts);
  CachedTileLoader poisoned(&cache, &plan);
  dev.Launch("test.poisoned", cfg, [&](sim::BlockContext& ctx) {
    uint32_t buf[crystal::kTileSize];
    poisoned.LoadTile(ctx, column, codec::ColumnId(0), 0, buf);
  });
  s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.saved_bytes, tile_bytes);  // unchanged by the poisoned hit
  EXPECT_TRUE(poisoned.TakeDecodeFailure());
  EXPECT_FALSE(poisoned.TakeDecodeFailure());  // flag is consumed
}

// --- Server: multi-stream serving loop ---

const ssb::SsbData& TestData() {
  static const ssb::SsbData* data =
      new ssb::SsbData(ssb::GenerateSsbSmall(60000));
  return *data;
}

std::vector<ssb::QueryId> StressBatch() {
  // Every query twice, interleaved, so the second round hits tiles the
  // first round inserted.
  std::vector<ssb::QueryId> batch = ssb::AllQueries();
  const std::vector<ssb::QueryId> again = ssb::AllQueries();
  batch.insert(batch.end(), again.begin(), again.end());
  return batch;
}

void ExpectBitExact(const ServeReport& report,
                    const ssb::QueryRunner& runner) {
  for (const ServedQuery& sq : report.queries) {
    const ssb::QueryResult ref = runner.RunHostReference(sq.query);
    EXPECT_EQ(sq.result.groups, ref.groups)
        << "query " << ssb::QueryName(sq.query);
  }
}

TEST(ServerTest, InlineSystemBitExactCacheOnAndOff) {
  const ssb::SsbData& data = TestData();
  const ssb::EncodedLineorder enc =
      ssb::EncodeLineorder(data, codec::System::kGpuStar);
  const std::vector<ssb::QueryId> batch = StressBatch();

  for (bool use_cache : {false, true}) {
    sim::Device dev;
    ServeOptions options;
    options.num_streams = 2;
    options.use_cache = use_cache;
    options.cache_budget_bytes = 256ull << 20;  // holds the working set
    Server server(dev, data, enc, options);
    const ServeReport report = server.Serve(batch);

    ASSERT_EQ(report.queries.size(), batch.size());
    ExpectBitExact(report, server.runner());
    EXPECT_GT(report.makespan_ms, 0.0);
    EXPECT_GE(report.p95_latency_ms, report.p50_latency_ms);
    EXPECT_GE(report.p99_latency_ms, report.p95_latency_ms);
    // Nearest-rank over the per-query latencies, recomputed here: the
    // report's percentiles must match the pinned definition exactly.
    std::vector<double> lats;
    for (const ServedQuery& sq : report.queries) lats.push_back(sq.latency_ms);
    EXPECT_DOUBLE_EQ(report.p50_latency_ms, NearestRankPercentile(lats, 50));
    EXPECT_DOUBLE_EQ(report.p95_latency_ms, NearestRankPercentile(lats, 95));
    EXPECT_DOUBLE_EQ(report.p99_latency_ms, NearestRankPercentile(lats, 99));
    if (use_cache) {
      EXPECT_GT(report.cache.hits, 0u);
      EXPECT_GT(report.cache.saved_bytes, 0u);
      EXPECT_LE(report.cache.bytes_in_use, options.cache_budget_bytes);
    } else {
      EXPECT_EQ(report.cache.accesses(), 0u);
    }
  }
}

TEST(ServerTest, InlineSystemBitExactUnderEvictionPressure) {
  // A budget far below the working set forces constant eviction while
  // kernel-body threads are hitting the cache concurrently.
  const ssb::SsbData& data = TestData();
  const ssb::EncodedLineorder enc =
      ssb::EncodeLineorder(data, codec::System::kGpuStar);
  for (EvictionPolicy policy :
       {EvictionPolicy::kLru, EvictionPolicy::kCostAware}) {
    sim::Device dev;
    ServeOptions options;
    options.num_streams = 4;
    options.use_cache = true;
    options.policy = policy;
    options.cache_budget_bytes = 64 * kTileBytes;
    Server server(dev, data, enc, options);
    const ServeReport report = server.Serve(StressBatch());
    ExpectBitExact(report, server.runner());
    EXPECT_GT(report.cache.evictions, 0u);
    EXPECT_LE(report.cache.bytes_in_use, options.cache_budget_bytes);
  }
}

TEST(ServerTest, DecompressSystemSkipsLaunchesWhenResident) {
  const ssb::SsbData& data = TestData();
  const ssb::EncodedLineorder enc =
      ssb::EncodeLineorder(data, codec::System::kGpuBp);
  // q2.1 twice: the second run finds every column tile resident.
  const std::vector<ssb::QueryId> batch = {ssb::QueryId::kQ21,
                                           ssb::QueryId::kQ21};

  sim::Device dev_off;
  ServeOptions off;
  off.num_streams = 1;
  off.use_cache = false;
  Server server_off(dev_off, data, enc, off);
  const ServeReport report_off = server_off.Serve(batch);

  sim::Device dev_on;
  ServeOptions on;
  on.num_streams = 1;
  on.use_cache = true;
  on.cache_budget_bytes = 256ull << 20;
  Server server_on(dev_on, data, enc, on);
  const ServeReport report_on = server_on.Serve(batch);

  ExpectBitExact(report_off, server_off.runner());
  ExpectBitExact(report_on, server_on.runner());

  // Second query's columns were all resident: its decompress launches were
  // skipped entirely, and the batch read less global memory.
  EXPECT_EQ(report_on.decompress_skips, 4u);  // q2.1 touches 4 columns
  EXPECT_GT(report_on.cache.hits, 0u);
  EXPECT_LT(report_on.global_bytes_read, report_off.global_bytes_read);
}

TEST(ServerTest, KernelAndCacheSavedBytesAgree) {
  // The kernels' per-block saved-bytes accounting and the cache's own
  // counter are two independent tallies of the same credits; for an inline
  // system (no decompress-skip credits outside kernels) they must agree
  // exactly — a mismatch means a credit was double-counted or dropped.
  const ssb::SsbData& data = TestData();
  const ssb::EncodedLineorder enc =
      ssb::EncodeLineorder(data, codec::System::kGpuStar);
  sim::Device dev;
  ServeOptions options;
  options.num_streams = 2;
  options.cache_budget_bytes = 256ull << 20;
  Server server(dev, data, enc, options);
  const ServeReport report = server.Serve(StressBatch());
  ExpectBitExact(report, server.runner());

  uint64_t kernel_saved = 0;
  for (const sim::KernelResult& kr : dev.launch_log()) {
    kernel_saved += kr.stats.cache.saved_bytes;
  }
  EXPECT_GT(report.cache.saved_bytes, 0u);
  EXPECT_EQ(kernel_saved, report.cache.saved_bytes);
}

TEST(ServerTest, FixedBatchStartsOnLowestFreeStream) {
  // The first num_streams queries start at once on streams 0..2; every
  // later one starts as a stream frees, on the lowest-numbered free one.
  const ssb::SsbData& data = TestData();
  const ssb::EncodedLineorder enc =
      ssb::EncodeLineorder(data, codec::System::kNone);
  sim::Device dev;
  ServeOptions options;
  options.num_streams = 3;
  Server server(dev, data, enc, options);
  const ServeReport report = server.Serve(
      {ssb::QueryId::kQ11, ssb::QueryId::kQ12, ssb::QueryId::kQ13,
       ssb::QueryId::kQ11});
  ASSERT_EQ(report.queries.size(), 4u);
  EXPECT_EQ(report.queries[1].stream, report.queries[0].stream + 1);
  EXPECT_EQ(report.queries[2].stream, report.queries[0].stream + 2);
  ExpectFixedBatchContract(report, 3);
  for (const ServedQuery& sq : report.queries) {
    EXPECT_GE(sq.latency_ms, 0.0);
    EXPECT_LE(sq.finish_ms - sq.admit_ms, report.makespan_ms + 1e-9);
  }
}

TEST(ServerTest, FixedBatchNeverQueuesOrSheds) {
  // A fixed batch is a BatchWorkload driven by ServeLoad: request ids are
  // batch positions, and every arrival finds a free stream whatever the
  // admission settings — even a zero-capacity shedding queue. The cache is
  // off so the timeline does not depend on eviction order. The second batch
  // on the same server starts from a non-zero device clock.
  const ssb::SsbData& data = TestData();
  const ssb::EncodedLineorder enc =
      ssb::EncodeLineorder(data, codec::System::kGpuStar);
  const std::vector<ssb::QueryId> batch = StressBatch();
  for (AdmissionPolicy policy :
       {AdmissionPolicy::kShedLowPriority, AdmissionPolicy::kQueueAll}) {
    sim::Device dev;
    ServeOptions options;
    options.num_streams = 3;
    options.use_cache = false;
    options.admission.policy = policy;
    options.admission.queue_capacity = 0;
    Server server(dev, data, enc, options);
    for (int round = 0; round < 2; ++round) {
      const ServeReport report = server.Serve(batch);
      ASSERT_EQ(report.queries.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        const ServedQuery& sq = report.queries[i];
        EXPECT_EQ(sq.request_id, i);
        EXPECT_EQ(sq.query, batch[i]);
        EXPECT_EQ(sq.cls, load::ClassOf(batch[i]));
        EXPECT_EQ(sq.status, QueryStatus::kOk);
      }
      ExpectFixedBatchContract(report, 3);
      ExpectBitExact(report, server.runner());
    }
  }
}

}  // namespace
}  // namespace tilecomp::serve
