// Tests for the fault-injection harness: FaultPlan determinism and rate
// statistics, the device's transfer/launch retry + degradation paths, the
// tile cache's insert-refusal and invalidate/zombie semantics, the loader's
// poisoned-tile recovery, and the server-level fault matrix — at every fault
// rate each SSB query either returns bit-exact results or a clean per-query
// error status; never a wrong answer, never an abort.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "codec/systems.h"
#include "fault/fault.h"
#include "serve/server.h"
#include "serve/tile_cache.h"
#include "sim/device.h"
#include "ssb/generator.h"
#include "ssb/queries.h"

namespace tilecomp {
namespace {

using fault::FaultPlan;
using fault::FaultPlanOptions;
using fault::FaultSite;
using fault::FaultStats;

constexpr uint32_t kTile = 512;
constexpr uint64_t kTileBytes = kTile * sizeof(uint32_t);

FaultPlanOptions RateAt(FaultSite site, double rate, uint64_t seed = 1) {
  FaultPlanOptions options;
  options.seed = seed;
  options.rate[static_cast<size_t>(site)] = rate;
  return options;
}

// --- FaultPlan: determinism and statistics ---

TEST(FaultPlanTest, SequenceDrawsAreDeterministic) {
  FaultPlan a(FaultPlanOptions::Uniform(0.3, /*seed=*/42));
  FaultPlan b(FaultPlanOptions::Uniform(0.3, /*seed=*/42));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.ShouldFault(FaultSite::kTransfer),
              b.ShouldFault(FaultSite::kTransfer));
    EXPECT_EQ(a.ShouldFault(FaultSite::kKernelLaunch),
              b.ShouldFault(FaultSite::kKernelLaunch));
  }
  // Reset replays the identical decision sequence.
  const FaultStats before = a.stats();
  a.Reset();
  for (int i = 0; i < 1000; ++i) {
    a.ShouldFault(FaultSite::kTransfer);
    a.ShouldFault(FaultSite::kKernelLaunch);
  }
  const FaultStats after = a.stats();
  EXPECT_EQ(before.injected, after.injected);
  EXPECT_EQ(before.consults, after.consults);
}

TEST(FaultPlanTest, KeyDrawsDependOnlyOnKey) {
  FaultPlan plan(FaultPlanOptions::Uniform(0.5, /*seed=*/7));
  // The same key decides the same way regardless of consult order or
  // interleaving — the property concurrent sites rely on.
  std::vector<bool> forward, backward;
  for (uint64_t k = 0; k < 500; ++k) {
    forward.push_back(plan.ShouldFault(FaultSite::kTileDecode, k));
  }
  for (uint64_t k = 500; k-- > 0;) {
    backward.push_back(plan.ShouldFault(FaultSite::kTileDecode, k));
  }
  for (size_t i = 0; i < forward.size(); ++i) {
    EXPECT_EQ(forward[i], backward[forward.size() - 1 - i]);
  }
}

TEST(FaultPlanTest, SitesDrawIndependently) {
  // The same sequence position at two different sites must not be
  // correlated — count the draws where they disagree.
  FaultPlan plan(FaultPlanOptions::Uniform(0.5, /*seed=*/3));
  int disagreements = 0;
  for (int i = 0; i < 2000; ++i) {
    const bool t = plan.ShouldFault(FaultSite::kTransfer);
    const bool l = plan.ShouldFault(FaultSite::kKernelLaunch);
    if (t != l) ++disagreements;
  }
  // Independent fair coins disagree half the time; allow a wide margin.
  EXPECT_GT(disagreements, 800);
  EXPECT_LT(disagreements, 1200);
}

TEST(FaultPlanTest, InjectionRateMatchesConfiguredRate) {
  for (double rate : {0.0, 0.01, 0.1, 0.5, 1.0}) {
    FaultPlan plan(FaultPlanOptions::Uniform(rate, /*seed=*/11));
    const int n = 20000;
    for (int i = 0; i < n; ++i) plan.ShouldFault(FaultSite::kTransfer);
    const FaultStats s = plan.stats();
    const size_t site = static_cast<size_t>(FaultSite::kTransfer);
    EXPECT_EQ(s.consults[site], static_cast<uint64_t>(n));
    const double observed = static_cast<double>(s.injected[site]) / n;
    EXPECT_NEAR(observed, rate, 0.01) << "rate " << rate;
  }
}

TEST(FaultPlanTest, BackoffIsCappedExponential) {
  FaultPlanOptions options;
  options.backoff_base_ms = 0.02;
  options.backoff_cap_ms = 0.5;
  FaultPlan plan(options);
  EXPECT_DOUBLE_EQ(plan.BackoffMs(0), 0.02);
  EXPECT_DOUBLE_EQ(plan.BackoffMs(1), 0.04);
  EXPECT_DOUBLE_EQ(plan.BackoffMs(2), 0.08);
  EXPECT_DOUBLE_EQ(plan.BackoffMs(10), 0.5);   // capped
  EXPECT_DOUBLE_EQ(plan.BackoffMs(200), 0.5);  // no overflow at huge attempts
}

// --- Device: transfer and launch degradation ---

TEST(DeviceFaultTest, TransferRetriesThenSucceeds) {
  // Rate 0: no faults, single attempt, identical to the plain path.
  sim::Device dev;
  FaultPlan none(FaultPlanOptions::Uniform(0.0));
  dev.AttachFaultPlan(&none);
  const sim::Device::TransferResult ok = dev.TryTransfer(1 << 20);
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.retries, 0);
  sim::Device plain;
  EXPECT_DOUBLE_EQ(ok.ms, plain.TransferAsync(sim::kDefaultStream, 1 << 20));
}

TEST(DeviceFaultTest, TransferExhaustsAttemptsCleanly) {
  // Rate 1: every attempt faults; the transfer reports failure after the
  // budget, charging every attempt plus backoff to the timeline. No abort.
  sim::Device dev;
  FaultPlanOptions options = RateAt(FaultSite::kTransfer, 1.0);
  FaultPlan plan(options);
  dev.AttachFaultPlan(&plan);
  const double attempt_ms =
      sim::EstimateTransferMs(dev.spec(), 1 << 20);
  const sim::Device::TransferResult r = dev.TryTransfer(1 << 20);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.retries, options.max_transfer_attempts - 1);
  double expect_ms = 0.0;
  for (int a = 0; a < options.max_transfer_attempts; ++a) {
    expect_ms += attempt_ms + plan.BackoffMs(a);
  }
  EXPECT_DOUBLE_EQ(r.ms, expect_ms);
  EXPECT_DOUBLE_EQ(dev.elapsed_ms(), expect_ms);
  const FaultStats s = plan.stats();
  EXPECT_EQ(s.retries, static_cast<uint64_t>(r.retries));
  EXPECT_EQ(s.terminal_failures, 1u);
}

TEST(DeviceFaultTest, FailedLaunchNeverRunsItsBody) {
  sim::Device dev;
  FaultPlan plan(RateAt(FaultSite::kKernelLaunch, 1.0));
  dev.AttachFaultPlan(&plan);
  sim::LaunchConfig lc;
  lc.grid_dim = 16;
  lc.block_threads = 128;
  int bodies_run = 0;
  const sim::KernelResult r =
      dev.Launch("doomed", lc, [&bodies_run](sim::BlockContext&) {
        ++bodies_run;  // must never execute
      });
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(bodies_run, 0);
  EXPECT_EQ(r.fault_retries, plan.options().max_launch_attempts - 1);
  EXPECT_EQ(r.stats.global_bytes_total(), 0u);
  EXPECT_GT(r.time_ms, 0.0);  // the failed issue attempts still cost time
  EXPECT_EQ(plan.stats().terminal_failures, 1u);
}

TEST(DeviceFaultTest, LaunchWithoutPlanIsUnchanged) {
  sim::Device dev;
  sim::LaunchConfig lc;
  lc.grid_dim = 4;
  lc.block_threads = 128;
  const sim::KernelResult r = dev.Launch(lc, [](sim::BlockContext& ctx) {
    ctx.CoalescedRead(4096, true);
  });
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.fault_retries, 0);
}

// --- TileCache: insert refusal, invalidate, zombies ---

TEST(CacheFaultTest, InsertFaultRefusesWithoutCorruption) {
  serve::TileCache cache(16 * kTileBytes);
  FaultPlan plan(RateAt(FaultSite::kCacheInsert, 1.0));
  cache.set_fault_plan(&plan);
  const std::vector<uint32_t> v(kTile, 5);
  EXPECT_FALSE(cache.Insert(codec::ColumnId(0), 0, v.data(), kTile).valid());
  EXPECT_EQ(cache.stats().insert_failures, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes_in_use, 0u);
  // Detach: inserts work again.
  cache.set_fault_plan(nullptr);
  EXPECT_TRUE(cache.Insert(codec::ColumnId(0), 0, v.data(), kTile).valid());
}

TEST(CacheFaultTest, InvalidateUnpinnedFreesImmediately) {
  serve::TileCache cache(16 * kTileBytes);
  const std::vector<uint32_t> v(kTile, 7);
  cache.Insert(codec::ColumnId(0), 0, v.data(), kTile);
  EXPECT_TRUE(cache.Contains(codec::ColumnId(0), 0));
  EXPECT_TRUE(cache.Invalidate(codec::ColumnId(0), 0));
  EXPECT_FALSE(cache.Contains(codec::ColumnId(0), 0));
  EXPECT_FALSE(cache.Invalidate(codec::ColumnId(0), 0));  // already gone
  const serve::TileCache::Stats s = cache.stats();
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.evictions, 0u);  // invalidations are not evictions
  EXPECT_EQ(s.bytes_in_use, 0u);
  EXPECT_EQ(s.entries, 0u);
}

TEST(CacheFaultTest, InvalidateWhilePinnedKeepsHandleAliveAsZombie) {
  serve::TileCache cache(16 * kTileBytes);
  const std::vector<uint32_t> old_data(kTile, 1);
  const std::vector<uint32_t> new_data(kTile, 2);
  serve::TileCache::PinnedTile pin =
      cache.Insert(codec::ColumnId(3), 9, old_data.data(), kTile);
  ASSERT_TRUE(pin.valid());

  EXPECT_TRUE(cache.Invalidate(codec::ColumnId(3), 9));
  // Unlinked: probes miss, but the live handle still reads the old storage.
  EXPECT_FALSE(cache.Contains(codec::ColumnId(3), 9));
  EXPECT_FALSE(cache.Lookup(codec::ColumnId(3), 9).valid());
  EXPECT_EQ(pin.data()[0], 1u);
  // The key is immediately free for fresh data.
  serve::TileCache::PinnedTile fresh =
      cache.Insert(codec::ColumnId(3), 9, new_data.data(), kTile);
  ASSERT_TRUE(fresh.valid());
  EXPECT_EQ(fresh.data()[0], 2u);
  EXPECT_EQ(pin.data()[0], 1u);  // zombie storage untouched
  // Zombie bytes stay accounted until the last pin releases.
  EXPECT_EQ(cache.stats().bytes_in_use, 2 * kTileBytes);
  pin.Release();
  EXPECT_EQ(cache.stats().bytes_in_use, kTileBytes);
  fresh.Release();
  // Destructor CHECKs that no zombies leak — reaching the end cleanly is
  // part of the assertion.
}

// --- Server-level recovery paths ---

const ssb::SsbData& TestData() {
  static const ssb::SsbData* data =
      new ssb::SsbData(ssb::GenerateSsbSmall(60000));
  return *data;
}

std::vector<ssb::QueryId> StressBatch() {
  std::vector<ssb::QueryId> batch = ssb::AllQueries();
  const std::vector<ssb::QueryId> again = ssb::AllQueries();
  batch.insert(batch.end(), again.begin(), again.end());
  return batch;
}

TEST(ServerFaultTest, CacheInsertFaultsFallBackToInlineDecode) {
  // Every cache insert refused: the loader decodes inline every time and
  // results stay bit-exact — the cache degrades to a no-op, not to garbage.
  const ssb::SsbData& data = TestData();
  const ssb::EncodedLineorder enc =
      ssb::EncodeLineorder(data, codec::System::kGpuStar);
  FaultPlan plan(RateAt(FaultSite::kCacheInsert, 1.0));
  sim::Device dev;
  serve::ServeOptions options;
  options.num_streams = 2;
  options.fault_plan = &plan;
  serve::Server server(dev, data, enc, options);
  const serve::ServeReport report = server.Serve(StressBatch());
  EXPECT_EQ(report.cache.inserts, 0u);
  EXPECT_GT(report.cache.insert_failures, 0u);
  EXPECT_EQ(report.failed_queries, 0u);
  for (const serve::ServedQuery& sq : report.queries) {
    EXPECT_EQ(sq.status, serve::QueryStatus::kOk);
    EXPECT_EQ(sq.result.groups,
              server.runner().RunHostReference(sq.query).groups)
        << ssb::QueryName(sq.query);
  }
}

TEST(ServerFaultTest, PoisonedTilesAreInvalidatedNeverServedStale) {
  // Poison rate on the hit path: poisoned entries are invalidated and
  // freshly re-decoded, so every query stays bit-exact (decode itself never
  // fails terminally here: only the kTileDecode *sequence* draws fire, and
  // the miss-path keyed draws share the site rate — so use a moderate rate
  // and a decode budget that absorbs them).
  const ssb::SsbData& data = TestData();
  const ssb::EncodedLineorder enc =
      ssb::EncodeLineorder(data, codec::System::kGpuStar);
  FaultPlanOptions options = RateAt(FaultSite::kTileDecode, 0.2);
  options.max_decode_attempts = 64;  // poison often, fail (essentially) never
  FaultPlan plan(options);
  sim::Device dev;
  serve::ServeOptions sopts;
  sopts.num_streams = 2;
  sopts.fault_plan = &plan;
  serve::Server server(dev, data, enc, sopts);
  const serve::ServeReport report = server.Serve(StressBatch());
  EXPECT_GT(report.cache.invalidations, 0u);
  for (const serve::ServedQuery& sq : report.queries) {
    if (sq.status != serve::QueryStatus::kOk) continue;
    EXPECT_EQ(sq.result.groups,
              server.runner().RunHostReference(sq.query).groups)
        << ssb::QueryName(sq.query);
  }
}

TEST(ServerFaultTest, TerminalDecodeFailureFlagsQueryCleanly) {
  // Decode faults with attempts = 1: any fired draw is terminal. Failed
  // queries carry kDecodeFailed — no abort, no exception — and every query
  // that reports kOk must still be bit-exact (the zeroed tiles never leak
  // into an OK result).
  const ssb::SsbData& data = TestData();
  const ssb::EncodedLineorder enc =
      ssb::EncodeLineorder(data, codec::System::kGpuStar);
  FaultPlanOptions options = RateAt(FaultSite::kTileDecode, 0.02);
  options.max_decode_attempts = 1;
  FaultPlan plan(options);
  sim::Device dev;
  serve::ServeOptions sopts;
  sopts.num_streams = 2;
  sopts.fault_plan = &plan;
  serve::Server server(dev, data, enc, sopts);
  const serve::ServeReport report = server.Serve(StressBatch());
  uint64_t failed = 0;
  for (const serve::ServedQuery& sq : report.queries) {
    if (sq.status == serve::QueryStatus::kOk) {
      EXPECT_EQ(sq.result.groups,
                server.runner().RunHostReference(sq.query).groups)
          << ssb::QueryName(sq.query);
    } else {
      EXPECT_EQ(sq.status, serve::QueryStatus::kDecodeFailed);
      ++failed;
    }
  }
  EXPECT_EQ(report.failed_queries, failed);
  // At a 2% per-tile rate over ~hundred-tile columns some query must have
  // tripped a terminal decode failure.
  EXPECT_GT(failed, 0u);
  EXPECT_GT(report.faults.terminal_failures, 0u);
}

TEST(ServerFaultTest, FaultMatrixBitExactOrCleanStatus) {
  // The acceptance sweep in miniature: systems x rates x seeds. At every
  // point each query either matches the host reference bit-exactly or
  // carries a clean non-kOk status. Wrong answers fail the test; aborts
  // crash it.
  const ssb::SsbData& data = TestData();
  const std::vector<ssb::QueryId> batch = {
      ssb::QueryId::kQ11, ssb::QueryId::kQ21, ssb::QueryId::kQ31,
      ssb::QueryId::kQ41, ssb::QueryId::kQ21, ssb::QueryId::kQ11};
  for (codec::System system :
       {codec::System::kGpuStar, codec::System::kGpuBp}) {
    const ssb::EncodedLineorder enc = ssb::EncodeLineorder(data, system);
    for (double rate : {0.0, 0.02, 0.1}) {
      for (uint64_t seed : {1ull, 77ull}) {
        FaultPlan plan(FaultPlanOptions::Uniform(rate, seed));
        sim::Device dev;
        serve::ServeOptions options;
        options.num_streams = 2;
        options.fault_plan = &plan;
        options.model_transfers = true;
        serve::Server server(dev, data, enc, options);
        const serve::ServeReport report = server.Serve(batch);
        ASSERT_EQ(report.queries.size(), batch.size());
        uint64_t failed = 0;
        for (const serve::ServedQuery& sq : report.queries) {
          if (sq.status == serve::QueryStatus::kOk) {
            EXPECT_EQ(sq.result.groups,
                      server.runner().RunHostReference(sq.query).groups)
                << ssb::QueryName(sq.query) << " system "
                << codec::SystemName(system) << " rate " << rate << " seed "
                << seed;
          } else {
            ++failed;
          }
        }
        EXPECT_EQ(report.failed_queries, failed);
        if (rate == 0.0) {
          EXPECT_EQ(failed, 0u);
          EXPECT_EQ(report.faults.total_injected(), 0u);
        }
        EXPECT_LE(report.cache.bytes_in_use, options.cache_budget_bytes);
      }
    }
  }
}

TEST(ServerFaultTest, ReportCarriesFaultCounters) {
  const ssb::SsbData& data = TestData();
  const ssb::EncodedLineorder enc =
      ssb::EncodeLineorder(data, codec::System::kGpuBp);
  FaultPlan plan(FaultPlanOptions::Uniform(0.05, /*seed=*/5));
  sim::Device dev;
  serve::ServeOptions options;
  options.num_streams = 2;
  options.fault_plan = &plan;
  options.model_transfers = true;
  serve::Server server(dev, data, enc, options);
  const serve::ServeReport report = server.Serve(StressBatch());
  uint64_t consults = 0;
  for (uint64_t c : report.faults.consults) consults += c;
  EXPECT_GT(consults, 0u);
  EXPECT_GT(report.faults.total_injected(), 0u);
}

}  // namespace
}  // namespace tilecomp
