// Tests for multi-device serving: placement planning (striped range
// sharding, determinism, degenerate shapes), the cluster scheduler's
// bit-exactness against both the standalone Server and the host reference
// executor across policies/links, hash-table prewarm accounting, and the
// determinism of the per-device host threads (run under TSan in CI).
#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "codec/systems.h"
#include "fixed_batch_contract.h"
#include "gtest/gtest.h"
#include "serve/cluster_scheduler.h"
#include "serve/placement.h"
#include "serve/server.h"
#include "sim/cluster.h"
#include "sim/device.h"
#include "sim/device_spec.h"
#include "ssb/generator.h"
#include "ssb/layout.h"
#include "ssb/queries.h"

namespace tilecomp::serve {
namespace {

constexpr size_t kTile = 512;
constexpr size_t kChunkRows = placement::kStripeTiles * kTile;  // 32768

// Shared dataset, date-clustered like the benchmarks (5 stripe chunks, so
// 4-way striping gives shard 0 two non-adjacent ranges — the multi-range
// slice path gets exercised). Built once; leaked on purpose.
const ssb::SsbData& TestData() {
  static const ssb::SsbData* data = [] {
    auto* d = new ssb::SsbData(ssb::GenerateSsbSmall(140000));
    ssb::ClusterByOrderdate(&d->lineorder);
    return d;
  }();
  return *data;
}

const ssb::QueryResult& HostReference(ssb::QueryId query) {
  static const auto* results = [] {
    auto* map = new std::vector<ssb::QueryResult>();
    ssb::QueryRunner runner(TestData());
    for (ssb::QueryId q : ssb::AllQueries()) {
      map->push_back(runner.RunHostReference(q));
    }
    return map;
  }();
  return (*results)[static_cast<size_t>(query)];
}

void ExpectSameGroups(const ssb::QueryResult& got, const ssb::QueryResult& want,
                      const char* context) {
  EXPECT_EQ(got.groups, want.groups) << context;
}

// --- Placement planning ---

TEST(PlacementTest, RangeShardIsStripedTileAlignedAndCovering) {
  const size_t rows = 5 * kChunkRows + 1234;  // 6 chunks, last one partial
  const placement::Placement p =
      placement::Plan(placement::PolicyKind::kRangeShard, rows, 4, /*seed=*/7);
  ASSERT_EQ(p.shards.size(), 4u);

  size_t covered = 0;
  std::vector<placement::RowRange> all;
  std::set<int> devices;
  for (const placement::Shard& shard : p.shards) {
    ASSERT_EQ(shard.devices.size(), 1u);
    devices.insert(shard.devices[0]);
    size_t prev_end = 0;
    for (const placement::RowRange& r : shard.ranges) {
      EXPECT_LT(r.begin, r.end);
      EXPECT_EQ(r.begin % kTile, 0u);  // tile-aligned: zone maps survive
      EXPECT_TRUE(r.end % kTile == 0 || r.end == rows);
      EXPECT_GE(r.begin, prev_end);  // ascending within the shard
      prev_end = r.end;
      covered += r.rows();
      all.push_back(r);
    }
  }
  EXPECT_EQ(covered, rows);  // disjointness + coverage => a partition
  EXPECT_EQ(devices.size(), 4u);  // device assignment is a permutation
  // Striping: with 6 chunks over 4 shards, two shards own two ranges, and
  // coalescing means no shard holds two adjacent ranges.
  std::sort(all.begin(), all.end(),
            [](const placement::RowRange& a, const placement::RowRange& b) {
              return a.begin < b.begin;
            });
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_EQ(all[i].begin, all[i - 1].end);
  }
  EXPECT_EQ(all.size(), 6u);
}

TEST(PlacementTest, PlanIsDeterministicAndSeedOnlyPermutesDevices) {
  const size_t rows = 4 * kChunkRows;
  const auto a =
      placement::Plan(placement::PolicyKind::kRangeShard, rows, 4, 42);
  const auto b =
      placement::Plan(placement::PolicyKind::kRangeShard, rows, 4, 42);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].ranges, b.shards[s].ranges);
    EXPECT_EQ(a.shards[s].devices, b.shards[s].devices);
  }
  // A different seed may reassign devices but never reshapes the ranges.
  const auto c =
      placement::Plan(placement::PolicyKind::kRangeShard, rows, 4, 43);
  for (size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].ranges, c.shards[s].ranges);
  }
}

TEST(PlacementTest, ReplicateAndHybridShapes) {
  const size_t rows = 4 * kChunkRows;
  const auto rep =
      placement::Plan(placement::PolicyKind::kReplicate, rows, 4, 1);
  ASSERT_EQ(rep.shards.size(), 1u);
  ASSERT_EQ(rep.shards[0].ranges.size(), 1u);
  EXPECT_EQ(rep.shards[0].ranges[0], (placement::RowRange{0, rows}));
  EXPECT_EQ(rep.shards[0].devices.size(), 4u);

  const auto hyb = placement::Plan(placement::PolicyKind::kHybrid, rows, 4, 1);
  ASSERT_EQ(hyb.shards.size(), 2u);
  size_t covered = 0;
  for (const placement::Shard& shard : hyb.shards) {
    EXPECT_EQ(shard.devices.size(), 2u);  // one spare replica per shard
    covered += shard.rows();
  }
  EXPECT_EQ(covered, rows);
}

TEST(PlacementTest, FewerChunksThanDevicesLeavesTrailingShardsEmpty) {
  // 2 chunks over 4 devices: two shards own data, two are empty.
  const size_t rows = kChunkRows + 100;
  const auto p =
      placement::Plan(placement::PolicyKind::kRangeShard, rows, 4, 1);
  ASSERT_EQ(p.shards.size(), 4u);
  int empty = 0;
  size_t covered = 0;
  for (const placement::Shard& shard : p.shards) {
    if (shard.rows() == 0) ++empty;
    covered += shard.rows();
  }
  EXPECT_EQ(empty, 2);
  EXPECT_EQ(covered, rows);
}

// --- Cluster scheduler ---

TEST(ClusterSchedulerTest, SingleDeviceMatchesStandaloneServer) {
  const ssb::SsbData& data = TestData();
  const std::vector<ssb::QueryId> batch = ssb::AllQueries();

  sim::Device dev(sim::DeviceSpec::V100());
  const ssb::EncodedLineorder enc =
      ssb::EncodeLineorder(data, codec::System::kNone);
  ServeOptions opts;  // reuse off: no prewarm, both clocks start at zero
  Server standalone(dev, data, enc, opts);
  const ServeReport want = standalone.Serve(batch);

  sim::Cluster cluster(1, sim::DeviceSpec::V100(), sim::LinkSpec::NvLink());
  ClusterOptions copts;
  copts.policy = placement::PolicyKind::kRangeShard;
  copts.serve = opts;
  ClusterScheduler sched(cluster, data, codec::System::kNone, copts);
  const ClusterServeReport got = sched.Serve(batch);

  // A one-device cluster is the degenerate case: one shard holding the
  // whole table, no transfers, no merges — everything must be bit- and
  // clock-identical to the standalone server.
  ASSERT_EQ(got.queries.size(), want.queries.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const ClusterServedQuery& cq = got.queries[i];
    EXPECT_EQ(cq.status, QueryStatus::kOk);
    EXPECT_EQ(cq.num_partials, 1);
    EXPECT_EQ(cq.link_bytes, 0u);
    ExpectSameGroups(cq.result, want.queries[i].result,
                     ssb::QueryName(batch[i]));
    EXPECT_DOUBLE_EQ(cq.latency_ms, want.queries[i].latency_ms);
  }
  EXPECT_DOUBLE_EQ(got.makespan_ms, want.makespan_ms);
  EXPECT_EQ(got.link_bytes_total, 0u);
  EXPECT_EQ(got.link_transfers, 0u);
  EXPECT_DOUBLE_EQ(got.merge_ms_total, 0.0);

  // Counters too, not just results: the per-device server is the same code
  // on the same shard, so its cache/pushdown/traffic books must agree.
  const ServeReport& inner = got.device_reports[0];
  EXPECT_EQ(inner.cache.hits, want.cache.hits);
  EXPECT_EQ(inner.cache.misses, want.cache.misses);
  EXPECT_EQ(inner.cache.inserts, want.cache.inserts);
  EXPECT_EQ(inner.cache.evictions, want.cache.evictions);
  EXPECT_EQ(inner.decompress_skips, want.decompress_skips);
  EXPECT_EQ(inner.global_bytes_read, want.global_bytes_read);
  EXPECT_EQ(inner.pushdown.tiles_pruned, want.pushdown.tiles_pruned);
  EXPECT_EQ(inner.pushdown.tiles_decoded, want.pushdown.tiles_decoded);
}

TEST(ClusterSchedulerTest, EmptyShardsServeBitExact) {
  // ~40k rows = 2 stripe chunks over 4 devices: two devices hold no rows
  // and must cleanly contribute empty partials.
  ssb::SsbData small = ssb::GenerateSsbSmall(40000);
  ssb::ClusterByOrderdate(&small.lineorder);
  ASSERT_LT(small.lineorder.size(), 2 * kChunkRows);
  ASSERT_GT(small.lineorder.size(), kChunkRows);

  sim::Cluster cluster(4, sim::DeviceSpec::V100(), sim::LinkSpec::NvLink());
  ClusterOptions copts;
  copts.policy = placement::PolicyKind::kRangeShard;
  copts.serve.reuse_hash_tables = true;
  ClusterScheduler sched(cluster, small, codec::System::kNone, copts);

  int empty_devices = 0;
  for (int d = 0; d < sched.num_devices(); ++d) {
    if (sched.server(d) == nullptr) {
      ++empty_devices;
      EXPECT_EQ(sched.shard_of_device(d), -1);
    }
  }
  EXPECT_EQ(empty_devices, 2);

  ssb::QueryRunner runner(small);
  const std::vector<ssb::QueryId> batch = ssb::AllQueries();
  const ClusterServeReport report = sched.Serve(batch);
  ASSERT_EQ(report.queries.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(report.queries[i].status, QueryStatus::kOk);
    EXPECT_EQ(report.queries[i].num_partials, 4);
    ExpectSameGroups(report.queries[i].result,
                     runner.RunHostReference(batch[i]),
                     ssb::QueryName(batch[i]));
  }
  EXPECT_EQ(report.failed_queries, 0u);
}

TEST(ClusterSchedulerTest, MergeIsBitExactAcrossPoliciesAndDevices) {
  const ssb::SsbData& data = TestData();
  const std::vector<ssb::QueryId> batch = ssb::AllQueries();
  for (placement::PolicyKind policy : {placement::PolicyKind::kReplicate,
                                       placement::PolicyKind::kRangeShard,
                                       placement::PolicyKind::kHybrid}) {
    for (int devices : {2, 4}) {
      sim::Cluster cluster(devices, sim::DeviceSpec::V100(),
                           sim::LinkSpec::NvLink());
      ClusterOptions copts;
      copts.policy = policy;
      copts.serve.reuse_hash_tables = true;
      ClusterScheduler sched(cluster, data, codec::System::kNone, copts);
      const ClusterServeReport report = sched.Serve(batch);
      ASSERT_EQ(report.queries.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        ExpectSameGroups(report.queries[i].result, HostReference(batch[i]),
                         ssb::QueryName(batch[i]));
        EXPECT_EQ(report.queries[i].status, QueryStatus::kOk);
      }
      EXPECT_GT(report.makespan_ms, 0.0);
      if (sched.placement().shards.size() > 1) {
        // Sharded partials must have crossed the interconnect to merge.
        // (Hybrid on fewer than three devices degenerates to one fully
        // replicated shard, so the gate is the shard count, not the policy.)
        EXPECT_GT(report.link_bytes_total, 0u)
            << placement::PolicyName(policy) << " x" << devices;
        EXPECT_GT(report.merge_ms_total, 0.0);
        ASSERT_FALSE(cluster.link_log().empty());
        EXPECT_EQ(cluster.link_log()[0].label.rfind("merge/", 0), 0u);
      }
    }
  }
}

TEST(ClusterSchedulerTest, CompressedShardsStayBitExact) {
  // The sharded path composes with a real compression system: per-shard
  // encode + inline decode + merge still reproduces the host reference.
  const ssb::SsbData& data = TestData();
  sim::Cluster cluster(4, sim::DeviceSpec::V100(), sim::LinkSpec::Pcie());
  ClusterOptions copts;
  copts.policy = placement::PolicyKind::kRangeShard;
  copts.serve.reuse_hash_tables = true;
  ClusterScheduler sched(cluster, data, codec::System::kGpuStar, copts);
  const std::vector<ssb::QueryId> batch = ssb::AllQueries();
  const ClusterServeReport report = sched.Serve(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectSameGroups(report.queries[i].result, HostReference(batch[i]),
                     ssb::QueryName(batch[i]));
  }
  // PCIe links are slow enough that the merge traffic shows up as busy
  // time on some engine (the limiter itself depends on the batch mix).
  EXPECT_GT(report.breakdown.interconnect_ms, 0.0);
}

TEST(ClusterSchedulerTest, PrewarmMovesHashBuildsOffTheServingClock) {
  const ssb::SsbData& data = TestData();
  const ssb::EncodedLineorder enc =
      ssb::EncodeLineorder(data, codec::System::kNone);
  // A batch where every query repeats: the build side is identical across
  // repeats, so reuse must shrink the kernel count and never the results.
  std::vector<ssb::QueryId> batch;
  for (int rep = 0; rep < 2; ++rep) {
    for (ssb::QueryId q : ssb::AllQueries()) batch.push_back(q);
  }

  sim::Device plain_dev(sim::DeviceSpec::V100());
  ServeOptions plain_opts;
  Server plain(plain_dev, data, enc, plain_opts);
  const ServeReport plain_report = plain.Serve(batch);
  const size_t plain_launches = plain_dev.launch_log().size();

  sim::Device reuse_dev(sim::DeviceSpec::V100());
  ServeOptions reuse_opts;
  reuse_opts.reuse_hash_tables = true;
  Server reuse(reuse_dev, data, enc, reuse_opts);
  reuse.Prewarm(ssb::AllQueries());
  const size_t prewarm_launches = reuse_dev.launch_log().size();
  EXPECT_GT(prewarm_launches, 0u);  // the builds ran at prewarm time
  const ServeReport reuse_report = reuse.Serve(batch);
  const size_t serve_launches =
      reuse_dev.launch_log().size() - prewarm_launches;

  // Serving skips every hash.build: strictly fewer kernels than the
  // build-per-query server, identical answers.
  EXPECT_LT(serve_launches, plain_launches);
  ASSERT_EQ(reuse_report.queries.size(), plain_report.queries.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectSameGroups(reuse_report.queries[i].result,
                     plain_report.queries[i].result,
                     ssb::QueryName(batch[i]));
  }
}

TEST(ClusterSchedulerTest, ConcurrentServeIsDeterministic) {
  // Eight host threads serving eight devices, twice over: the modeled
  // report must be bitwise repeatable regardless of host scheduling. This
  // is the TSan stress target — per-device state must never be shared.
  const ssb::SsbData& data = TestData();
  std::vector<ssb::QueryId> batch;
  for (int rep = 0; rep < 3; ++rep) {
    for (ssb::QueryId q : ssb::AllQueries()) batch.push_back(q);
  }

  auto run_once = [&]() {
    sim::Cluster cluster(8, sim::DeviceSpec::V100(), sim::LinkSpec::NvLink());
    ClusterOptions copts;
    copts.policy = placement::PolicyKind::kHybrid;
    copts.serve.reuse_hash_tables = true;
    ClusterScheduler sched(cluster, data, codec::System::kNone, copts);
    return sched.Serve(batch);
  };

  const ClusterServeReport a = run_once();
  const ClusterServeReport b = run_once();
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].root_device, b.queries[i].root_device);
    EXPECT_DOUBLE_EQ(a.queries[i].finish_ms, b.queries[i].finish_ms);
    EXPECT_DOUBLE_EQ(a.queries[i].latency_ms, b.queries[i].latency_ms);
    EXPECT_EQ(a.queries[i].link_bytes, b.queries[i].link_bytes);
    ExpectSameGroups(a.queries[i].result, b.queries[i].result,
                     ssb::QueryName(a.queries[i].query));
  }
  EXPECT_DOUBLE_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.link_bytes_total, b.link_bytes_total);
  EXPECT_DOUBLE_EQ(a.p99_latency_ms, b.p99_latency_ms);
  // And the results are still the right ones.
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectSameGroups(a.queries[i].result, HostReference(batch[i]),
                     ssb::QueryName(batch[i]));
  }
}

TEST(ClusterSchedulerTest, FixedBatchContract) {
  // Serve routes the batch once and each device serves its slice as a
  // BatchWorkload: the cluster-level request id is the batch position,
  // nothing queues or sheds on any device, and the merged query arrives
  // when its first shard starts it, so e2e == latency. Every device
  // follows the single-server contract on its slice. The cache is off so
  // the timeline does not depend on eviction order; the hash-table prewarm
  // moves every device clock off zero before serving starts.
  const ssb::SsbData& data = TestData();
  std::vector<ssb::QueryId> batch = ssb::AllQueries();
  for (ssb::QueryId q : ssb::AllQueries()) batch.push_back(q);

  sim::Cluster cluster(2, sim::DeviceSpec::V100(), sim::LinkSpec::NvLink());
  ClusterOptions copts;
  copts.policy = placement::PolicyKind::kRangeShard;
  copts.serve.num_streams = 3;
  copts.serve.use_cache = false;
  copts.serve.reuse_hash_tables = true;
  ClusterScheduler sched(cluster, data, codec::System::kNone, copts);
  const ClusterServeReport report = sched.Serve(batch);

  ASSERT_EQ(report.queries.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const ClusterServedQuery& cq = report.queries[i];
    EXPECT_EQ(cq.request_id, i);
    EXPECT_EQ(cq.query, batch[i]);
    EXPECT_EQ(cq.cls, load::ClassOf(batch[i]));
    EXPECT_EQ(cq.status, QueryStatus::kOk);
    EXPECT_EQ(cq.num_partials, 2);
    EXPECT_EQ(cq.queue_ms, 0.0);
    EXPECT_DOUBLE_EQ(cq.arrival_ms, cq.admit_ms);
    EXPECT_DOUBLE_EQ(cq.e2e_ms, cq.latency_ms);
    ExpectSameGroups(cq.result, HostReference(batch[i]),
                     ssb::QueryName(batch[i]));
  }
  EXPECT_EQ(report.shed_queries, 0u);
  EXPECT_DOUBLE_EQ(report.p50_e2e_ms, report.p50_latency_ms);
  EXPECT_DOUBLE_EQ(report.p99_e2e_ms, report.p99_latency_ms);
  // Range sharding fans every request out to both devices.
  EXPECT_EQ(report.admission.offered, 2 * batch.size());
  EXPECT_EQ(report.admission.shed, 0u);
  EXPECT_EQ(report.admission.queued, 0u);
  for (int d = 0; d < sched.num_devices(); ++d) {
    const ServeReport& device = report.device_reports[static_cast<size_t>(d)];
    ASSERT_EQ(device.queries.size(), batch.size()) << "device " << d;
    ExpectFixedBatchContract(device, 3);
  }
}

}  // namespace
}  // namespace tilecomp::serve
