// Tests for the persistent-kernel tile scheduler: device-global atomics,
// the per-work-item cost histogram, the wave-aware makespan model, and the
// static-vs-persistent behavior of the decompression kernels pinned by the
// paper's tail-effect analysis (every tile costs the same -> static wins by
// the atomic overhead; skewed tiles -> persistent steals past stragglers).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "codec/column.h"
#include "codec/pipeline.h"
#include "common/random.h"
#include "kernels/dispatch.h"
#include "sim/device.h"
#include "sim/global_counter.h"
#include "sim/perf_model.h"
#include "telemetry/export.h"
#include "telemetry/tracer.h"

namespace tilecomp {
namespace {

using codec::CompressedColumn;
using codec::Scheme;
using kernels::DecompressRun;
using kernels::Pipeline;
using sim::BlockContext;
using sim::Device;
using sim::GlobalCounter;
using sim::KernelStats;
using sim::LaunchConfig;
using sim::Scheduling;

// --- GlobalCounter / AtomicAdd -------------------------------------------

TEST(GlobalCounterTest, FetchAddReturnsPreAddValue) {
  GlobalCounter counter;
  EXPECT_EQ(counter.FetchAdd(), 0u);
  EXPECT_EQ(counter.FetchAdd(), 1u);
  EXPECT_EQ(counter.FetchAdd(5), 2u);
  EXPECT_EQ(counter.load(), 7u);
  counter.Reset(100);
  EXPECT_EQ(counter.FetchAdd(), 100u);
}

TEST(GlobalCounterTest, ConcurrentPopsAreUniqueAndComplete) {
  GlobalCounter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPopsEach = 10000;
  std::vector<std::vector<uint64_t>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPopsEach; ++i) {
        seen[t].push_back(counter.FetchAdd());
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<bool> hit(kThreads * kPopsEach, false);
  for (const auto& v : seen) {
    for (uint64_t x : v) {
      ASSERT_LT(x, hit.size());
      EXPECT_FALSE(hit[x]);
      hit[x] = true;
    }
  }
  EXPECT_EQ(counter.load(), kThreads * kPopsEach);
}

TEST(AtomicAddTest, ChargesOneAtomicOpPerPop) {
  Device dev;
  GlobalCounter counter;
  LaunchConfig lc;
  lc.grid_dim = 16;
  lc.block_threads = 128;
  auto r = dev.Launch(lc, [&](BlockContext& ctx) {
    ctx.AtomicAdd(counter);
    ctx.AtomicAdd(counter, 3);
  });
  EXPECT_EQ(r.stats.atomic_ops, 32u);
  EXPECT_EQ(counter.load(), 16u * 4);
  // Atomic time surcharge: atomic_ops * atomic_op_ns.
  EXPECT_NEAR(r.breakdown.atomic_ms,
              32.0 * dev.spec().atomic_op_ns * 1e-6, 1e-12);
}

// --- BlockCostSummary ------------------------------------------------------

TEST(BlockCostSummaryTest, TracksMinMeanMaxExactly) {
  sim::BlockCostSummary s;
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean(), 0.0);
  for (uint64_t c : {100u, 300u, 200u}) s.Add(c);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.min_cost, 100u);
  EXPECT_EQ(s.max_cost, 300u);
  EXPECT_EQ(s.total_cost, 600u);
  EXPECT_DOUBLE_EQ(s.mean(), 200.0);
}

TEST(BlockCostSummaryTest, MergeMatchesCombinedAdds) {
  sim::BlockCostSummary a, b, both;
  for (uint64_t c : {1u, 64u, 4096u}) { a.Add(c); both.Add(c); }
  for (uint64_t c : {0u, 128u, 1u << 20}) { b.Add(c); both.Add(c); }
  a.Merge(b);
  EXPECT_EQ(a.count, both.count);
  EXPECT_EQ(a.min_cost, both.min_cost);
  EXPECT_EQ(a.max_cost, both.max_cost);
  EXPECT_EQ(a.total_cost, both.total_cost);
  for (int i = 0; i < sim::BlockCostSummary::kBuckets; ++i) {
    EXPECT_EQ(a.bucket_count[i], both.bucket_count[i]);
    EXPECT_EQ(a.bucket_total[i], both.bucket_total[i]);
  }
}

TEST(BlockCostSummaryTest, PercentilesOfBimodalDistribution) {
  // 90% cheap (cost 64), 10% expensive (cost 8192) -- the skew shape the
  // scheduler bench uses.
  sim::BlockCostSummary s;
  for (int i = 0; i < 900; ++i) s.Add(64);
  for (int i = 0; i < 100; ++i) s.Add(8192);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 64.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.99), 8192.0);
}

TEST(BlockCostSummaryTest, ExpectedMaxUniformEqualsMean) {
  // Single-bucket histogram: every draw has the same (bucket-mean) cost, so
  // the expected max of any k draws is the mean. This is the property that
  // keeps fixed-cost kernels off the imbalance surcharge.
  sim::BlockCostSummary s;
  for (int i = 0; i < 1000; ++i) s.Add(100);
  for (uint64_t k : {1u, 2u, 32u, 1280u}) {
    EXPECT_DOUBLE_EQ(s.ExpectedMax(k), 100.0) << "k=" << k;
  }
}

TEST(BlockCostSummaryTest, ExpectedMaxGrowsWithDrawsOnSkew) {
  sim::BlockCostSummary s;
  for (int i = 0; i < 900; ++i) s.Add(64);
  for (int i = 0; i < 100; ++i) s.Add(8192);
  // E[max of 1 draw] is the mean; more draws push it toward the max.
  EXPECT_NEAR(s.ExpectedMax(1), s.mean(), 1e-9);
  double prev = 0.0;
  for (uint64_t k : {1u, 4u, 16u, 64u, 256u}) {
    const double e = s.ExpectedMax(k);
    EXPECT_GE(e, prev) << "k=" << k;
    EXPECT_LE(e, 8192.0 + 1e-9);
    prev = e;
  }
  EXPECT_GT(s.ExpectedMax(256), 0.95 * 8192.0);
}

// --- Wave model (AnalyzeKernel on synthetic histograms) -------------------

KernelStats SkewedStats(int waves, int64_t slots) {
  KernelStats stats;
  const int64_t n = waves * slots;
  for (int64_t i = 0; i < n; ++i) {
    stats.block_cost.Add(i % 10 == 0 ? 8192 : 64);
  }
  // Give the flat roofline some body so tail_ms is nonzero.
  stats.global_bytes_read = 64ull << 20;
  return stats;
}

TEST(WaveModelTest, StaticPaysTheSlowestTilePerWave) {
  Device dev;
  LaunchConfig cfg;
  cfg.block_threads = 128;
  const int64_t slots = sim::WaveSlots(dev.spec(), cfg);
  EXPECT_GE(slots, dev.spec().sm_count);
  KernelStats stats = SkewedStats(/*waves=*/10, slots);

  cfg.scheduling = Scheduling::kStatic;
  cfg.grid_dim = static_cast<int64_t>(stats.block_cost.count);
  const sim::TimeBreakdown st = sim::AnalyzeKernel(dev.spec(), cfg, stats);
  cfg.scheduling = Scheduling::kPersistent;
  cfg.grid_dim = slots;
  const sim::TimeBreakdown pe = sim::AnalyzeKernel(dev.spec(), cfg, stats);

  EXPECT_EQ(st.wave.scheduling, Scheduling::kStatic);
  EXPECT_EQ(pe.wave.scheduling, Scheduling::kPersistent);
  EXPECT_EQ(st.wave.slots, slots);
  EXPECT_EQ(st.wave.waves, 10);
  // Every wave of the static schedule almost surely contains an expensive
  // tile, so its makespan approaches 10 * max while the balanced makespan is
  // 10 * mean: imbalance ~ max/mean ~ 9. Work stealing only pays one
  // straggler on top of the balanced schedule.
  EXPECT_GT(st.wave.imbalance, 5.0);
  EXPECT_LT(pe.wave.imbalance, 2.0);
  EXPECT_GE(pe.wave.imbalance, 1.0);
  EXPECT_GT(st.wave.tail_ms, pe.wave.tail_ms);
  EXPECT_GT(st.total_ms(), pe.total_ms());
}

TEST(WaveModelTest, UniformCostsKeepStaticImbalanceAtOne) {
  Device dev;
  LaunchConfig cfg;
  cfg.block_threads = 128;
  const int64_t slots = sim::WaveSlots(dev.spec(), cfg);
  KernelStats stats;
  for (int64_t i = 0; i < 4 * slots; ++i) stats.block_cost.Add(100);
  stats.global_bytes_read = 64ull << 20;
  cfg.grid_dim = 4 * slots;
  const sim::TimeBreakdown st = sim::AnalyzeKernel(dev.spec(), cfg, stats);
  // Whole waves of identical tiles: no tail effect at all.
  EXPECT_DOUBLE_EQ(st.wave.imbalance, 1.0);
  EXPECT_DOUBLE_EQ(st.wave.tail_ms, 0.0);
}

TEST(WaveModelTest, NoCostSamplesLeaveFlatModelUntouched) {
  // Hand-built KernelStats (calibration tests, external traces) carry no
  // histogram; the wave model must not disturb them.
  Device dev;
  LaunchConfig cfg;
  cfg.grid_dim = 1 << 20;
  cfg.block_threads = 128;
  KernelStats stats;
  stats.global_bytes_read = 2ull << 30;
  const sim::TimeBreakdown bd = sim::AnalyzeKernel(dev.spec(), cfg, stats);
  EXPECT_DOUBLE_EQ(bd.wave.imbalance, 1.0);
  EXPECT_DOUBLE_EQ(bd.wave.tail_ms, 0.0);
  EXPECT_DOUBLE_EQ(bd.atomic_ms, 0.0);
  EXPECT_EQ(bd.wave.waves, 0);
}

TEST(WaveModelTest, PersistentGridFillsTheMachineOnce) {
  Device dev;
  LaunchConfig cfg;
  cfg.block_threads = 128;
  const int64_t slots = sim::WaveSlots(dev.spec(), cfg);
  EXPECT_EQ(sim::PersistentGridDim(dev.spec(), cfg, 1 << 20), slots);
  EXPECT_EQ(sim::PersistentGridDim(dev.spec(), cfg, 5), 5);
  EXPECT_EQ(sim::PersistentGridDim(dev.spec(), cfg, 0), 1);
}

// --- Persistent decompression: correctness --------------------------------

void ExpectSameOutput(Scheme scheme, Pipeline pipeline,
                      const std::vector<uint32_t>& values) {
  const auto col = CompressedColumn::Encode(scheme, values);
  Device dev_s, dev_p;
  DecompressRun st =
      kernels::Decompress(dev_s, col, pipeline, Scheduling::kStatic);
  DecompressRun pe =
      kernels::Decompress(dev_p, col, pipeline, Scheduling::kPersistent);
  EXPECT_EQ(st.output, values);
  EXPECT_EQ(pe.output, values);
  // Same work, different block-to-tile mapping: identical traffic.
  EXPECT_EQ(pe.stats.global_bytes_read, st.stats.global_bytes_read);
  EXPECT_EQ(pe.stats.global_bytes_written, st.stats.global_bytes_written);
  EXPECT_EQ(st.stats.atomic_ops, 0u);
  EXPECT_GT(pe.stats.atomic_ops, 0u);
}

TEST(PersistentKernelTest, FusedSchemesMatchStaticOutput) {
  // 100k values with a ragged tail (not a multiple of any tile size).
  const size_t n = 100'003;
  ExpectSameOutput(Scheme::kGpuFor, Pipeline::kFused,
                   GenUniformBits(n, 13, 7));
  ExpectSameOutput(Scheme::kGpuDFor, Pipeline::kFused,
                   GenSortedGaps(n, 16, 7));
  ExpectSameOutput(Scheme::kGpuRFor, Pipeline::kFused,
                   GenSkewedRuns(n, 512, 4, 16, 7));
}

TEST(PersistentKernelTest, CascadedSchemesMatchStaticOutput) {
  const size_t n = 100'003;
  ExpectSameOutput(Scheme::kGpuFor, Pipeline::kCascaded,
                   GenUniformBits(n, 13, 7));
  ExpectSameOutput(Scheme::kGpuDFor, Pipeline::kCascaded,
                   GenSortedGaps(n, 16, 7));
  ExpectSameOutput(Scheme::kGpuRFor, Pipeline::kCascaded,
                   GenSkewedRuns(n, 512, 4, 16, 7));
}

TEST(PersistentKernelTest, TinyAndEmptyInputs) {
  ExpectSameOutput(Scheme::kGpuFor, Pipeline::kFused,
                   std::vector<uint32_t>{42});
  ExpectSameOutput(Scheme::kGpuRFor, Pipeline::kFused,
                   std::vector<uint32_t>(3, 9));
}

TEST(PersistentKernelTest, OneAtomicPopPerTilePlusOnePerBlock) {
  // Enough tiles (2048) to exceed the machine's wave slots, so the
  // persistent grid is genuinely smaller than the static one.
  const auto values = GenUniformBits(1 << 20, 16, 3);
  const auto col = CompressedColumn::Encode(Scheme::kGpuFor, values);
  Device dev_s, dev_p;
  DecompressRun st = kernels::Decompress(dev_s, col, Pipeline::kFused,
                                         Scheduling::kStatic);
  DecompressRun pe = kernels::Decompress(dev_p, col, Pipeline::kFused,
                                         Scheduling::kPersistent);
  ASSERT_EQ(st.kernel_launches(), 1u);
  ASSERT_EQ(pe.kernel_launches(), 1u);
  const int64_t tiles = st.launches[0].config.grid_dim;
  const int64_t grid = pe.launches[0].config.grid_dim;
  EXPECT_LT(grid, tiles);  // persistent grid fills the machine once
  // Every tile costs one successful pop; every block pays one failed pop to
  // learn the counter is drained.
  EXPECT_EQ(pe.stats.atomic_ops, static_cast<uint64_t>(tiles + grid));
  EXPECT_EQ(pe.launches[0].config.scheduling, Scheduling::kPersistent);
  EXPECT_EQ(pe.launches[0].label, st.launches[0].label + ".persistent");
}

TEST(PersistentKernelTest, WorkItemSamplesCountTilesNotBlocks) {
  const auto values = GenUniformBits(1 << 18, 16, 3);
  const auto col = CompressedColumn::Encode(Scheme::kGpuFor, values);
  Device dev_s, dev_p;
  DecompressRun st = kernels::Decompress(dev_s, col, Pipeline::kFused,
                                         Scheduling::kStatic);
  DecompressRun pe = kernels::Decompress(dev_p, col, Pipeline::kFused,
                                         Scheduling::kPersistent);
  // Both schedules sample one cost per *tile* (static blocks == tiles;
  // persistent blocks sample each popped tile), so the wave model sees the
  // same work distribution either way. Totals agree up to the /10 integer
  // rounding of the cost proxy at sample boundaries (< 1 per sample).
  EXPECT_EQ(pe.stats.block_cost.count, st.stats.block_cost.count);
  const auto diff =
      pe.stats.block_cost.total_cost > st.stats.block_cost.total_cost
          ? pe.stats.block_cost.total_cost - st.stats.block_cost.total_cost
          : st.stats.block_cost.total_cost - pe.stats.block_cost.total_cost;
  EXPECT_LE(diff, st.stats.block_cost.count);
}

// --- Pinned scheduling behavior (the acceptance crossover) ----------------

TEST(SchedulerCrossoverTest, PersistentBeatsStaticOnSkewedRle) {
  // Every 8th 512-value block is incompressible (512 RLE runs), the rest are
  // one run: static waves stall on the expensive tiles, work stealing does
  // not. Needs enough tiles for several full waves (8192 tiles / 1280 slots
  // = 6.4 waves); the margin at this size is ~1.4x, pin a conservative
  // 1.15x.
  const size_t n = 1 << 22;
  const auto values = GenSkewedRuns(n, 512, 8, 16, 2);
  const auto col = CompressedColumn::Encode(Scheme::kGpuRFor, values);
  Device dev_s, dev_p;
  DecompressRun st = kernels::Decompress(dev_s, col, Pipeline::kFused,
                                         Scheduling::kStatic);
  DecompressRun pe = kernels::Decompress(dev_p, col, Pipeline::kFused,
                                         Scheduling::kPersistent);
  EXPECT_EQ(st.output, values);
  EXPECT_EQ(pe.output, values);
  EXPECT_LT(pe.time_ms, st.time_ms / 1.15)
      << "persistent should beat static on skewed tiles";
  EXPECT_GT(st.launches[0].breakdown.wave.imbalance,
            pe.launches[0].breakdown.wave.imbalance);
}

TEST(SchedulerCrossoverTest, PersistentWithinAtomicOverheadOnUniform) {
  // Uniform tiles: static is already balanced, so persistent scheduling must
  // cost no more than the atomic-counter overhead plus a small quantization
  // difference in the final-wave drain (needs several full waves, hence
  // the size).
  const size_t n = 1 << 22;
  const auto values = GenUniformBits(n, 16, 1);
  const auto col = CompressedColumn::Encode(Scheme::kGpuFor, values);
  Device dev_s, dev_p;
  DecompressRun st = kernels::Decompress(dev_s, col, Pipeline::kFused,
                                         Scheduling::kStatic);
  DecompressRun pe = kernels::Decompress(dev_p, col, Pipeline::kFused,
                                         Scheduling::kPersistent);
  EXPECT_EQ(pe.output, values);
  double atomic_ms = 0.0;
  for (const auto& launch : pe.launches) {
    atomic_ms += launch.breakdown.atomic_ms;
  }
  EXPECT_GT(atomic_ms, 0.0);
  const double delta = pe.time_ms - st.time_ms;
  EXPECT_GE(delta, 0.0) << "persistent cannot beat static on uniform tiles";
  EXPECT_LE(delta, atomic_ms + 0.05 * st.time_ms)
      << "persistent overhead on uniform tiles must be ~the atomic cost";
}

// --- Scheduling knob threading (dispatcher, pipeline, telemetry) ----------

TEST(SchedulingKnobTest, PipelinedDecompressionThreadsTheKnob) {
  const auto values = GenSkewedRuns(1 << 18, 512, 8, 16, 5);
  codec::ChunkedColumn col =
      codec::ChunkEncode(Scheme::kGpuRFor, values, /*num_chunks=*/4);
  Device dev;
  codec::PipelineOptions opts;
  opts.scheduling = Scheduling::kPersistent;
  codec::PipelineResult r = codec::DecompressPipelined(dev, col, opts);
  EXPECT_EQ(r.output, values);
  ASSERT_FALSE(r.launches.empty());
  for (const auto& launch : r.launches) {
    EXPECT_EQ(launch.config.scheduling, Scheduling::kPersistent);
    EXPECT_NE(launch.label.find(".persistent"), std::string::npos);
  }
}

TEST(SchedulingKnobTest, BaselinesIgnoreTheKnob) {
  const auto values = GenUniformBits(10'000, 12, 9);
  const auto col = CompressedColumn::Encode(Scheme::kNsv, values);
  Device dev;
  DecompressRun run = kernels::Decompress(dev, col, Pipeline::kFused,
                                          Scheduling::kPersistent);
  EXPECT_EQ(run.output, values);
  EXPECT_EQ(run.stats.atomic_ops, 0u);
  for (const auto& launch : run.launches) {
    EXPECT_EQ(launch.config.scheduling, Scheduling::kStatic);
  }
}

TEST(SchedulerTelemetryTest, PersistentSpanRoundTripsThroughJson) {
  const auto values = GenSkewedRuns(1 << 18, 512, 8, 16, 5);
  const auto col = CompressedColumn::Encode(Scheme::kGpuRFor, values);
  telemetry::Tracer tracer;
  Device dev;
  dev.AttachTracer(&tracer);
  kernels::Decompress(dev, col, Pipeline::kFused, Scheduling::kPersistent);
  const std::string json = telemetry::ToJson(tracer);
  EXPECT_NE(json.find(std::string("\"schema\":\"") +
                      telemetry::kTraceSchema + "\""),
            std::string::npos)
      << json.substr(0, 200);

  std::vector<telemetry::Span> spans;
  std::string error;
  ASSERT_TRUE(telemetry::TraceFromJson(json, &spans, &error)) << error;
  ASSERT_FALSE(spans.empty());
  bool saw_persistent = false;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].kind != telemetry::SpanKind::kKernel) continue;
    const sim::KernelResult& orig = tracer.spans()[i].kernel;
    const sim::KernelResult& got = spans[i].kernel;
    EXPECT_EQ(got.config.scheduling, orig.config.scheduling);
    EXPECT_EQ(got.stats.atomic_ops, orig.stats.atomic_ops);
    EXPECT_NEAR(got.breakdown.atomic_ms, orig.breakdown.atomic_ms, 1e-6);
    EXPECT_NEAR(got.breakdown.wave.tail_ms, orig.breakdown.wave.tail_ms,
                1e-6);
    EXPECT_EQ(got.breakdown.wave.slots, orig.breakdown.wave.slots);
    EXPECT_EQ(got.breakdown.wave.waves, orig.breakdown.wave.waves);
    EXPECT_NEAR(got.breakdown.wave.imbalance, orig.breakdown.wave.imbalance,
                1e-4);
    if (got.config.scheduling == Scheduling::kPersistent) {
      saw_persistent = true;
      EXPECT_GT(got.stats.atomic_ops, 0u);
      EXPECT_GT(got.breakdown.wave.slots, 0);
    }
  }
  EXPECT_TRUE(saw_persistent);
}

TEST(SchedulerTelemetryTest, StaticSpanLoadsWithUnitImbalance) {
  const std::string trace =
      "{\"schema\":\"tilecomp.trace.v10\",\"spans\":[{\"kind\":\"kernel\","
      "\"name\":\"k\",\"path\":\"\",\"depth\":0,\"device\":0,\"stream\":1,"
      "\"config\":{\"grid_dim\":8,\"block_threads\":128,"
      "\"smem_bytes_per_block\":0,\"regs_per_thread\":32,"
      "\"scheduling\":\"static\"},"
      "\"stats\":{\"global_bytes_read\":1024,\"global_bytes_written\":0,"
      "\"warp_global_accesses\":8,\"shared_bytes\":0,\"compute_ops\":0,"
      "\"barriers\":0,\"atomic_ops\":0},\"occupancy\":0.5,"
      "\"breakdown_ms\":{\"launch\":0.005,\"bandwidth\":0.9,\"latency\":0.1,"
      "\"scheduling\":0.0,\"shared\":0.0,\"compute\":0.0,\"tail\":0.0,"
      "\"atomic\":0.0},"
      "\"wave\":{\"scheduling\":\"static\",\"slots\":0,\"waves\":0,"
      "\"mean_cost\":0.0,\"max_cost\":0.0,\"p99_cost\":0.0,"
      "\"imbalance\":1.0},"
      "\"cache\":{\"hits\":0,\"misses\":0,\"evictions\":0,"
      "\"saved_bytes\":0,\"prefetch_hits\":0},"
      "\"pushdown\":{\"tiles_pruned\":0,\"tiles_decoded\":0,"
      "\"blocks_short_circuited\":0,\"runs_short_circuited\":0},"
      "\"prefetch\":{\"issued\":0,\"useful\":0,\"wasted\":0,\"late\":0},"
      "\"limiter\":\"bandwidth\",\"faults\":{\"retries\":0,\"failed\":false},"
      "\"start_ms\":0.0,\"duration_ms\":1.0}]}";
  std::vector<telemetry::Span> spans;
  std::string error;
  ASSERT_TRUE(telemetry::TraceFromJson(trace, &spans, &error)) << error;
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kernel.config.scheduling, Scheduling::kStatic);
  EXPECT_EQ(spans[0].kernel.stats.atomic_ops, 0u);
  EXPECT_DOUBLE_EQ(spans[0].kernel.breakdown.atomic_ms, 0.0);
  EXPECT_DOUBLE_EQ(spans[0].kernel.breakdown.wave.imbalance, 1.0);
  EXPECT_DOUBLE_EQ(spans[0].kernel.breakdown.wave.tail_ms, 0.0);
}

}  // namespace
}  // namespace tilecomp
