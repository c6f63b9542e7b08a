// Tests for the telemetry subsystem: span nesting, the JSON trace schema
// round-trip, limiter classification on synthetic kernels, and the
// per-launch traces carried by DecompressRun.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "codec/column.h"
#include "codec/pipeline.h"
#include "common/random.h"
#include "fault/fault.h"
#include "kernels/dispatch.h"
#include "sim/device.h"
#include "sim/perf_model.h"
#include "telemetry/export.h"
#include "telemetry/json.h"
#include "telemetry/tracer.h"

namespace tilecomp {
namespace {

using codec::CompressedColumn;
using codec::Scheme;
using telemetry::JsonValue;
using telemetry::ParseJson;
using telemetry::ScopedSpan;
using telemetry::Span;
using telemetry::SpanKind;
using telemetry::Tracer;

sim::LaunchConfig SmallLaunch(int64_t grid) {
  sim::LaunchConfig lc;
  lc.grid_dim = grid;
  lc.block_threads = 128;
  return lc;
}

std::vector<uint32_t> TestColumn(size_t n) {
  std::vector<uint32_t> values(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = static_cast<uint32_t>((i * 2654435761u) >> 20) & 0xFFF;
  }
  return values;
}

TEST(TracerTest, RecordsKernelSpansWithLabels) {
  sim::Device dev;
  Tracer tracer;
  dev.AttachTracer(&tracer);

  dev.Launch("alpha", SmallLaunch(4),
             [](sim::BlockContext& ctx) { ctx.CoalescedRead(4096, true); });
  dev.Launch("beta", SmallLaunch(4),
             [](sim::BlockContext& ctx) { ctx.Compute(1000); });

  ASSERT_EQ(tracer.num_kernel_spans(), 2u);
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "alpha");
  EXPECT_EQ(spans[1].name, "beta");
  EXPECT_EQ(spans[0].kind, SpanKind::kKernel);
  EXPECT_GT(spans[0].duration_ms, 0.0);
  // The second launch starts where the first ended on the device timeline.
  EXPECT_GE(spans[1].start_ms, spans[0].start_ms + spans[0].duration_ms);
  EXPECT_GT(spans[0].kernel.stats.global_bytes_read, 0u);
}

TEST(TracerTest, ScopeNesting) {
  sim::Device dev;
  Tracer tracer;
  dev.AttachTracer(&tracer);

  {
    ScopedSpan outer(dev, "outer");
    dev.Launch("k0", SmallLaunch(1),
               [](sim::BlockContext& ctx) { ctx.Compute(10); });
    {
      ScopedSpan inner(dev, "inner");
      dev.Launch("k1", SmallLaunch(1),
                 [](sim::BlockContext& ctx) { ctx.Compute(10); });
    }
  }
  dev.Launch("k2", SmallLaunch(1),
             [](sim::BlockContext& ctx) { ctx.Compute(10); });

  // Expected: scope(outer), kernel(k0), scope(inner), kernel(k1), kernel(k2).
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[0].kind, SpanKind::kScope);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0);

  EXPECT_EQ(spans[1].name, "k0");
  EXPECT_EQ(spans[1].path, "outer");
  EXPECT_EQ(spans[1].depth, 1);

  EXPECT_EQ(spans[2].kind, SpanKind::kScope);
  EXPECT_EQ(spans[2].name, "inner");
  EXPECT_EQ(spans[2].path, "outer");
  EXPECT_EQ(spans[2].depth, 1);

  EXPECT_EQ(spans[3].name, "k1");
  EXPECT_EQ(spans[3].path, "outer/inner");
  EXPECT_EQ(spans[3].depth, 2);

  EXPECT_EQ(spans[4].name, "k2");
  EXPECT_EQ(spans[4].path, "");
  EXPECT_EQ(spans[4].depth, 0);

  // Closed scopes received their duration; outer brackets inner.
  EXPECT_GT(spans[0].duration_ms, 0.0);
  EXPECT_GE(spans[0].start_ms + spans[0].duration_ms,
            spans[2].start_ms + spans[2].duration_ms);
}

TEST(TracerTest, ScopedSpanIsNoopWithoutTracer) {
  sim::Device dev;
  // Must not crash or record anything when no tracer is attached.
  ScopedSpan span(dev, "ignored");
  dev.Launch("k", SmallLaunch(1),
             [](sim::BlockContext& ctx) { ctx.Compute(10); });
  EXPECT_EQ(dev.kernel_launches(), 1u);
}

TEST(TracerTest, KernelsSinceMark) {
  sim::Device dev;
  Tracer tracer;
  dev.AttachTracer(&tracer);

  dev.Launch("before", SmallLaunch(1),
             [](sim::BlockContext& ctx) { ctx.Compute(10); });
  const size_t mark = tracer.mark();
  dev.Launch("after", SmallLaunch(1),
             [](sim::BlockContext& ctx) { ctx.Compute(10); });

  auto kernels = tracer.KernelsSince(mark);
  ASSERT_EQ(kernels.size(), 1u);
  EXPECT_EQ(kernels[0].label, "after");
}

TEST(LimiterTest, SyntheticBandwidthVsLatencyBound) {
  sim::DeviceSpec spec;
  // Big enough grid for full occupancy: latency hiding at its best.
  sim::LaunchConfig lc = SmallLaunch(4096);

  // Huge coalesced streaming traffic, few access instructions (vectorized
  // 512B per warp access): the bandwidth term dominates.
  sim::KernelStats bw;
  bw.global_bytes_read = 1ull << 32;  // 4 GiB
  bw.warp_global_accesses = (1ull << 32) / 512;
  sim::TimeBreakdown bound_bw = sim::AnalyzeKernel(spec, lc, bw);
  EXPECT_EQ(bound_bw.limiter(), sim::Limiter::kBandwidth);

  // Many scattered access instructions returning almost no bytes: latency /
  // issue rate dominates (each access moves one 32-byte sector).
  sim::KernelStats lat;
  lat.warp_global_accesses = 1ull << 26;
  lat.global_bytes_read = (1ull << 26) * 32;
  sim::TimeBreakdown bound_lat = sim::AnalyzeKernel(spec, lc, lat);
  EXPECT_EQ(bound_lat.limiter(), sim::Limiter::kLatency);

  // ALU-only kernel: compute-bound.
  sim::KernelStats comp;
  comp.compute_ops = 1ull << 34;
  sim::TimeBreakdown bound_comp = sim::AnalyzeKernel(spec, lc, comp);
  EXPECT_EQ(bound_comp.limiter(), sim::Limiter::kCompute);

  // The decomposition is consistent with the scalar estimate.
  EXPECT_DOUBLE_EQ(bound_bw.total_ms(),
                   sim::EstimateKernelTimeMs(spec, lc, bw));
}

// The Section 4.2 ablation's headline shape: the base unpack kernel is bound
// by memory latency (per-thread irregular accesses), the fully optimized
// kernel by memory bandwidth — like reading the uncompressed column.
TEST(LimiterTest, AblationShiftsLatencyBoundToBandwidthBound) {
  auto values = GenUniformBits(4 << 20, 16, 42);
  auto enc = format::GpuForEncode(values.data(), values.size());
  sim::Device dev;

  kernels::UnpackConfig base;
  base.opt = kernels::UnpackOpt::kBase;
  base.d = 1;
  auto base_run =
      kernels::DecompressGpuFor(dev, enc, base, /*write_output=*/false);
  ASSERT_EQ(base_run.launches.size(), 1u);
  EXPECT_EQ(base_run.launches[0].breakdown.limiter(), sim::Limiter::kLatency);

  auto full_run = kernels::DecompressGpuFor(dev, enc, kernels::UnpackConfig(),
                                            /*write_output=*/false);
  ASSERT_EQ(full_run.launches.size(), 1u);
  EXPECT_EQ(full_run.launches[0].breakdown.limiter(),
            sim::Limiter::kBandwidth);

  auto read_run = kernels::ReadUncompressed(dev, values);
  ASSERT_EQ(read_run.launches.size(), 1u);
  EXPECT_EQ(read_run.launches[0].breakdown.limiter(),
            sim::Limiter::kBandwidth);
}

TEST(DecompressRunTest, FusedRecordsOneLaunchCascadedEight) {
  auto values = TestColumn(512 * 64);
  auto rfor = format::GpuRForEncode(values.data(), values.size());

  sim::Device dev;
  auto fused = kernels::DecompressGpuRFor(dev, rfor);
  EXPECT_EQ(fused.kernel_launches(), 1u);
  ASSERT_EQ(fused.launches.size(), 1u);
  EXPECT_EQ(fused.launches[0].label, "gpurfor.fused");
  EXPECT_EQ(fused.output, values);

  auto cascaded = kernels::DecompressRleForBitPackCascaded(dev, rfor);
  EXPECT_EQ(cascaded.kernel_launches(), 8u);
  ASSERT_EQ(cascaded.launches.size(), 8u);
  EXPECT_EQ(cascaded.launches[0].label, "cascade.unpack_values");
  EXPECT_EQ(cascaded.launches[7].label, "rle.gather");
  EXPECT_EQ(cascaded.output, values);

  // The aggregate stats equal the per-launch sum.
  uint64_t read = 0;
  for (const auto& launch : cascaded.launches) {
    read += launch.stats.global_bytes_read;
  }
  EXPECT_EQ(cascaded.stats.global_bytes_read, read);
}

TEST(DecompressRunTest, DispatcherMatchesScheme) {
  auto values = TestColumn(4096);
  sim::Device dev;
  for (Scheme scheme :
       {Scheme::kNone, Scheme::kGpuFor, Scheme::kGpuDFor, Scheme::kGpuRFor,
        Scheme::kNsf, Scheme::kNsv, Scheme::kRle, Scheme::kGpuBp,
        Scheme::kSimdBp128}) {
    auto col = CompressedColumn::Encode(scheme, values);
    auto run = kernels::Decompress(dev, col);
    EXPECT_EQ(run.output, values) << codec::SchemeName(scheme);
    EXPECT_GE(run.kernel_launches(), 1u) << codec::SchemeName(scheme);
  }
  // Cascaded pipelines via the same entry point.
  auto rfor = CompressedColumn::Encode(Scheme::kGpuRFor, values);
  auto run = kernels::Decompress(dev, rfor, kernels::Pipeline::kCascaded);
  EXPECT_EQ(run.kernel_launches(), 8u);
  EXPECT_EQ(run.output, values);
}

TEST(ExportTest, JsonSchemaRoundTrip) {
  auto values = TestColumn(4096);
  auto col = CompressedColumn::Encode(Scheme::kGpuRFor, values);

  sim::Device dev;
  Tracer tracer;
  dev.AttachTracer(&tracer);
  {
    ScopedSpan scope(dev, "decompress");
    kernels::Decompress(dev, col);
  }
  dev.Transfer(1 << 20);

  const std::string json = telemetry::ToJson(tracer);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &root, &error)) << error;

  EXPECT_EQ(root.Get("schema").AsString(), telemetry::kTraceSchema);
  const auto& spans = root.Get("spans").AsArray();
  ASSERT_EQ(spans.size(), tracer.spans().size());

  size_t kernels_seen = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const JsonValue& span = spans[i];
    const Span& expected = tracer.spans()[i];
    EXPECT_EQ(span.Get("kind").AsString(),
              telemetry::SpanKindName(expected.kind));
    EXPECT_EQ(span.Get("name").AsString(), expected.name);
    EXPECT_EQ(span.Get("path").AsString(), expected.path);
    EXPECT_EQ(span.Get("depth").AsInt64(), expected.depth);
    EXPECT_DOUBLE_EQ(span.Get("start_ms").AsDouble(), expected.start_ms);
    if (expected.kind == SpanKind::kKernel) {
      ++kernels_seen;
      // Every kernel record carries traffic counters and a limiter.
      const JsonValue& stats = span.Get("stats");
      EXPECT_EQ(stats.Get("global_bytes_read").AsUint64(),
                expected.kernel.stats.global_bytes_read);
      EXPECT_EQ(stats.Get("compute_ops").AsUint64(),
                expected.kernel.stats.compute_ops);
      EXPECT_EQ(span.Get("config").Get("grid_dim").AsInt64(),
                expected.kernel.config.grid_dim);
      EXPECT_TRUE(span.Has("breakdown_ms"));
      EXPECT_EQ(span.Get("limiter").AsString(),
                sim::LimiterName(expected.kernel.breakdown.limiter()));
    }
    if (expected.kind == SpanKind::kTransfer) {
      EXPECT_EQ(span.Get("bytes").AsUint64(), expected.transfer_bytes);
    }
  }
  EXPECT_EQ(kernels_seen, 1u);  // fused GPU-RFOR = one kernel span
}

TEST(ExportTest, ChromeTraceIsValidJson) {
  sim::Device dev;
  Tracer tracer;
  dev.AttachTracer(&tracer);
  {
    ScopedSpan scope(dev, "pipeline");
    dev.Launch("k", SmallLaunch(8),
               [](sim::BlockContext& ctx) { ctx.CoalescedRead(1 << 20, true); });
  }

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(telemetry::ToChromeTrace(tracer), &root, &error))
      << error;
  const auto& events = root.Get("traceEvents").AsArray();
  size_t duration_events = 0, metadata_events = 0;
  for (const JsonValue& event : events) {
    const std::string ph = event.Get("ph").AsString();
    if (ph == "M") {
      ++metadata_events;
      continue;
    }
    ++duration_events;
    EXPECT_EQ(ph, "X");
    EXPECT_TRUE(event.Has("ts"));
    EXPECT_TRUE(event.Has("dur"));
  }
  EXPECT_EQ(duration_events, 2u);
  // Process name plus lane names for the scope row and the default stream.
  EXPECT_GE(metadata_events, 3u);
}

TEST(ExportTest, StreamFieldRoundTrip) {
  sim::Device dev;
  Tracer tracer;
  dev.AttachTracer(&tracer);
  const sim::StreamId s1 = dev.CreateStream();
  const sim::StreamId s2 = dev.CreateStream();
  dev.TransferAsync(s1, 1 << 20);
  dev.Launch(s2, "k", SmallLaunch(4),
             [](sim::BlockContext& ctx) { ctx.CoalescedRead(4096, true); });

  const std::string json = telemetry::ToJson(tracer);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &root, &error)) << error;
  EXPECT_EQ(root.Get("schema").AsString(), telemetry::kTraceSchema);

  std::vector<Span> loaded;
  ASSERT_TRUE(telemetry::TraceFromJson(json, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), tracer.spans().size());
  for (size_t i = 0; i < loaded.size(); ++i) {
    const Span& expected = tracer.spans()[i];
    EXPECT_EQ(loaded[i].kind, expected.kind);
    EXPECT_EQ(loaded[i].name, expected.name);
    EXPECT_EQ(loaded[i].stream_id, expected.stream_id);
    EXPECT_DOUBLE_EQ(loaded[i].start_ms, expected.start_ms);
    EXPECT_DOUBLE_EQ(loaded[i].duration_ms, expected.duration_ms);
  }
  EXPECT_EQ(loaded[0].stream_id, s1);
  EXPECT_EQ(loaded[1].stream_id, s2);
  EXPECT_EQ(loaded[1].kernel.stream_id, s2);
}

TEST(ExportTest, CacheCountersRoundTrip) {
  // A kernel that records tile-cache activity exports a "cache" object, and
  // TraceFromJson restores every counter.
  sim::Device dev;
  Tracer tracer;
  dev.AttachTracer(&tracer);
  dev.Launch("serve.query", SmallLaunch(4), [](sim::BlockContext& ctx) {
    ctx.CoalescedRead(2048, true);
    if (ctx.block_id() == 0) {
      ctx.CacheHit(1536);
      ctx.CacheHit(1536);
      ctx.CacheMiss();
      ctx.CacheEvictions(3);
    }
  });

  const std::string json = telemetry::ToJson(tracer);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &root, &error)) << error;
  EXPECT_EQ(root.Get("schema").AsString(), telemetry::kTraceSchema);
  const JsonValue& span = root.Get("spans").AsArray()[0];
  ASSERT_TRUE(span.Has("cache"));
  const JsonValue& cache = span.Get("cache");
  EXPECT_EQ(cache.Get("hits").AsUint64(), 2u);
  EXPECT_EQ(cache.Get("misses").AsUint64(), 1u);
  EXPECT_EQ(cache.Get("evictions").AsUint64(), 3u);
  EXPECT_EQ(cache.Get("saved_bytes").AsUint64(), 3072u);

  std::vector<Span> loaded;
  ASSERT_TRUE(telemetry::TraceFromJson(json, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 1u);
  const sim::CacheCounters& counters = loaded[0].kernel.stats.cache;
  EXPECT_EQ(counters.hits, 2u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.evictions, 3u);
  EXPECT_EQ(counters.saved_bytes, 3072u);
}

TEST(ExportTest, PushdownCountersRoundTripV6) {
  // A kernel that records compressed-domain predicate evaluation exports a
  // "pushdown" object, and TraceFromJson restores every counter.
  sim::Device dev;
  Tracer tracer;
  dev.AttachTracer(&tracer);
  dev.Launch("crystal.query", SmallLaunch(4), [](sim::BlockContext& ctx) {
    ctx.CoalescedRead(2048, true);
    if (ctx.block_id() == 0) {
      ctx.PushdownTilePruned();
      ctx.PushdownTilePruned();
      ctx.TileDecoded();
      ctx.PushdownBlocksShortCircuited(5);
      ctx.PushdownRunsShortCircuited(9);
    }
  });

  const std::string json = telemetry::ToJson(tracer);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &root, &error)) << error;
  const JsonValue& span = root.Get("spans").AsArray()[0];
  ASSERT_TRUE(span.Has("pushdown"));
  const JsonValue& pd = span.Get("pushdown");
  EXPECT_EQ(pd.Get("tiles_pruned").AsUint64(), 2u);
  EXPECT_EQ(pd.Get("tiles_decoded").AsUint64(), 1u);
  EXPECT_EQ(pd.Get("blocks_short_circuited").AsUint64(), 5u);
  EXPECT_EQ(pd.Get("runs_short_circuited").AsUint64(), 9u);

  std::vector<Span> loaded;
  ASSERT_TRUE(telemetry::TraceFromJson(json, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 1u);
  const sim::PushdownCounters& counters = loaded[0].kernel.stats.pushdown;
  EXPECT_EQ(counters.tiles_pruned, 2u);
  EXPECT_EQ(counters.tiles_decoded, 1u);
  EXPECT_EQ(counters.blocks_short_circuited, 5u);
  EXPECT_EQ(counters.runs_short_circuited, 9u);
  EXPECT_DOUBLE_EQ(counters.prune_rate(), 2.0 / 3.0);
}

TEST(ExportTest, PrefetchCountersRoundTripV7) {
  // A kernel that records speculative-prefetch activity exports a
  // "prefetch" object and the cache "prefetch_hits" field, and
  // TraceFromJson restores every counter.
  sim::Device dev;
  Tracer tracer;
  dev.AttachTracer(&tracer);
  dev.Launch("prefetch.decode", SmallLaunch(4), [](sim::BlockContext& ctx) {
    ctx.CoalescedRead(2048, true);
    if (ctx.block_id() == 0) {
      ctx.PrefetchIssued(6);
      ctx.PrefetchUseful(3);
      ctx.PrefetchWasted(2);
      ctx.PrefetchLate(1);
      ctx.CachePrefetchHit(512);
      ctx.CacheHit(256);
    }
  });

  const std::string json = telemetry::ToJson(tracer);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &root, &error)) << error;
  const JsonValue& span = root.Get("spans").AsArray()[0];
  ASSERT_TRUE(span.Has("prefetch"));
  const JsonValue& pf = span.Get("prefetch");
  EXPECT_EQ(pf.Get("issued").AsUint64(), 6u);
  EXPECT_EQ(pf.Get("useful").AsUint64(), 3u);
  EXPECT_EQ(pf.Get("wasted").AsUint64(), 2u);
  EXPECT_EQ(pf.Get("late").AsUint64(), 1u);
  EXPECT_EQ(span.Get("cache").Get("prefetch_hits").AsUint64(), 1u);

  std::vector<Span> loaded;
  ASSERT_TRUE(telemetry::TraceFromJson(json, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 1u);
  const sim::PrefetchCounters& counters = loaded[0].kernel.stats.prefetch;
  EXPECT_EQ(counters.issued, 6u);
  EXPECT_EQ(counters.useful, 3u);
  EXPECT_EQ(counters.wasted, 2u);
  EXPECT_EQ(counters.late, 1u);
  EXPECT_DOUBLE_EQ(counters.wasted_rate(), 2.0 / 6.0);
  const sim::CacheCounters& cache = loaded[0].kernel.stats.cache;
  EXPECT_EQ(cache.prefetch_hits, 1u);
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.saved_bytes, 768u);
}

TEST(ExportTest, FaultFieldsRoundTripV5) {
  // With a fault plan forcing transfer retries and a failed launch, the v5
  // export carries a "faults" object on both span kinds, and TraceFromJson
  // restores it.
  fault::FaultPlanOptions fopts;
  fopts.rate[static_cast<int>(fault::FaultSite::kTransfer)] = 1.0;
  fopts.rate[static_cast<int>(fault::FaultSite::kKernelLaunch)] = 1.0;
  fault::FaultPlan plan(fopts);
  sim::Device dev;
  dev.AttachFaultPlan(&plan);
  Tracer tracer;
  dev.AttachTracer(&tracer);
  dev.TransferAsync(sim::kDefaultStream, 1 << 20);
  dev.Launch("doomed", SmallLaunch(4),
             [](sim::BlockContext& ctx) { ctx.CoalescedRead(2048, true); });

  const std::string json = telemetry::ToJson(tracer);
  std::vector<Span> loaded;
  std::string error;
  ASSERT_TRUE(telemetry::TraceFromJson(json, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].kind, SpanKind::kTransfer);
  EXPECT_EQ(loaded[0].fault_retries, fopts.max_transfer_attempts - 1);
  EXPECT_TRUE(loaded[0].fault_failed);
  EXPECT_EQ(loaded[1].kind, SpanKind::kKernel);
  EXPECT_EQ(loaded[1].kernel.fault_retries, fopts.max_launch_attempts - 1);
  EXPECT_TRUE(loaded[1].kernel.failed);
}

TEST(ExportTest, RejectsUnknownTraceSchema) {
  // Only the current schema loads; older versions are rejected like unknown
  // ones.
  for (const char* schema :
       {"tilecomp.trace.v99", "tilecomp.trace.v1", "tilecomp.trace.v9"}) {
    std::vector<Span> spans;
    std::string error;
    EXPECT_FALSE(telemetry::TraceFromJson(
        std::string("{\"schema\":\"") + schema + "\",\"spans\":[]}", &spans,
        &error))
        << schema;
    EXPECT_NE(error.find("schema"), std::string::npos) << schema;
    EXPECT_FALSE(telemetry::IsKnownTraceSchema(schema)) << schema;
  }
  EXPECT_TRUE(telemetry::IsKnownTraceSchema(telemetry::kTraceSchema));
}

TEST(ExportTest, ChromeTraceHasPerStreamLanes) {
  sim::Device dev;
  Tracer tracer;
  dev.AttachTracer(&tracer);
  auto values = TestColumn(16384);
  auto col = codec::ChunkEncode(Scheme::kGpuFor, values, 4);
  codec::DecompressPipelined(dev, col);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(telemetry::ToChromeTrace(tracer), &root, &error))
      << error;
  std::set<int64_t> work_tids;
  size_t lane_names = 0;
  for (const JsonValue& event : root.Get("traceEvents").AsArray()) {
    if (event.Get("ph").AsString() == "M") {
      if (event.Get("name").AsString() == "thread_name") ++lane_names;
      continue;
    }
    work_tids.insert(event.Get("tid").AsInt64());
  }
  // Two async streams -> at least two distinct work lanes, each named.
  EXPECT_GE(work_tids.size(), 2u);
  EXPECT_GE(lane_names, 3u);  // scopes + stream 0 + the async streams
}

TEST(JsonTest, ParserRejectsMalformed) {
  JsonValue out;
  std::string error;
  EXPECT_FALSE(ParseJson("{\"a\":", &out, &error));
  EXPECT_FALSE(ParseJson("[1,2,]", &out, &error));
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing", &out, &error));
  EXPECT_TRUE(ParseJson(" {\"a\": [1, 2.5, \"x\\n\", true, null]} ", &out,
                        &error))
      << error;
  EXPECT_EQ(out.Get("a").AsArray().size(), 5u);
}

}  // namespace
}  // namespace tilecomp
