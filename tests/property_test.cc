// Property-based differential testing of the codec stack: a seeded generator
// sweeps random (scheme x distribution x n x bit-width x tile-count)
// configurations and checks that every one decodes bit-exactly through
//
//   * the host reference decoder (CompressedColumn::DecodeHost),
//   * the fused device pipeline (kernels::Decompress, Pipeline::kFused),
//   * the cascaded device pipeline (Pipeline::kCascaded),
//
// under both static and persistent (work-stealing) scheduling. Any failure
// prints the reproducing seed and configuration via SCOPED_TRACE.
//
// Environment knobs:
//   TILECOMP_PROPERTY_CONFIGS — number of configurations (default 240)
//   TILECOMP_PROPERTY_SEED    — base seed (default 0xC0FFEE); rerun with the
//                               seed a failure printed to reproduce it alone.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <atomic>

#include "codec/column.h"
#include "codec/systems.h"
#include "common/random.h"
#include "crystal/load_column.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "kernels/dispatch.h"
#include "load/load_gen.h"
#include "serve/prefetcher.h"
#include "serve/server.h"
#include "sim/device.h"
#include "ssb/generator.h"
#include "ssb/queries.h"

namespace tilecomp {
namespace {

using codec::CompressedColumn;
using codec::Scheme;

constexpr Scheme kSchemes[] = {
    Scheme::kNone, Scheme::kGpuFor, Scheme::kGpuDFor,
    Scheme::kGpuRFor, Scheme::kNsf, Scheme::kNsv,
    Scheme::kRle, Scheme::kGpuBp, Scheme::kSimdBp128,
};

enum class Dist {
  kUniformBits,
  kUniformRange,
  kSortedUnique,
  kNormal,
  kZipf,
  kRuns,
  kSortedGaps,
  kConstant,
  kNumDists,
};

const char* DistName(Dist dist) {
  switch (dist) {
    case Dist::kUniformBits: return "uniform-bits";
    case Dist::kUniformRange: return "uniform-range";
    case Dist::kSortedUnique: return "sorted-unique";
    case Dist::kNormal: return "normal";
    case Dist::kZipf: return "zipf";
    case Dist::kRuns: return "runs";
    case Dist::kSortedGaps: return "sorted-gaps";
    case Dist::kConstant: return "constant";
    default: return "?";
  }
}

struct Config {
  Scheme scheme = Scheme::kNone;
  Dist dist = Dist::kUniformBits;
  size_t n = 0;
  uint32_t bits = 0;
  uint64_t seed = 0;

  std::string Describe() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "scheme=%s dist=%s n=%zu bits=%u seed=0x%llX",
                  codec::SchemeName(scheme), DistName(dist), n, bits,
                  static_cast<unsigned long long>(seed));
    return buf;
  }
};

Config DrawConfig(Rng& rng, uint64_t seed) {
  Config cfg;
  cfg.seed = seed;
  cfg.scheme = kSchemes[rng.NextBounded(std::size(kSchemes))];
  cfg.dist = static_cast<Dist>(
      rng.NextBounded(static_cast<uint64_t>(Dist::kNumDists)));
  cfg.bits = 1 + static_cast<uint32_t>(rng.NextBounded(32));
  // Sizes cluster around tile boundaries (512-value tiles) so tail-tile
  // handling is exercised as often as bulk decoding: 1, k*512 - 1, k*512,
  // k*512 + 1, plus fully random sizes up to 16 tiles.
  const uint64_t tiles = 1 + rng.NextBounded(16);
  switch (rng.NextBounded(5)) {
    case 0: cfg.n = 1; break;
    case 1: cfg.n = tiles * 512 - 1; break;
    case 2: cfg.n = tiles * 512; break;
    case 3: cfg.n = tiles * 512 + 1; break;
    default: cfg.n = 1 + rng.NextBounded(16 * 512); break;
  }
  return cfg;
}

std::vector<uint32_t> Generate(const Config& cfg) {
  const uint64_t seed = cfg.seed;
  const uint32_t max_value =
      cfg.bits >= 32 ? 0xFFFFFFFFu : ((1u << cfg.bits) - 1);
  switch (cfg.dist) {
    case Dist::kUniformBits:
      return GenUniformBits(cfg.n, cfg.bits, seed);
    case Dist::kUniformRange: {
      const uint32_t lo = max_value / 4;
      return GenUniformRange(cfg.n, lo, std::max(lo + 1, max_value), seed);
    }
    case Dist::kSortedUnique:
      return GenSortedUnique(cfg.n, std::max<uint64_t>(1, max_value / 2),
                             seed);
    case Dist::kNormal:
      return GenNormal(cfg.n, max_value / 2.0,
                       std::max(1.0, max_value / 16.0), seed);
    case Dist::kZipf:
      return GenZipf(cfg.n, std::max<uint64_t>(2, max_value), 1.5, seed);
    case Dist::kRuns:
      return GenRuns(cfg.n, 1 + static_cast<uint32_t>(seed % 64),
                     std::min(cfg.bits, 20u), seed);
    case Dist::kSortedGaps:
      return GenSortedGaps(cfg.n, 1 + (max_value >> 8), seed);
    case Dist::kConstant:
      return std::vector<uint32_t>(cfg.n,
                                   static_cast<uint32_t>(seed) & max_value);
    default:
      return {};
  }
}

uint64_t EnvU64(const char* name, uint64_t default_value) {
  const char* value = std::getenv(name);
  return value == nullptr ? default_value
                          : std::strtoull(value, nullptr, 0);
}

void CheckConfig(const Config& cfg) {
  SCOPED_TRACE(cfg.Describe());
  const std::vector<uint32_t> values = Generate(cfg);
  ASSERT_EQ(values.size(), cfg.n);

  const CompressedColumn column = CompressedColumn::Encode(cfg.scheme, values);
  ASSERT_EQ(column.size(), cfg.n);

  // Host reference decoder.
  EXPECT_EQ(column.DecodeHost(), values) << "host reference mismatch";

  // Device pipelines, both schedulings. Schemes with a single pipeline (or
  // no scheduling knob) run the same kernels twice — still asserted.
  sim::Device dev;
  for (kernels::Pipeline pipeline :
       {kernels::Pipeline::kFused, kernels::Pipeline::kCascaded}) {
    for (sim::Scheduling scheduling :
         {sim::Scheduling::kStatic, sim::Scheduling::kPersistent}) {
      SCOPED_TRACE(std::string(pipeline == kernels::Pipeline::kFused
                                   ? "fused"
                                   : "cascaded") +
                   "/" + sim::SchedulingName(scheduling));
      kernels::DecompressRun run =
          kernels::Decompress(dev, column, pipeline, scheduling);
      EXPECT_EQ(run.output, values) << "device decode mismatch";
    }
  }
}

TEST(PropertyTest, RandomConfigSweepIsBitExact) {
  const uint64_t base_seed = EnvU64("TILECOMP_PROPERTY_SEED", 0xC0FFEE);
  const uint64_t configs = EnvU64("TILECOMP_PROPERTY_CONFIGS", 240);
  for (uint64_t i = 0; i < configs; ++i) {
    // Each config derives its own seed so a failure reproduces alone with
    // TILECOMP_PROPERTY_SEED=<printed seed> TILECOMP_PROPERTY_CONFIGS=1.
    Rng seeder(base_seed + i);
    const uint64_t config_seed = i == 0 ? base_seed : seeder.Next();
    Rng rng(config_seed);
    CheckConfig(DrawConfig(rng, config_seed));
    if (HasFatalFailure() || HasNonfatalFailure()) {
      ADD_FAILURE() << "reproduce with TILECOMP_PROPERTY_SEED=0x" << std::hex
                    << config_seed << " TILECOMP_PROPERTY_CONFIGS=1";
      break;
    }
  }
}

// Compressed-domain pushdown dimension: for every scheme, a selectivity
// sweep with point and range predicates checks that the per-tile masks
// EvaluateColumnTile produces are bit-identical to evaluating the predicate
// on the host-decoded values (pruning disabled by construction — the host
// path decodes everything).
void CheckPushdownConfig(const Config& cfg, double selectivity, bool point) {
  SCOPED_TRACE(cfg.Describe() + (point ? " point" : " range") +
               " sel=" + std::to_string(selectivity));
  std::vector<uint32_t> values = Generate(cfg);
  const CompressedColumn column = CompressedColumn::Encode(cfg.scheme, values);

  // Derive a predicate with roughly the requested selectivity from the
  // sorted value distribution. Selectivity 0 asks for a value past the
  // maximum; 1.0 covers the whole domain (a point predicate degenerates to
  // the full range only on a constant column, so use min==max range there).
  std::vector<uint32_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  crystal::TilePredicate pred;
  if (selectivity <= 0.0) {
    if (sorted.back() == 0xFFFFFFFFu && sorted.front() == 0) return;
    pred = sorted.back() < 0xFFFFFFFFu
               ? crystal::TilePredicate::Point(sorted.back() + 1)
               : crystal::TilePredicate::Range(0, sorted.front() - 1);
  } else if (point) {
    // A present value at the requested quantile.
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(selectivity * (sorted.size() - 1)));
    pred = crystal::TilePredicate::Point(sorted[idx]);
  } else if (selectivity >= 1.0) {
    pred = crystal::TilePredicate::Range(0, 0xFFFFFFFFu);
  } else {
    const size_t first = static_cast<size_t>(0.25 * (sorted.size() - 1));
    const size_t last = std::min(
        sorted.size() - 1,
        first + static_cast<size_t>(selectivity * (sorted.size() - 1)));
    pred = crystal::TilePredicate::Range(sorted[first], sorted[last]);
  }

  // Pushdown path: one kernel, one mask per tile.
  const int64_t num_tiles = crystal::NumTiles(column.size());
  std::vector<crystal::TileMask> masks(static_cast<size_t>(num_tiles));
  sim::Device dev;
  sim::LaunchConfig lc;
  lc.grid_dim = num_tiles;
  lc.block_threads = 128;
  dev.Launch("property.pushdown", lc, [&](sim::BlockContext& ctx) {
    crystal::TileMask mask = crystal::TileMask::AllSet();
    crystal::EvaluateColumnTile(ctx, column, ctx.block_id(), pred, &mask);
    masks[static_cast<size_t>(ctx.block_id())] = mask;
  });

  // Host reference: decode everything, test row at a time.
  for (int64_t t = 0; t < num_tiles; ++t) {
    SCOPED_TRACE("tile " + std::to_string(t));
    const size_t begin = static_cast<size_t>(t) * crystal::kTileSize;
    const size_t end = std::min(values.size(), begin + crystal::kTileSize);
    crystal::TileMask want =
        crystal::TileMask::AllSet(static_cast<uint32_t>(end - begin));
    for (size_t i = begin; i < end; ++i) {
      if (!pred.Matches(values[i])) {
        want.Clear(static_cast<uint32_t>(i - begin));
      }
    }
    EXPECT_TRUE(masks[static_cast<size_t>(t)] == want)
        << "pushdown mask diverges from the host-evaluated mask";
  }
}

TEST(PropertyTest, PushdownMasksMatchHostEvaluation) {
  const uint64_t base_seed = EnvU64("TILECOMP_PROPERTY_SEED", 0xC0FFEE);
  const Dist dists[] = {Dist::kSortedGaps, Dist::kUniformBits, Dist::kRuns,
                        Dist::kConstant};
  for (Scheme scheme : kSchemes) {
    for (Dist dist : dists) {
      Config cfg;
      cfg.scheme = scheme;
      cfg.dist = dist;
      cfg.n = 3 * 512 + 41;  // bulk tiles plus a ragged tail
      cfg.bits = 14;
      cfg.seed = base_seed;
      for (double selectivity : {0.0, 0.01, 0.5, 1.0}) {
        for (bool point : {true, false}) {
          CheckPushdownConfig(cfg, selectivity, point);
          if (HasFatalFailure() || HasNonfatalFailure()) return;
        }
      }
    }
  }
}

// Speculative-prefetch dimension: a synthetic serving trace (sequential
// scan rounds interleaved with Zipf-skewed probe rounds) drives the cached
// tile loader against a pressured cache, with the prefetcher on and off,
// across every eviction policy. Properties checked:
//   * every served tile is bit-exact against the generated values — a
//     speculatively staged tile must be indistinguishable from a demand
//     decode;
//   * the cache budget is never exceeded, including by speculative inserts;
//   * with prefetching on, the scan rounds actually cause speculation.
void CheckPrefetchConfig(const Config& cfg, serve::EvictionPolicy policy,
                         double alpha, bool prefetch_on) {
  SCOPED_TRACE(cfg.Describe() + " policy=" +
               serve::EvictionPolicyName(policy) +
               " alpha=" + std::to_string(alpha) +
               (prefetch_on ? " prefetch=on" : " prefetch=off"));
  const std::vector<uint32_t> values = Generate(cfg);
  const CompressedColumn column = CompressedColumn::Encode(cfg.scheme, values);
  const int64_t num_tiles = crystal::NumTiles(column.size());
  const codec::ColumnId col_id(0);

  // Budget well below the working set, deliberately unaligned: eviction
  // (and refusal of speculative inserts) is constantly exercised.
  const uint64_t budget =
      (static_cast<uint64_t>(num_tiles) / 2) * crystal::kTileSize *
          sizeof(uint32_t) +
      33;
  sim::Device dev;
  serve::TileCache cache(budget, policy);
  serve::PrefetchOptions popts;
  popts.enabled = prefetch_on;
  popts.initial_depth = 2;
  popts.max_depth = 8;
  serve::Prefetcher prefetcher(dev, &cache, popts);
  serve::CachedTileLoader loader(&cache);
  if (prefetch_on) {
    prefetcher.RegisterColumn(col_id, &column);
    loader.set_prefetcher(&prefetcher);
  }

  // Zipf-skewed probe targets (alpha controls how hot the hot tiles are).
  const std::vector<uint32_t> probes =
      GenZipf(256, static_cast<uint64_t>(num_tiles), alpha, cfg.seed ^ 0x51F);

  std::atomic<uint64_t> mismatches{0};
  size_t probe_cursor = 0;
  for (int round = 0; round < 12; ++round) {
    std::vector<int64_t> access;
    if (round % 3 != 2) {
      // Scan round: every tile in order (classified sequential).
      for (int64_t t = 0; t < num_tiles; ++t) access.push_back(t);
    } else {
      // Probe round: 16 Zipf draws (usually classified random).
      for (int k = 0; k < 16; ++k) {
        access.push_back(static_cast<int64_t>(
            probes[probe_cursor++ % probes.size()] %
            static_cast<uint32_t>(num_tiles)));
      }
    }
    sim::LaunchConfig lc;
    lc.grid_dim = static_cast<int64_t>(access.size());
    lc.block_threads = 128;
    dev.Launch("property.prefetch_serve", lc, [&](sim::BlockContext& ctx) {
      const int64_t tile = access[static_cast<size_t>(ctx.block_id())];
      uint32_t buf[crystal::kTileSize];
      const uint32_t n = loader.LoadTile(ctx, column, col_id, tile, buf);
      const size_t begin = static_cast<size_t>(tile) * crystal::kTileSize;
      for (uint32_t i = 0; i < n; ++i) {
        if (buf[i] != values[begin + i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    ASSERT_LE(cache.stats().bytes_in_use, budget) << "round " << round;
    if (prefetch_on) prefetcher.IssueRound();
    ASSERT_LE(cache.stats().bytes_in_use, budget)
        << "round " << round << " after speculation";
  }
  EXPECT_EQ(mismatches.load(), 0u) << "served tile diverged from the input";
  const serve::TileCache::Stats s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  if (prefetch_on) {
    EXPECT_GT(s.prefetch_issued, 0u);
  } else {
    EXPECT_EQ(s.prefetch_issued, 0u);
    EXPECT_EQ(s.prefetch_hits, 0u);
  }
}

TEST(PropertyTest, PrefetchServingIsBitExactUnderPressure) {
  const uint64_t base_seed = EnvU64("TILECOMP_PROPERTY_SEED", 0xC0FFEE);
  for (Scheme scheme : {Scheme::kGpuFor, Scheme::kGpuBp}) {
    for (serve::EvictionPolicy policy :
         {serve::EvictionPolicy::kLru, serve::EvictionPolicy::kCostAware}) {
      for (double alpha : {0.8, 1.2}) {
        for (bool prefetch_on : {false, true}) {
          Config cfg;
          cfg.scheme = scheme;
          cfg.dist = Dist::kUniformBits;
          cfg.n = 24 * 512 + 17;  // 25 tiles, ragged tail
          cfg.bits = 13;
          cfg.seed = base_seed;
          CheckPrefetchConfig(cfg, policy, alpha, prefetch_on);
          if (HasFatalFailure() || HasNonfatalFailure()) return;
        }
      }
    }
  }
}

// Directed regression configs: every scheme at the awkward sizes the random
// sweep clusters around, with a constant and a single-value input.
TEST(PropertyTest, DirectedEdgeConfigs) {
  for (Scheme scheme : kSchemes) {
    for (size_t n : {size_t{1}, size_t{511}, size_t{512}, size_t{513}}) {
      Config cfg;
      cfg.scheme = scheme;
      cfg.dist = Dist::kConstant;
      cfg.n = n;
      cfg.bits = 7;
      cfg.seed = 0xDEADBEEF;
      CheckConfig(cfg);
    }
  }
}

// --- Loaded serving: admitted-ok bit-exactness and shed invariance over
// load-generator kind x admission policy x fault rate ---

const ssb::SsbData& LoadSweepData() {
  static const ssb::SsbData* data =
      new ssb::SsbData(ssb::GenerateSsbSmall(30000));
  return *data;
}

// Run `workload` through a fresh device/server/fault-plan and check every
// admitted-ok query bit-exact against the host reference. The fault plan is
// rebuilt from (fault_rate, fault_seed) each call, so two runs with the
// same arguments see identical injection sequences.
serve::ServeReport RunLoadedServe(const ssb::EncodedLineorder& enc,
                                  load::Workload& workload,
                                  serve::AdmissionPolicy policy,
                                  double fault_rate, uint64_t fault_seed) {
  sim::Device dev;
  fault::FaultPlan plan(fault::FaultPlanOptions::Uniform(fault_rate, fault_seed));
  serve::ServeOptions options;
  options.num_streams = 2;
  options.cache_budget_bytes = 128ull << 20;
  options.admission.policy = policy;
  options.admission.queue_capacity = 2;
  if (fault_rate > 0.0) options.fault_plan = &plan;
  serve::Server server(dev, LoadSweepData(), enc, options);
  serve::ServeReport report = server.ServeLoad(workload);
  for (const serve::ServedQuery& sq : report.queries) {
    if (sq.status != serve::QueryStatus::kOk) continue;
    const ssb::QueryResult ref = server.runner().RunHostReference(sq.query);
    EXPECT_EQ(sq.result.groups, ref.groups)
        << "request " << sq.request_id << " " << ssb::QueryName(sq.query);
  }
  return report;
}

TEST(PropertyTest, LoadedServingBitExactAndShedInvariant) {
  const uint64_t base_seed = EnvU64("TILECOMP_PROPERTY_SEED", 0xC0FFEE);
  const ssb::EncodedLineorder enc =
      ssb::EncodeLineorder(LoadSweepData(), codec::System::kGpuStar);

  for (bool bursty : {false, true}) {
    for (serve::AdmissionPolicy policy :
         {serve::AdmissionPolicy::kShedLowPriority,
          serve::AdmissionPolicy::kQueueAll}) {
      for (double fault_rate : {0.0, 0.01}) {
        SCOPED_TRACE(std::string(bursty ? "bursty" : "poisson") + " / " +
                     serve::AdmissionPolicyName(policy) + " / fault_rate " +
                     std::to_string(fault_rate));
        load::OpenLoopOptions gen;
        // Far past capacity even in the MMPP's rate-scaled calm phase, so
        // the bounded-queue legs genuinely shed.
        gen.rate_qps = 100000.0;
        gen.num_queries = 24;
        gen.seed = base_seed + (bursty ? 1 : 0);
        if (bursty) gen.burst_factor = 6.0;
        const load::Schedule schedule = load::GenOpenLoop(gen);
        const load::WorkloadSpec spec;
        const uint64_t fault_seed = base_seed ^ 0xFA;

        load::OpenLoopWorkload workload(schedule, spec);
        const serve::ServeReport first =
            RunLoadedServe(enc, workload, policy, fault_rate, fault_seed);
        if (HasFatalFailure() || HasNonfatalFailure()) return;

        if (policy == serve::AdmissionPolicy::kQueueAll) {
          EXPECT_EQ(first.admission.shed, 0u);
          continue;
        }
        ASSERT_GT(first.shed_queries, 0u)
            << "overload sweep should actually shed under the bounded queue";

        // Shed invariance: shed requests never touched the device, the
        // cache or the fault plan, so the schedule minus its shed requests
        // must replay every admitted query bit-identically — same modeled
        // times, same statuses, same results, same cache and fault
        // counters.
        load::Schedule pruned;
        for (const load::Request& r : schedule.requests) {
          const serve::ServedQuery& sq = first.queries[r.id];
          ASSERT_EQ(sq.request_id, r.id);  // ServeLoad sorts by request id
          if (sq.status != serve::QueryStatus::kShed) {
            pruned.requests.push_back(r);
          }
        }
        load::OpenLoopWorkload pruned_workload(pruned, spec);
        const serve::ServeReport second =
            RunLoadedServe(enc, pruned_workload, policy, fault_rate, fault_seed);
        if (HasFatalFailure() || HasNonfatalFailure()) return;

        ASSERT_EQ(second.queries.size(), pruned.requests.size());
        size_t j = 0;
        for (const serve::ServedQuery& sq : first.queries) {
          if (sq.status == serve::QueryStatus::kShed) continue;
          const serve::ServedQuery& rq = second.queries[j++];
          EXPECT_EQ(rq.request_id, sq.request_id);
          EXPECT_EQ(rq.status, sq.status);
          EXPECT_DOUBLE_EQ(rq.admit_ms, sq.admit_ms);
          EXPECT_DOUBLE_EQ(rq.finish_ms, sq.finish_ms);
          EXPECT_DOUBLE_EQ(rq.queue_ms, sq.queue_ms);
          EXPECT_EQ(rq.result.groups, sq.result.groups);
        }
        EXPECT_EQ(second.cache.hits, first.cache.hits);
        EXPECT_EQ(second.cache.misses, first.cache.misses);
        EXPECT_EQ(second.cache.evictions, first.cache.evictions);
        EXPECT_EQ(second.cache.inserts, first.cache.inserts);
        EXPECT_EQ(second.faults.consults, first.faults.consults);
        EXPECT_EQ(second.faults.injected, first.faults.injected);
        EXPECT_EQ(second.faults.retries, first.faults.retries);
        EXPECT_EQ(second.admission.shed, 0u)
            << "the pruned schedule fits: nothing left to shed";
        if (HasFatalFailure() || HasNonfatalFailure()) return;
      }
    }
  }

  // Closed-loop x fault-rate leg: the population self-limits (no shedding
  // with queue_all) and every finished query stays bit-exact.
  for (double fault_rate : {0.0, 0.01}) {
    SCOPED_TRACE("closed-loop / fault_rate " + std::to_string(fault_rate));
    load::ClosedLoopOptions gen;
    gen.num_users = 4;
    gen.num_queries = 24;
    gen.think_ms = 0.1;
    gen.seed = base_seed + 2;
    load::ClosedLoopWorkload workload(gen, load::WorkloadSpec());
    const serve::ServeReport report =
        RunLoadedServe(enc, workload, serve::AdmissionPolicy::kQueueAll,
                       fault_rate, base_seed ^ 0xFB);
    EXPECT_EQ(report.admission.shed, 0u);
    EXPECT_LE(report.admission.max_queue_depth,
              static_cast<uint64_t>(gen.num_users));
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

}  // namespace
}  // namespace tilecomp
