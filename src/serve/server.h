// Query-serving layer: admits SSB queries across async device streams,
// routing every fact-column tile load through the decompressed-tile
// cache (tile_cache.h).
//
// Two cache integration points, matching the two query pipelines:
//
//   * Inline systems (None / GPU-*): the query kernel's per-tile loads go
//     through CachedTileLoader — a hit reads the cached decoded tile from
//     (modeled) global memory instead of re-running the inline decode; a
//     miss decodes and inserts. Hits trade decode compute / shared-memory
//     staging for a plain coalesced read.
//
//   * Decompress-then-query systems (GPU-BP / nvCOMP / Planner): the server
//     checks residency per column before launching the system's decompress
//     pipeline. If every tile of the column is cached the decompress launch
//     is skipped entirely and the query kernel reads the cached tiles
//     through CachedTileLoader — this is where the cache pays off most,
//     since these systems otherwise re-decompress whole columns (including
//     every cascade intermediate) on every query.
//
// Predicate pushdown threads through both points. The query kernel asks its
// accessor to evaluate fact predicates per tile (EvaluateOnTile answers from
// a resident decoded tile when it can, from zone maps and encoded structure
// otherwise), and MaterializeColumns consults the stored columns' zone maps
// to skip tiles no predicate can reach — those tiles need no residency, no
// decompress accounting, and never enter the cache.
//
// Scheduling: one serving loop. ServeLoad drives a load::Workload on the
// simulated clock — requests arrive, pass through the bounded priority
// AdmissionQueue (admission.h) in front of one service slot per stream, and
// either start on the lowest-numbered free stream, wait (queueing delay,
// measured separately from service time), or are shed with
// QueryStatus::kShed. Shed requests never touch the device, the cache or the
// fault plan, so a schedule with its shed requests removed replays
// bit-identically — the shed-invariance property bench_slo enforces.
//
// A fixed batch (Serve) is the load::BatchWorkload: num_streams requests
// arrive at t = 0 and each completion releases the next, so every arrival
// finds a free stream — nothing queues or sheds, queue_ms is 0 and
// end-to-end latency equals service latency.
#ifndef TILECOMP_SERVE_SERVER_H_
#define TILECOMP_SERVE_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "crystal/load_column.h"
#include "fault/fault.h"
#include "load/load_gen.h"
#include "serve/admission.h"
#include "serve/prefetcher.h"
#include "serve/tile_cache.h"
#include "sim/device.h"
#include "sim/stats.h"
#include "ssb/queries.h"

namespace tilecomp::serve {

// Per-query outcome under fault injection. Everything except kOk means the
// query's result must be discarded — the server degrades to a clean error
// status, never to a wrong answer.
enum class QueryStatus {
  kOk = 0,
  kTransferFailed,  // a column upload exhausted its transfer attempts
  kLaunchFailed,    // a kernel launch exhausted its issue attempts
  kDecodeFailed,    // a tile decode exhausted its attempts (output zeroed)
  kShed,            // dropped by admission control; never entered service
};

const char* QueryStatusName(QueryStatus status);

// Tile-load strategy backed by a TileCache. Safe for concurrent use from
// kernel-body host threads; cache hit/miss/eviction counts are recorded on
// the calling block's stats, so they surface on the kernel's telemetry span.
//
// With a fault plan attached, two injection points fire here:
//   * poisoned tile (kTileDecode on a hit): the cached copy is treated as
//     corrupt — the entry is invalidated so it can never be served again,
//     and the loader falls through to a fresh decode + re-insert;
//   * decode fault (kTileDecode on a miss): the decode re-runs up to the
//     plan's attempt budget; on terminal failure the output tile is zeroed
//     and a sticky per-batch flag is raised (TakeDecodeFailure) so the
//     server can fail the query cleanly instead of serving garbage.
class CachedTileLoader : public crystal::ColumnAccessor {
 public:
  explicit CachedTileLoader(TileCache* cache,
                            fault::FaultPlan* fault_plan = nullptr)
      : cache_(cache), fault_plan_(fault_plan) {}

  uint32_t LoadTile(sim::BlockContext& ctx,
                    const codec::CompressedColumn& column,
                    codec::ColumnId column_id, int64_t tile_id,
                    uint32_t* out_tile) override;

  // Answer a predicate from the cached decoded tile when resident (a plain
  // coalesced read, no zone-map reasoning needed), falling back to the
  // compressed-domain evaluator otherwise. Deliberately side-effect free on
  // the cache: no hit/miss counters, no replacement-order touch, no fault
  // consults (a poison draw here would yield a silently wrong mask instead
  // of a recoverable decode error), and never an insert — tiles the mask
  // kills are never materialized.
  uint32_t EvaluateOnTile(sim::BlockContext& ctx,
                          const codec::CompressedColumn& column,
                          codec::ColumnId column_id, int64_t tile_id,
                          const crystal::TilePredicate& pred,
                          crystal::TileMask* mask) override;

  void set_fault_plan(fault::FaultPlan* plan) { fault_plan_ = plan; }

  // Optional prefetcher to feed with the demand tile-access sequence (not
  // owned; nullptr to detach). Every LoadTile reports its (column, tile) so
  // the prefetcher can classify the access pattern.
  void set_prefetcher(Prefetcher* prefetcher) { prefetcher_ = prefetcher; }

  // True if any tile decode failed terminally since the last call; clears
  // the flag. The server calls this once per query.
  bool TakeDecodeFailure() {
    return decode_failed_.exchange(false, std::memory_order_relaxed);
  }

 private:
  TileCache* cache_;
  fault::FaultPlan* fault_plan_ = nullptr;
  Prefetcher* prefetcher_ = nullptr;
  std::atomic<bool> decode_failed_{false};
};

// Estimated encoded footprint of one tile of `column` — what a cache hit
// saves reading (the whole-column footprint spread evenly over its tiles).
uint64_t TileEncodedBytes(const codec::CompressedColumn& column);

// Nearest-rank percentile of `samples` (need not be sorted): the smallest
// sample such that at least q_pct percent of all samples are <= it, i.e.
// sorted index ceil(q_pct/100 * n) - 1. Returns 0 for an empty set.
// Computed with integer arithmetic so the rank is exact — a floored rank
// (the old (n-1)*95/100) reads the ~85th percentile for n = 10.
double NearestRankPercentile(std::vector<double> samples, int q_pct);

struct ServeOptions {
  // Service slots: one in-flight query per stream.
  int num_streams = 4;
  uint64_t cache_budget_bytes = 64ull << 20;
  EvictionPolicy policy = EvictionPolicy::kLru;
  // false: bypass the cache entirely (baseline for the bench comparisons).
  bool use_cache = true;
  // Compressed-domain predicate pushdown: the query kernel evaluates fact
  // predicates per tile before loading anything, and MaterializeColumns
  // prunes tiles the stored columns' zone maps rule out. One flag gates
  // both sides so the server's pruning decision always agrees with the
  // kernel's — a tile skipped here is provably skipped there too.
  bool pushdown = true;
  // Optional fault plan (not owned). The server attaches it to the device,
  // the cache and its tile loader, and degrades gracefully at every site:
  // failed queries carry a non-kOk status instead of aborting or returning
  // wrong data. nullptr = no faults, behavior identical to before.
  fault::FaultPlan* fault_plan = nullptr;
  // Model the PCIe upload of each column's encoded stream on the query's
  // stream before its decompress launch (decompress-then-query systems
  // only). Off by default to keep the serving numbers comparable with the
  // pre-fault benchmarks; bench_faults turns it on to exercise the transfer
  // fault site.
  bool model_transfers = false;
  // Speculative tile prefetching (prefetcher.h). Off by default; when
  // enabled the server runs one prefetch round between query admissions and
  // the loader feeds the prefetcher its demand access sequence. Requires
  // use_cache — prefetching stages tiles in the cache.
  PrefetchOptions prefetch;
  // Keep each query's dimension hash tables device-resident across the
  // batch (ssb::QueryRunner::set_reuse_prepared): the first execution of a
  // query pays the hash.build kernels, repeats skip them. The build side
  // depends only on the replicated dimension tables, so results are
  // unchanged. Off by default to keep single-query latencies comparable
  // with the pre-cluster benchmarks; the cluster scheduler turns it on.
  bool reuse_hash_tables = false;
  // Admission policy + queue bound. A fixed batch (Serve) never queues or
  // sheds under any setting: each arrival finds a free stream.
  AdmissionOptions admission;
};

struct ServedQuery {
  ssb::QueryId query = ssb::QueryId::kQ11;
  int stream = 0;
  // Serving-clock times (ms since the serving call started).
  double admit_ms = 0.0;   // service start on the stream
  double finish_ms = 0.0;  // completion on the stream
  // Service time only: admit -> finish. Queueing delay is `queue_ms`.
  double latency_ms = 0.0;
  // kOk: `result` is valid and bit-exact. Anything else: an injected fault
  // exhausted its recovery budget (or admission shed the query) and
  // `result` must be ignored.
  QueryStatus status = QueryStatus::kOk;
  ssb::QueryResult result;
  // Speculative-prefetch counters summed over this query's launch-log slice
  // (the prefetch round issued ahead of it plus its own kernels).
  sim::PrefetchCounters prefetch;

  // --- Request identity and admission. Under fixed-batch Serve the request
  // id is the batch position and a query arrives when a stream frees for it,
  // so arrival == admit, queue_ms = 0 and e2e_ms == latency_ms.
  uint64_t request_id = 0;
  load::QueryClass cls = load::QueryClass::kStandard;
  int user = -1;             // issuing closed-loop user, -1 otherwise
  double arrival_ms = 0.0;   // offered time on the serving clock
  double queue_ms = 0.0;     // admission-queue wait: arrival -> service start
  double e2e_ms = 0.0;       // arrival -> finish (= queue_ms + latency_ms)
  bool deadline_missed = false;  // e2e exceeded the class deadline (ok only)
};

// Per-priority-class slice of a serving run. `p99_e2e_ms` is over ok
// queries' end-to-end latencies; `slo_met` compares it against the
// workload's per-class target (vacuously true with no target or no ok
// queries).
struct ClassReport {
  uint64_t offered = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t failed = 0;  // non-ok, non-shed (injected faults)
  uint64_t deadline_missed = 0;
  double p50_e2e_ms = 0.0;
  double p99_e2e_ms = 0.0;
  double slo_p99_ms = 0.0;  // from the WorkloadSpec; 0 = no target
  bool slo_met = true;
};

struct ServeReport {
  std::vector<ServedQuery> queries;
  double makespan_ms = 0.0;
  // Nearest-rank percentiles over per-query *service* latency (admit ->
  // finish, shed queries excluded): index ceil(q*n) - 1 of the sorted
  // latencies (so p95 of 10 queries reads the 10th, not the 9th).
  // Admission-queue wait is deliberately excluded here — it lands in the
  // end-to-end percentiles below — so service-time percentiles stay
  // comparable between fixed-batch and loaded serving.
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  // Nearest-rank percentiles over end-to-end latency (arrival -> finish =
  // queue wait + service, shed queries excluded). Equal to the service
  // percentiles whenever nothing queued.
  double p50_e2e_ms = 0.0;
  double p95_e2e_ms = 0.0;
  double p99_e2e_ms = 0.0;
  // Cache counters over the whole batch (all-zero with use_cache = false).
  TileCache::Stats cache;
  // Column decompress launches skipped because every tile was resident
  // (decompress-then-query systems only).
  uint64_t decompress_skips = 0;
  // Total modeled global-memory bytes read by the batch's kernels.
  uint64_t global_bytes_read = 0;
  // Pushdown counters summed over the batch's kernels (all-zero with
  // pushdown disabled).
  sim::PushdownCounters pushdown;
  // Speculative-prefetch counters summed over the batch's kernels
  // (all-zero with prefetch disabled).
  sim::PrefetchCounters prefetch;
  // Queries whose status is neither kOk nor kShed (always 0 without a
  // fault plan).
  uint64_t failed_queries = 0;
  // Queries dropped by admission control (always 0 for fixed-batch Serve).
  uint64_t shed_queries = 0;
  // Exact admission counters (offered/queued/shed/deadline-missed). A fixed
  // batch offers every query once and admits each immediately.
  AdmissionStats admission;
  // Per-priority-class breakdown, indexed by load::QueryClass.
  std::array<ClassReport, load::kNumClasses> classes;
  // Snapshot of the fault plan's counters after the batch (all-zero
  // without a plan).
  fault::FaultStats faults;
};

// Recompute every latency-derived field of `report` from its queries:
// service and end-to-end percentiles (shed excluded), per-class breakdown,
// deadline misses (per-query flags + admission counters), and the
// failed/shed totals. ServeLoad (and so Serve) ends with this; it is a free
// function so the regression tests can pin it on hand-built timelines.
void AggregateLatencies(const load::WorkloadSpec& spec, ServeReport* report);

class Server {
 public:
  // `data` and `lineorder` must outlive the server.
  Server(sim::Device& dev, const ssb::SsbData& data,
         const ssb::EncodedLineorder& lineorder, ServeOptions options);

  // Serve `batch` in order: ServeLoad over a load::BatchWorkload with one
  // request in flight per stream. Request ids are batch positions.
  ServeReport Serve(const std::vector<ssb::QueryId>& batch);

  // Drive `workload` on the simulated clock: a discrete-event loop over
  // arrivals and completions, with the bounded priority AdmissionQueue
  // (options.admission) in front of the streams. Every offered request is
  // reported (shed ones with status kShed and no result); report times are
  // relative to the call (arrival 0 = serving start), and queries are
  // ordered by request id. Emits one trace query span per offered request
  // when a tracer is attached. The workload is left consumed — call
  // workload.Reset() to replay it.
  ServeReport ServeLoad(load::Workload& workload);

  // Build each query's dimension hash tables now so later Serve calls skip
  // them (a no-op unless options.reuse_hash_tables). The build kernels run
  // on the device timeline at the call point; the cluster scheduler calls
  // this at placement time, before its serving clock starts.
  void Prewarm(const std::vector<ssb::QueryId>& queries);

  // Service slots (one per stream) — the in-flight bound a BatchWorkload
  // needs to never queue.
  size_t num_streams() const { return streams_.size(); }
  const TileCache& cache() const { return cache_; }
  const ssb::QueryRunner& runner() const { return runner_; }
  // nullptr unless options.prefetch.enabled (and the cache is in use).
  const Prefetcher* prefetcher() const { return prefetcher_.get(); }

 private:
  // Decompress-then-query path: return `lineorder_`'s query columns as a
  // kNone-encoded table, serving fully resident columns from the cache
  // (skipping their decompress launches) and decompressing + inserting the
  // rest. `pins` holds every touched tile pinned until the query finishes.
  // Sets *status (and returns early) when an injected transfer or launch
  // fault exhausts its attempt budget.
  ssb::EncodedLineorder MaterializeColumns(
      ssb::QueryId query, std::vector<TileCache::PinnedTile>* pins,
      uint64_t* decompress_skips, QueryStatus* status);

  // Issue one query's full pipeline (prefetch round, materialization, query
  // kernels, fault scans) on `stream`, filling sq->admit/finish/latency
  // (absolute device time) and sq->status.
  void RunQueryOnStream(ssb::QueryId query, sim::StreamId stream,
                        uint64_t* decompress_skips, ServedQuery* sq);

  bool decompress_system() const {
    return lineorder_.system == codec::System::kGpuBp ||
           lineorder_.system == codec::System::kNvcomp ||
           lineorder_.system == codec::System::kPlanner;
  }

  sim::Device& dev_;
  const ssb::EncodedLineorder& lineorder_;
  ServeOptions options_;
  ssb::QueryRunner runner_;
  TileCache cache_;
  CachedTileLoader loader_;
  std::unique_ptr<Prefetcher> prefetcher_;
  std::vector<sim::StreamId> streams_;
};

}  // namespace tilecomp::serve

#endif  // TILECOMP_SERVE_SERVER_H_
