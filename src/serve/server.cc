#include "serve/server.h"

#include <algorithm>
#include <cstring>
#include <queue>
#include <utility>

#include "codec/systems.h"
#include "common/macros.h"

namespace tilecomp::serve {

const char* QueryStatusName(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk:
      return "ok";
    case QueryStatus::kTransferFailed:
      return "transfer_failed";
    case QueryStatus::kLaunchFailed:
      return "launch_failed";
    case QueryStatus::kDecodeFailed:
      return "decode_failed";
    case QueryStatus::kShed:
      return "shed";
  }
  return "?";
}

uint64_t TileEncodedBytes(const codec::CompressedColumn& column) {
  if (column.size() == 0) return 0;
  const int64_t tiles = crystal::NumTiles(column.size());
  return column.compressed_bytes() / static_cast<uint64_t>(tiles);
}

double NearestRankPercentile(std::vector<double> samples, int q_pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  // ceil(q_pct * n / 100) in integers, clamped to [1, n].
  size_t rank = (static_cast<size_t>(q_pct) * n + 99) / 100;
  rank = std::min(std::max<size_t>(rank, 1), n);
  return samples[rank - 1];
}

uint32_t CachedTileLoader::LoadTile(sim::BlockContext& ctx,
                                    const codec::CompressedColumn& column,
                                    codec::ColumnId column_id, int64_t tile_id,
                                    uint32_t* out_tile) {
  // A cached tile saves re-reading the encoded form; a kNone column's tiles
  // are already raw, so a hit on them saves nothing (same bytes either way).
  const uint64_t saved =
      column.scheme() == codec::Scheme::kNone ? 0 : TileEncodedBytes(column);
  if (prefetcher_ != nullptr) prefetcher_->RecordAccess(column_id, tile_id);
  // saved_encoded_bytes = 0 at Lookup time: a hit may still be discarded by
  // the poison draw below, and a discarded hit saves nothing (the tile is
  // re-decoded). The credit lands via CreditSaved once the hit is served.
  TileCache::LookupInfo info;
  TileCache::PinnedTile pin = cache_->Lookup(column_id, tile_id, 0, &info);
  if (pin.valid()) {
    // Poisoned-tile injection: the cached copy is deemed corrupt. Drop the
    // pin, invalidate the entry so no other query can read the poison, and
    // fall through to the miss path for a fresh decode.
    if (fault_plan_ != nullptr &&
        fault_plan_->ShouldFault(fault::FaultSite::kTileDecode)) {
      pin.Release();
      cache_->Invalidate(column_id, tile_id);
    } else {
      const uint32_t n = pin.count();
      std::memcpy(out_tile, pin.data(), n * sizeof(uint32_t));
      // A hit reads the decoded tile back from global memory — more bytes
      // than the encoded form, but no decode compute, shared staging or
      // barriers.
      ctx.CoalescedRead(n * sizeof(uint32_t), true);
      cache_->CreditSaved(saved);
      if (info.prefetch_hit) {
        ctx.CachePrefetchHit(saved);
      } else {
        ctx.CacheHit(saved);
      }
      if (info.promoted) ctx.PrefetchUseful();
      return n;
    }
  }
  const uint64_t cost_mark = sim::BlockCostProxy(ctx.stats());
  uint32_t n = crystal::LoadColumnTile(ctx, column, tile_id, out_tile);
  ctx.CacheMiss();
  if (fault_plan_ != nullptr) {
    // Decode faults: re-run the decode up to the attempt budget (keyed by
    // (column, tile, attempt) so concurrent blocks decide deterministically).
    // Terminal failure zeroes the tile and raises the sticky flag — the
    // server fails the query cleanly; the zeros are never served as data.
    const int max_attempts =
        std::max(1, fault_plan_->options().max_decode_attempts);
    int attempt = 0;
    while (fault_plan_->ShouldFault(
        fault::FaultSite::kTileDecode,
        fault::FaultPlan::TileKey(column_id, tile_id, attempt))) {
      if (++attempt >= max_attempts) {
        fault_plan_->CountTerminalFailure();
        std::memset(out_tile, 0, n * sizeof(uint32_t));
        decode_failed_.store(true, std::memory_order_relaxed);
        return n;
      }
      fault_plan_->CountRetry();
      n = crystal::LoadColumnTile(ctx, column, tile_id, out_tile);
    }
  }
  uint64_t evicted = 0;
  // The measured decode cost (and the tile's encoded share) rank this entry
  // in the kCostAware eviction order: cheap-to-rebuild tiles go first.
  TileCost cost;
  cost.decode_cost =
      std::max<uint64_t>(1, sim::BlockCostProxy(ctx.stats()) - cost_mark);
  cost.encoded_bytes = saved;
  TileCache::PinnedTile inserted =
      cache_->Insert(column_id, tile_id, out_tile, n, &evicted, cost);
  ctx.CacheEvictions(evicted);
  if (inserted.valid()) {
    // Spill the decoded tile into the cache's device buffer.
    ctx.CoalescedWrite(n * sizeof(uint32_t), true);
  }
  return n;
}

uint32_t CachedTileLoader::EvaluateOnTile(sim::BlockContext& ctx,
                                          const codec::CompressedColumn& column,
                                          codec::ColumnId column_id,
                                          int64_t tile_id,
                                          const crystal::TilePredicate& pred,
                                          crystal::TileMask* mask) {
  // Peek, not Lookup: predicate evaluation must leave the cache's counters,
  // replacement order and fault draws untouched (see the header comment).
  TileCache::PinnedTile pin = cache_->Peek(column_id, tile_id);
  if (pin.valid()) {
    const uint32_t n = pin.count();
    ctx.CoalescedRead(n * sizeof(uint32_t), true);
    ctx.Compute(static_cast<uint64_t>(n) * 2);
    const uint32_t* vals = pin.data();
    for (uint32_t i = 0; i < n; ++i) {
      if (!pred.Matches(vals[i])) mask->Clear(i);
    }
    mask->ClearRange(n, crystal::TileMask::kBits);
    return n;
  }
  return crystal::EvaluateColumnTile(ctx, column, tile_id, pred, mask);
}

Server::Server(sim::Device& dev, const ssb::SsbData& data,
               const ssb::EncodedLineorder& lineorder, ServeOptions options)
    : dev_(dev),
      lineorder_(lineorder),
      options_(options),
      runner_(data),
      cache_(options.cache_budget_bytes, options.policy),
      loader_(&cache_, options.fault_plan) {
  const int n = std::max(1, options_.num_streams);
  for (int i = 0; i < n; ++i) streams_.push_back(dev_.CreateStream());
  runner_.set_reuse_prepared(options_.reuse_hash_tables);
  if (options_.prefetch.enabled && options_.use_cache) {
    // Decompress-then-query systems skip a column's pipeline only when
    // every reachable tile is resident, so a partial top-up is pure cost
    // there: restrict speculation to columns it can complete. Inline
    // tile-granular systems cash in per resident tile and keep the
    // caller's setting.
    PrefetchOptions popts = options_.prefetch;
    popts.require_completion =
        popts.require_completion ||
        lineorder_.system == codec::System::kGpuBp ||
        lineorder_.system == codec::System::kNvcomp ||
        lineorder_.system == codec::System::kPlanner;
    prefetcher_ = std::make_unique<Prefetcher>(dev_, &cache_, popts,
                                               options_.fault_plan);
    // Every fact column is a candidate; the prefetcher ignores schemes its
    // tile-granular decoder cannot handle.
    for (int c = 0; c < ssb::kNumLoCols; ++c) {
      prefetcher_->RegisterColumn(codec::ColumnId(static_cast<uint32_t>(c)),
                                  &lineorder_.cols[c].column);
    }
    loader_.set_prefetcher(prefetcher_.get());
  }
  if (options_.fault_plan != nullptr) {
    // Wire every injection point: the device (transfers + launches), the
    // cache (alloc/insert) and the loader (decode/poison, set above).
    dev_.AttachFaultPlan(options_.fault_plan);
    cache_.set_fault_plan(options_.fault_plan);
  }
}

ssb::EncodedLineorder Server::MaterializeColumns(
    ssb::QueryId query, std::vector<TileCache::PinnedTile>* pins,
    uint64_t* decompress_skips, QueryStatus* status) {
  ssb::EncodedLineorder out;
  out.system = codec::System::kNone;

  // Tile-granularity pushdown: a tile some fact predicate rules out at
  // zone-map granularity is provably skipped by the query kernel too (its
  // selection mask comes up empty from the same zone maps), so it needs no
  // residency for a decompress skip, no per-tile miss accounting, and never
  // enters the cache. Pruning uses the *stored* predicate columns' zone
  // maps — the AND over every predicate of the query.
  const std::vector<ssb::PredicateRange> preds =
      options_.pushdown ? ssb::QueryPredicates(query)
                        : std::vector<ssb::PredicateRange>();
  auto tile_survives = [&](int64_t t) {
    for (const ssb::PredicateRange& pr : preds) {
      const codec::ZoneMap* zm = lineorder_.col(pr.col).zone_map.get();
      if (zm == nullptr || static_cast<size_t>(t) >= zm->num_tiles()) {
        continue;  // no index -> cannot prune, stay conservative
      }
      if (!zm->TileCanMatch(static_cast<size_t>(t), pr.lo, pr.hi)) {
        return false;
      }
    }
    return true;
  };

  for (ssb::LoCol col : ssb::QueryColumns(query)) {
    const codec::SystemColumn& sc = lineorder_.col(col);
    const uint32_t count = sc.size();
    const int64_t tiles = crystal::NumTiles(count);
    const codec::ColumnId col_id(static_cast<uint32_t>(col));

    // An empty column has no tiles to pin, upload or decompress — it would
    // otherwise fall into the miss path below (zero tiles can never be "all
    // resident") and run a pointless decompress of nothing.
    if (count == 0) {
      out.cols[static_cast<int>(col)] =
          codec::SystemEncode(codec::System::kNone, {});
      continue;
    }

    // Pin whatever is resident among the tiles the query can actually
    // touch; the column is served from the cache only if that is all of
    // them. Pruned tiles need no residency — the kernel never loads them.
    std::vector<TileCache::PinnedTile> col_pins;
    std::vector<int64_t> col_tiles;  // survivor tile ids, parallel to pins
    col_pins.reserve(static_cast<size_t>(tiles));
    bool all_resident = true;
    for (int64_t t = 0; t < tiles && all_resident; ++t) {
      if (!tile_survives(t)) continue;
      TileCache::PinnedTile pin = cache_.Peek(col_id, t);
      all_resident = pin.valid();
      if (all_resident) {
        col_tiles.push_back(t);
        col_pins.push_back(std::move(pin));
      }
    }

    std::vector<uint32_t> values;
    if (all_resident) {
      // Every reachable tile is cached: skip the decompress launch
      // entirely. The query kernel reads the tiles straight from the cache
      // (its loader hits count there); the host-side copy below only serves
      // as the loader's decode backstop and carries no modeled cost. What
      // the skip avoids reading is the column's encoded stream. Pruned
      // tiles stay zero-filled — the propagated zone map below guarantees
      // the kernel never reads them.
      values.assign(count, 0);
      for (size_t k = 0; k < col_pins.size(); ++k) {
        std::memcpy(values.data() +
                        static_cast<size_t>(col_tiles[k]) * crystal::kTileSize,
                    col_pins[k].data(), col_pins[k].count() * sizeof(uint32_t));
      }
      cache_.CreditSaved(sc.compressed_bytes());
      ++*decompress_skips;
      for (TileCache::PinnedTile& pin : col_pins) {
        pins->push_back(std::move(pin));
      }
    } else {
      // Decompress on this query's stream and insert every tile, pinned for
      // the duration of the query. The column-granularity fetch missed, so
      // account one miss per tile.
      col_pins.clear();
      if (options_.model_transfers) {
        // Upload the encoded stream first. A terminal transfer fault fails
        // the whole query cleanly — nothing decoded so far is wrong, it
        // just never arrived.
        const sim::Device::TransferResult xfer =
            dev_.TryTransfer(sc.compressed_bytes());
        if (!xfer.ok) {
          *status = QueryStatus::kTransferFailed;
          return out;
        }
      }
      kernels::DecompressRun run = codec::SystemDecompress(dev_, sc);
      // A failed launch inside the pipeline never ran its body: run.output
      // is incomplete. Fail the query before any tile of it can reach the
      // cache — this is the cache-poisoning guard.
      if (!run.ok) {
        *status = QueryStatus::kLaunchFailed;
        return out;
      }
      values = std::move(run.output);
      // Late materialization on the insert side too: only tiles the query
      // can reach are cached (and counted as misses) — pruned tiles never
      // displace hot data.
      //
      // Rebuild-cost hint for kCostAware: each tile carries its even share
      // of the whole pipeline's measured cost and of the column's encoded
      // footprint — rebuilding any one tile of a decompress-then-query
      // column means re-running the column's pipeline.
      TileCost cost;
      cost.decode_cost = std::max<uint64_t>(
          1, sim::BlockCostProxy(run.stats) / static_cast<uint64_t>(tiles));
      cost.encoded_bytes =
          sc.compressed_bytes() / static_cast<uint64_t>(tiles);
      uint64_t misses = 0;
      for (int64_t t = 0; t < tiles; ++t) {
        if (!tile_survives(t)) continue;
        ++misses;
        const uint32_t n = std::min<uint32_t>(
            crystal::kTileSize,
            count - static_cast<uint32_t>(t) * crystal::kTileSize);
        TileCache::PinnedTile pin = cache_.Insert(
            col_id, t,
            values.data() + static_cast<size_t>(t) * crystal::kTileSize, n,
            nullptr, cost);
        if (pin.valid()) pins->push_back(std::move(pin));
      }
      cache_.CountMisses(misses);
    }
    codec::SystemColumn materialized =
        codec::SystemEncode(codec::System::kNone, values);
    // Hand the stored column's zone map to the materialized copy. The
    // all-resident path leaves pruned tiles zero-filled, and a zone map
    // built from those zeros could claim a pruned tile matches a predicate
    // — the kernel would then aggregate fabricated values. With the
    // original map, kernel-side pruning is exactly as strong as the
    // server-side decision that skipped those tiles, so they are never
    // read.
    if (sc.zone_map != nullptr) {
      materialized.zone_map = sc.zone_map;
      materialized.column.set_zone_map(sc.zone_map);
    }
    out.cols[static_cast<int>(col)] = std::move(materialized);
  }
  return out;
}

void Server::Prewarm(const std::vector<ssb::QueryId>& queries) {
  for (ssb::QueryId q : queries) runner_.Prewarm(dev_, q);
  dev_.DeviceSynchronize();
}

void AggregateLatencies(const load::WorkloadSpec& spec, ServeReport* report) {
  report->failed_queries = 0;
  report->shed_queries = 0;
  report->admission.deadline_missed = 0;
  report->admission.deadline_missed_by_class = {};
  std::vector<double> service;
  std::vector<double> e2e;
  std::array<std::vector<double>, load::kNumClasses> class_e2e;
  std::array<ClassReport, load::kNumClasses> classes = {};
  service.reserve(report->queries.size());
  e2e.reserve(report->queries.size());

  for (ServedQuery& sq : report->queries) {
    const size_t c = static_cast<size_t>(sq.cls);
    ++classes[c].offered;
    sq.e2e_ms = sq.finish_ms - sq.arrival_ms;
    if (sq.status == QueryStatus::kShed) {
      ++report->shed_queries;
      ++classes[c].shed;
      continue;
    }
    // Queued time is *excluded* from the service-time percentiles and
    // *included* in the end-to-end ones — conflating them would let
    // admission queueing masquerade as slow kernels (or vice versa).
    service.push_back(sq.latency_ms);
    e2e.push_back(sq.e2e_ms);
    if (sq.status != QueryStatus::kOk) {
      ++report->failed_queries;
      ++classes[c].failed;
      continue;
    }
    ++classes[c].ok;
    class_e2e[c].push_back(sq.e2e_ms);
    const double deadline = spec.spec_of(sq.cls).deadline_ms;
    sq.deadline_missed = deadline > 0.0 && sq.e2e_ms > deadline;
    if (sq.deadline_missed) {
      ++classes[c].deadline_missed;
      ++report->admission.deadline_missed;
      ++report->admission.deadline_missed_by_class[c];
    }
  }

  report->p50_latency_ms = NearestRankPercentile(service, 50);
  report->p95_latency_ms = NearestRankPercentile(service, 95);
  report->p99_latency_ms = NearestRankPercentile(service, 99);
  report->p50_e2e_ms = NearestRankPercentile(e2e, 50);
  report->p95_e2e_ms = NearestRankPercentile(e2e, 95);
  report->p99_e2e_ms = NearestRankPercentile(e2e, 99);
  for (size_t c = 0; c < load::kNumClasses; ++c) {
    classes[c].p50_e2e_ms = NearestRankPercentile(class_e2e[c], 50);
    classes[c].p99_e2e_ms = NearestRankPercentile(class_e2e[c], 99);
    classes[c].slo_p99_ms =
        spec.classes[c].slo_p99_ms;
    classes[c].slo_met = classes[c].slo_p99_ms <= 0.0 ||
                         class_e2e[c].empty() ||
                         classes[c].p99_e2e_ms <= classes[c].slo_p99_ms;
  }
  report->classes = classes;
}

void Server::RunQueryOnStream(ssb::QueryId query, sim::StreamId stream,
                              uint64_t* decompress_skips, ServedQuery* sq) {
  sim::StreamGuard guard(dev_, stream);
  sq->query = query;
  sq->stream = stream;
  sq->admit_ms = dev_.stream_tail_ms(stream);
  // This query's slice of the launch log, for the launch-failure scan.
  const size_t q_log_start = dev_.launch_log().size();
  // Close the previous access round and speculate ahead of this query.
  // The prefetch launches go to the prefetcher's own streams (inside the
  // slice, so this query's report carries their counters) but their
  // fate never affects the query's status — see the label check below.
  if (prefetcher_ != nullptr) prefetcher_->IssueRound();
  if (decompress_system() && options_.use_cache) {
    std::vector<TileCache::PinnedTile> pins;
    ssb::EncodedLineorder materialized =
        MaterializeColumns(query, &pins, decompress_skips, &sq->status);
    // The query kernel reads resident tiles straight from the cache; the
    // materialized copy is only the loader's miss backstop. A query whose
    // materialization already failed is not run at all.
    if (sq->status == QueryStatus::kOk) {
      sq->result =
          runner_.Run(dev_, materialized, query, &loader_, options_.pushdown);
    }
    // `pins` release here, after the query's launches are issued.
  } else {
    crystal::ColumnAccessor* accessor =
        options_.use_cache && !decompress_system() ? &loader_ : nullptr;
    sq->result =
        runner_.Run(dev_, lineorder_, query, accessor, options_.pushdown);
  }
  // Any launch of this query that exhausted its attempt budget never ran
  // its body — the query's aggregates are unusable. Speculative prefetch
  // launches are exempt: a failed speculation costs only the speculation
  // (counted wasted by the prefetcher), never the query's correctness.
  const std::vector<sim::KernelResult>& qlog = dev_.launch_log();
  for (size_t j = q_log_start; j < qlog.size(); ++j) {
    sq->prefetch += qlog[j].stats.prefetch;
    const bool is_prefetch = qlog[j].label.rfind("prefetch.", 0) == 0;
    if (qlog[j].failed && !is_prefetch && sq->status == QueryStatus::kOk) {
      sq->status = QueryStatus::kLaunchFailed;
    }
  }
  // Always consume the loader's sticky flag so a decode failure in this
  // query can never leak into the next one's status.
  const bool decode_failed = loader_.TakeDecodeFailure();
  if (decode_failed && sq->status == QueryStatus::kOk) {
    sq->status = QueryStatus::kDecodeFailed;
  }
  sq->finish_ms = dev_.stream_tail_ms(stream);
  sq->latency_ms = sq->finish_ms - sq->admit_ms;
}

ServeReport Server::Serve(const std::vector<ssb::QueryId>& batch) {
  load::BatchWorkload workload(load::BatchSchedule(batch), load::WorkloadSpec(),
                               streams_.size());
  return ServeLoad(workload);
}

ServeReport Server::ServeLoad(load::Workload& workload) {
  ServeReport report;
  // The serving epoch: everything before this call (prewarm, prior batches)
  // has drained; arrivals are offsets from here. Report times are
  // epoch-relative, trace spans absolute (to line up with kernel spans).
  const double t0 = dev_.DeviceSynchronize();
  const size_t log_start = dev_.launch_log().size();
  // One service slot per stream: each in-flight query owns its stream, so
  // its service starts the instant its slot frees — the admission clock and
  // the stream clock agree exactly.
  const size_t slots = streams_.size();
  AdmissionQueue adm(options_.admission, workload.spec(),
                     static_cast<int>(slots));

  // Discrete-event state. Arrivals ordered by (time, id); in-flight
  // completions by (finish, id). Completions at time t are processed before
  // arrivals at time t, so a slot freed "now" admits a request arriving
  // "now" instead of shedding it.
  struct Arrival {
    double t = 0.0;
    load::Request req;
    bool operator>(const Arrival& o) const {
      if (t != o.t) return t > o.t;
      return req.id > o.req.id;
    }
  };
  struct Completion {
    double t = 0.0;  // epoch-relative finish
    load::Request req;
    size_t stream_idx = 0;  // index into streams_[0..slots)
    size_t query_idx = 0;   // index into report.queries
    bool operator>(const Completion& o) const {
      if (t != o.t) return t > o.t;
      return req.id > o.req.id;
    }
  };
  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<Arrival>>
      arrivals;
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      inflight;
  std::vector<bool> stream_busy(slots, false);

  for (const load::Request& r : workload.InitialRequests()) {
    arrivals.push({r.arrival_ms, r});
  }

  auto emit_span = [&](const ServedQuery& sq, const load::Request& req,
                       double admit_rel) {
    sim::QueryTraceInfo info;
    info.label = ssb::QueryName(req.query);
    info.stream_id = sq.stream;
    info.request_id = req.id;
    info.arrival_ms = t0 + req.arrival_ms;
    info.admit_ms = t0 + admit_rel;
    info.start_ms = t0 + sq.admit_ms;
    info.finish_ms = t0 + sq.finish_ms;
    info.cls = load::QueryClassName(req.cls);
    info.status = QueryStatusName(sq.status);
    dev_.EmitQuerySpan(info);
  };

  // Record one shed request: no device work, no result, e2e covers only the
  // time it sat in the queue (zero when shed on arrival).
  auto record_shed = [&](const load::Request& req, double now,
                         double queue_ms) {
    ServedQuery sq;
    sq.query = req.query;
    sq.stream = -1;
    sq.status = QueryStatus::kShed;
    sq.request_id = req.id;
    sq.cls = req.cls;
    sq.user = req.user;
    sq.arrival_ms = req.arrival_ms;
    sq.queue_ms = queue_ms;
    sq.admit_ms = now;
    sq.finish_ms = now;
    emit_span(sq, req, now);
    report.queries.push_back(std::move(sq));
    // The issuer sees the error now and moves on (closed loop: the user's
    // next request is released after think time).
    for (const load::Request& next : workload.OnComplete(req, now)) {
      arrivals.push({next.arrival_ms, next});
    }
  };

  // Start service for an admitted request at epoch-relative `start_rel` on
  // the lowest-numbered free stream. The stream is free precisely because
  // its previous query finished at or before `start_rel`, so the fabricated
  // wait event lands the stream tail exactly at the start time.
  auto start_service = [&](const load::Request& req, double start_rel,
                           double queue_ms) {
    size_t stream_idx = slots;
    for (size_t s = 0; s < slots; ++s) {
      if (!stream_busy[s]) {
        stream_idx = s;
        break;
      }
    }
    TILECOMP_CHECK(stream_idx < slots);
    stream_busy[stream_idx] = true;
    const sim::StreamId stream = streams_[stream_idx];
    dev_.StreamWaitEvent(stream, sim::Event{t0 + start_rel});

    ServedQuery sq;
    sq.request_id = req.id;
    sq.cls = req.cls;
    sq.user = req.user;
    sq.arrival_ms = req.arrival_ms;
    sq.queue_ms = queue_ms;
    RunQueryOnStream(req.query, stream, &report.decompress_skips, &sq);
    sq.admit_ms -= t0;
    sq.finish_ms -= t0;
    emit_span(sq, req, start_rel);  // admit == service start in this model
    inflight.push({sq.finish_ms, req, stream_idx, report.queries.size()});
    report.queries.push_back(std::move(sq));
  };

  while (!arrivals.empty() || !inflight.empty()) {
    const bool take_completion =
        !inflight.empty() &&
        (arrivals.empty() || inflight.top().t <= arrivals.top().t);
    if (take_completion) {
      const Completion done = inflight.top();
      inflight.pop();
      stream_busy[done.stream_idx] = false;
      // Release the slot; the highest-priority waiter (if any) takes it
      // immediately at this completion's time.
      load::Request next;
      double wait_ms = 0.0;
      const bool popped = adm.OnComplete(done.t, &next, &wait_ms);
      // The issuer reacts to the finish (closed loop: think, then re-issue).
      for (const load::Request& r :
           workload.OnComplete(done.req, done.t)) {
        arrivals.push({r.arrival_ms, r});
      }
      if (popped) start_service(next, done.t, wait_ms);
      continue;
    }
    const Arrival arr = arrivals.top();
    arrivals.pop();
    const AdmissionQueue::Decision decision = adm.Offer(arr.req, arr.t);
    switch (decision.outcome) {
      case AdmissionQueue::Outcome::kStart:
        start_service(arr.req, arr.t, 0.0);
        break;
      case AdmissionQueue::Outcome::kQueued:
        // Nothing to do now — the request starts when a slot frees. A
        // displaced lower-priority waiter is shed here, at the moment of
        // displacement.
        if (decision.shed_victim) {
          record_shed(decision.victim, arr.t, decision.victim_queue_ms);
        }
        break;
      case AdmissionQueue::Outcome::kShed:
        record_shed(arr.req, arr.t, 0.0);
        break;
    }
  }

  report.makespan_ms = dev_.DeviceSynchronize() - t0;
  report.admission = adm.stats();

  const std::vector<sim::KernelResult>& log = dev_.launch_log();
  for (size_t i = log_start; i < log.size(); ++i) {
    report.global_bytes_read += log[i].stats.global_bytes_read;
    report.pushdown += log[i].stats.pushdown;
    report.prefetch += log[i].stats.prefetch;
  }
  report.cache = cache_.stats();
  if (options_.fault_plan != nullptr) {
    report.faults = options_.fault_plan->stats();
  }
  // Canonical order: by request id, so two runs of the same schedule are
  // directly comparable row by row.
  std::sort(report.queries.begin(), report.queries.end(),
            [](const ServedQuery& a, const ServedQuery& b) {
              return a.request_id < b.request_id;
            });
  AggregateLatencies(workload.spec(), &report);
  return report;
}

}  // namespace tilecomp::serve
