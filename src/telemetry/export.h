// Trace exporters and loader.
//
// JSON schema (tilecomp.trace.v10; the version bumps on any change, and the
// loader accepts only the current version — this repo is the only producer
// and consumer of the format):
//
//   {
//     "schema": "tilecomp.trace.v10",
//     "spans": [
//       {
//         "kind": "kernel" | "transfer" | "scope" | "link" | "query" |
//                 "reencode",
//         "name": "<launch label / scope name / link label>",
//         "path": "<'/'-joined enclosing scope names, '' at top level>",
//         "depth": <int>,
//         "start_ms": <double>, "duration_ms": <double>,
//         // device the span belongs to (0 in single-device traces; link
//         // spans carry their source device here).
//         "device": <int>,
//         // every kind except "scope" | "link":
//         "stream": <int, 0 = default stream>,
//         // kind == "kernel" only:
//         "config": {"grid_dim", "block_threads", "smem_bytes_per_block",
//                    "regs_per_thread", "scheduling": "static"|"persistent"},
//         "stats": {"global_bytes_read", "global_bytes_written",
//                   "warp_global_accesses", "shared_bytes", "compute_ops",
//                   "barriers", "atomic_ops"},
//         "occupancy": <double 0..1>,
//         "breakdown_ms": {"launch", "bandwidth", "latency", "scheduling",
//                          "shared", "compute", "tail", "atomic"},
//         "wave": {"scheduling": "static"|"persistent", "slots", "waves",
//                  "mean_cost", "max_cost", "p99_cost", "imbalance"},
//         // decompressed-tile cache activity (serve/tile_cache.h);
//         // "prefetch_hits" are demand hits on speculatively staged tiles.
//         "cache": {"hits", "misses", "evictions", "saved_bytes",
//                   "prefetch_hits"},
//         // compressed-domain predicate evaluation: tiles pruned before
//         // decode vs decoded, and the 128-value blocks / RFOR runs a bound
//         // decided without touching values.
//         "pushdown": {"tiles_pruned", "tiles_decoded",
//                      "blocks_short_circuited", "runs_short_circuited"},
//         // speculative tile prefetching (serve/prefetcher.h).
//         "prefetch": {"issued", "useful", "wasted", "late"},
//         "limiter": "bandwidth"|"latency"|"scheduling"|"shared"|"compute",
//         // kind == "kernel" | "transfer" only: injected-fault retries and
//         // terminal failure (fault/fault.h).
//         "faults": {"retries": <int>, "failed": <bool>},
//         // kind == "transfer" | "link" only:
//         "bytes": <uint64>,
//         // kind == "link" only: inter-device interconnect transfer
//         // endpoints (sim::Cluster).
//         "src_device": <int>, "dst_device": <int>,
//         // kind == "query" only: one served query's admission lifecycle.
//         // The span covers arrival -> finish (start_ms = arrival,
//         // duration_ms = end-to-end latency); "admit_ms" is when the
//         // request left the admission queue and "service_start_ms" when
//         // its kernels became eligible, so queueing delay (admit -
//         // arrival) is separable from service time (finish - start). Shed
//         // queries carry stream -1, status "shed", and admit ==
//         // service_start == arrival + queue wait.
//         "request_id": <uint64>, "class": "interactive"|"standard"|"batch",
//         "status": "ok"|"shed"|..., "admit_ms": <double>,
//         "service_start_ms": <double>,
//         // kind == "reencode" only: one committed background re-encode of
//         // a mutable-column tile (codec/mutable_column.h).
//         "column": <uint32>, "tile": <int64>, "generation": <uint64>,
//         "old_words": <uint32>, "new_words": <uint32>
//       }, ...
//     ]
//   }
//
// The chrome://tracing exporter emits the Trace Event JSON format ("X"
// duration events, microsecond timestamps) loadable in chrome://tracing or
// https://ui.perfetto.dev, with one named lane (tid) per device stream;
// multi-device traces get one lane group per device plus a per-device
// interconnect lane for link spans.
#ifndef TILECOMP_TELEMETRY_EXPORT_H_
#define TILECOMP_TELEMETRY_EXPORT_H_

#include <cstdio>
#include <string>
#include <vector>

#include "telemetry/tracer.h"

namespace tilecomp::telemetry {

inline constexpr const char* kTraceSchema = "tilecomp.trace.v10";

// True only for kTraceSchema: TraceFromJson rejects every other version.
bool IsKnownTraceSchema(const std::string& schema);

// Machine-readable trace (schema above). The span-vector overload serializes
// a merged multi-device timeline (see MergeSpans in tracer.h).
std::string ToJson(const Tracer& tracer);
std::string ToJson(const std::vector<Span>& spans);

// Parse a kTraceSchema document back into spans. Limiter and derived
// fields are recomputed from the stored breakdown. Returns false (and fills
// *error) on malformed input or any other schema version.
bool TraceFromJson(const std::string& json, std::vector<Span>* spans,
                   std::string* error);

// chrome://tracing / Perfetto Trace Event format. The span-vector overload
// lays out one lane group per device plus interconnect lanes for link spans.
std::string ToChromeTrace(const Tracer& tracer);
std::string ToChromeTrace(const std::vector<Span>& spans);

// Write `content` to `path`. Returns false on I/O error.
bool WriteTextFile(const std::string& path, const std::string& content);

// Human-readable per-launch table (label, grid, time, traffic, occupancy,
// limiter) written to `out`; scope spans print as indented headers.
void PrintSummary(const Tracer& tracer, std::FILE* out);

}  // namespace tilecomp::telemetry

#endif  // TILECOMP_TELEMETRY_EXPORT_H_
