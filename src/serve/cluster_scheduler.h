// Scale-out serving: route SSB queries (a fixed batch or an open-loop
// schedule) across the devices of a sim::Cluster, run per-shard partial
// aggregation with the existing per-device Server (cache, prefetcher,
// pushdown, admission and fault injection all intact per device), and merge
// the partial aggregates over the modeled interconnect by request id.
//
// Routing follows the placement policy (placement.h): under kReplicate each
// query runs whole on one device (rotating round-robin); under kRangeShard
// every device scans its shard for every query; under kHybrid each range's
// two replicas alternate. Per-device sub-schedules run concurrently on host
// threads through Server::ServeLoad — every device owns its shard data,
// cache, admission queue and timeline, and all timelines share one clock, so
// the modeled times are deterministic regardless of host scheduling. Serve
// and ServeLoad differ only in the per-device workload: a
// load::BatchWorkload (one request in flight per stream, nothing queues) or
// a load::OpenLoopWorkload over the routed slice of the schedule.
//
// The merge ships each non-root participant's *dense* group-by accumulator
// (QueryGroupSlots x 8 bytes — Crystal keeps group-by results in dense
// arrays, so that is what a device memcpys out) to a per-query root device
// chosen by seeded rotation, through Cluster::TransferBetween, then models
// the merge reduction on the root's merge engine (launch overhead plus an
// HBM-bandwidth pass over the shipped accumulators; a lightweight engine
// separate from the root's compute timeline, which Server::ServeLoad has
// already synchronized). The merged values are integer sums of the partial
// group maps, so they stay bit-exact against the host reference executor.
//
// Construction is placement time: each device gets a dimension replica and
// its (possibly striped) shard, sliced and encoded, and — when the serve
// options enable reuse_hash_tables — a prewarm pass building every query's
// dimension hash tables once. Serving measures from a per-device epoch
// taken at entry, so placement-time kernels never count toward latencies,
// the makespan or the breakdown; only steady-state serving does.
#ifndef TILECOMP_SERVE_CLUSTER_SCHEDULER_H_
#define TILECOMP_SERVE_CLUSTER_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/placement.h"
#include "serve/server.h"
#include "sim/cluster.h"
#include "ssb/queries.h"

namespace tilecomp::serve {

struct ClusterOptions {
  placement::PolicyKind policy = placement::PolicyKind::kRangeShard;
  // Seeds the placement's device permutation and the merge-root rotation.
  uint64_t placement_seed = 1;
  // Per-device server configuration (cache budget, streams, pushdown,
  // fault plan, ... applied identically on every device).
  ServeOptions serve;
};

struct ClusterServedQuery {
  ssb::QueryId query = ssb::QueryId::kQ11;
  // Worst status over the shard partials: a single failed shard fails the
  // whole query cleanly (its merged result must be ignored). Under loaded
  // serving a shard that shed the request makes the whole query kShed —
  // the merged aggregate would be missing that shard's rows.
  QueryStatus status = QueryStatus::kOk;
  // Merged result (integer sums of the partial group maps; zero-total
  // groups dropped, matching the dense accumulators' extraction).
  ssb::QueryResult result;
  double admit_ms = 0.0;   // earliest shard admission
  double finish_ms = 0.0;  // merge completion on the root
  double latency_ms = 0.0;
  int root_device = 0;
  int num_partials = 1;       // devices that produced a partial
  uint64_t link_bytes = 0;    // accumulator bytes shipped to the root
  double merge_ms = 0.0;      // merge-reduction time on the root

  // --- Request identity and admission. Under fixed-batch Serve the id is
  // the batch position and the request arrives when its first shard's
  // stream frees for it, so arrival == admit, queue_ms = 0 and
  // e2e_ms == latency_ms.
  uint64_t request_id = 0;
  load::QueryClass cls = load::QueryClass::kStandard;
  double arrival_ms = 0.0;  // offered time (cluster serving clock)
  double queue_ms = 0.0;    // worst admission-queue wait over the shards
  double e2e_ms = 0.0;      // arrival -> merged finish
};

struct ClusterServeReport {
  std::vector<ClusterServedQuery> queries;
  // Latest completion over device timelines, link engines and merges, ms.
  double makespan_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  // End-to-end (arrival -> merged finish) percentiles; equal to the
  // service percentiles under fixed batches (nothing queues).
  double p50_e2e_ms = 0.0;
  double p99_e2e_ms = 0.0;
  uint64_t failed_queries = 0;
  // Requests shed by any shard's admission queue (always 0 for Serve).
  uint64_t shed_queries = 0;
  // Admission counters summed over every device's server: a request fanned
  // out to k shards is offered k times.
  AdmissionStats admission;
  uint64_t link_bytes_total = 0;
  uint64_t link_transfers = 0;
  double merge_ms_total = 0.0;
  // What bounds the batch: compute vs HBM (busiest device, per the
  // perf-model limiter of each launch) vs interconnect (busiest link
  // engine), with the merge reductions counted as compute.
  sim::ClusterBreakdown breakdown;
  // The per-device Server reports (request-id order), for cache/pushdown/
  // prefetch/fault counter drill-down. Devices holding an empty shard (or
  // routed no queries) report empty.
  std::vector<ServeReport> device_reports;
};

class ClusterScheduler {
 public:
  // `cluster` and `data` must outlive the scheduler. Each device gets a
  // replica of the dimension tables plus its shard of the fact table,
  // encoded with `system`.
  ClusterScheduler(sim::Cluster& cluster, const ssb::SsbData& data,
                   codec::System system, ClusterOptions options);

  // Serve `batch` in order across the cluster; request ids are batch
  // positions. Each device serves its slice as a load::BatchWorkload.
  ClusterServeReport Serve(const std::vector<ssb::QueryId>& batch);

  // Loaded serving: drive an open-loop arrival schedule across the cluster.
  // Each request fans out to its shard participants (same routing as
  // Serve); every participating device runs its own admission queue +
  // ServeLoad over the sub-schedule, and the partials merge by request id.
  // A request shed by any shard reports kShed for the whole query (and
  // ships nothing — its merged aggregate would be incomplete). Closed-loop
  // workloads are not supported here: a user's next arrival would depend on
  // the cross-device merge time, coupling every device's admission state.
  ClusterServeReport ServeLoad(const load::Schedule& schedule,
                               const load::WorkloadSpec& spec);

  const placement::Placement& placement() const { return placement_; }
  int num_devices() const { return cluster_.num_devices(); }
  // The shard index device `d` holds (every policy gives each device
  // exactly one), or -1 if the device holds no rows.
  int shard_of_device(int d) const;
  // The per-device server (nullptr when the device's shard is empty).
  Server* server(int d) { return devices_[static_cast<size_t>(d)].server.get(); }

 private:
  // The one serving path: route `schedule`, serve each device's slice on
  // its own thread (a BatchWorkload when `fixed_batch`, else open-loop),
  // then merge by request id and compute the makespan and percentiles.
  ClusterServeReport ServeRouted(const load::Schedule& schedule,
                                 const load::WorkloadSpec& spec,
                                 bool fixed_batch);

  struct DeviceState {
    int shard = -1;
    ssb::SsbData data;  // replicated dimensions + shard fact rows
    ssb::EncodedLineorder lineorder;
    std::unique_ptr<Server> server;
    // Availability of this device's merge engine, ms (cluster clock).
    double merge_free_ms = 0.0;
  };

  sim::Cluster& cluster_;
  const ssb::SsbData& data_;
  ClusterOptions options_;
  placement::Placement placement_;
  std::vector<DeviceState> devices_;
};

}  // namespace tilecomp::serve

#endif  // TILECOMP_SERVE_CLUSTER_SCHEDULER_H_
