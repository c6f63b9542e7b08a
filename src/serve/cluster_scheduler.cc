#include "serve/cluster_scheduler.h"

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/macros.h"
#include "ssb/layout.h"

namespace tilecomp::serve {

namespace {

void AccumulateAdmission(const AdmissionStats& in, AdmissionStats* out) {
  out->offered += in.offered;
  out->admitted_immediately += in.admitted_immediately;
  out->queued += in.queued;
  out->shed += in.shed;
  out->shed_from_queue += in.shed_from_queue;
  out->deadline_missed += in.deadline_missed;
  for (size_t c = 0; c < load::kNumClasses; ++c) {
    out->offered_by_class[c] += in.offered_by_class[c];
    out->shed_by_class[c] += in.shed_by_class[c];
    out->deadline_missed_by_class[c] += in.deadline_missed_by_class[c];
  }
  out->max_queue_depth = std::max(out->max_queue_depth, in.max_queue_depth);
  out->queue_wait_ms_total += in.queue_wait_ms_total;
}

// Merge-reduction time on the root's merge engine: one kernel that streams
// the shipped accumulators once and read-modify-writes the root's own —
// launch overhead plus an HBM pass over 2x the shipped bytes.
double MergeMs(const sim::DeviceSpec& spec, uint64_t shipped_bytes) {
  return spec.kernel_launch_us * 1e-3 +
         2.0 * static_cast<double>(shipped_bytes) /
             (spec.global_bw_gbps * 1e9) * 1e3;
}

}  // namespace

ClusterScheduler::ClusterScheduler(sim::Cluster& cluster,
                                   const ssb::SsbData& data,
                                   codec::System system,
                                   ClusterOptions options)
    : cluster_(cluster),
      data_(data),
      options_(options),
      placement_(placement::Plan(options.policy, data.lineorder.size(),
                                 cluster.num_devices(),
                                 options.placement_seed)) {
  devices_.resize(static_cast<size_t>(cluster.num_devices()));
  for (int d = 0; d < cluster.num_devices(); ++d) {
    DeviceState& state = devices_[static_cast<size_t>(d)];
    const std::vector<int> shards = placement_.ShardsOnDevice(d);
    if (shards.empty()) continue;
    // Every policy assigns each device at most one shard.
    TILECOMP_CHECK(shards.size() == 1);
    const placement::Shard& shard =
        placement_.shards[static_cast<size_t>(shards[0])];
    if (shard.rows() == 0) continue;  // empty shard: the device serves no-ops
    state.shard = shards[0];
    std::vector<std::pair<size_t, size_t>> ranges;
    for (const placement::RowRange& r : shard.ranges) {
      if (r.rows() > 0) ranges.emplace_back(r.begin, r.end);
    }
    state.data = ssb::ShardData(data, ranges);
    state.lineorder = ssb::EncodeLineorder(state.data, system);
    state.server = std::make_unique<Server>(cluster.device(d), state.data,
                                            state.lineorder, options.serve);
    // Placement-time prewarm: replicating the dimension tables to a device
    // includes building their query-side hash tables once, so serving never
    // pays the (unshardable, per-device) builds. A no-op unless the serve
    // options opt into hash-table reuse.
    state.server->Prewarm(ssb::AllQueries());
  }
}

int ClusterScheduler::shard_of_device(int d) const {
  return devices_[static_cast<size_t>(d)].shard;
}

ClusterServeReport ClusterScheduler::Serve(
    const std::vector<ssb::QueryId>& batch) {
  return ServeRouted(load::BatchSchedule(batch), load::WorkloadSpec(),
                     /*fixed_batch=*/true);
}

ClusterServeReport ClusterScheduler::ServeLoad(const load::Schedule& schedule,
                                               const load::WorkloadSpec& spec) {
  return ServeRouted(schedule, spec, /*fixed_batch=*/false);
}

ClusterServeReport ClusterScheduler::ServeRouted(
    const load::Schedule& schedule, const load::WorkloadSpec& spec,
    bool fixed_batch) {
  const int n = cluster_.num_devices();
  const size_t num_devices = static_cast<size_t>(n);
  ClusterServeReport out;
  out.device_reports.resize(num_devices);

  // --- Route: which devices produce a partial for each request. One device
  // per shard; replicated shards rotate their replicas by schedule position
  // so every device shares the load. The sub-schedules keep the global
  // request ids and arrival times, so every device's admission queue sees
  // the true offered process for its slice.
  std::vector<std::vector<int>> participants(schedule.requests.size());
  std::vector<load::Schedule> sub(num_devices);
  for (size_t i = 0; i < schedule.requests.size(); ++i) {
    for (const placement::Shard& shard : placement_.shards) {
      const int d = shard.devices[i % shard.devices.size()];
      participants[i].push_back(d);
      if (devices_[static_cast<size_t>(d)].server != nullptr) {
        sub[static_cast<size_t>(d)].requests.push_back(schedule.requests[i]);
      }
    }
  }

  // --- Serve epoch. Placement-time work (hash-table prewarm in the
  // constructor, plus any previous call) already advanced each device's
  // timeline; this call's clock starts at each device's current position.
  // All reported times — latencies, transfer ready times, the makespan —
  // are relative to the epoch, so placement cost never pollutes the
  // steady-state serving numbers.
  std::vector<double> epoch(num_devices, 0.0);
  std::vector<size_t> skip_launches(num_devices, 0);
  for (int d = 0; d < n; ++d) {
    epoch[static_cast<size_t>(d)] = cluster_.device(d).elapsed_ms();
    skip_launches[static_cast<size_t>(d)] =
        cluster_.device(d).launch_log().size();
  }

  // --- Per-shard partial aggregation, one host thread per device (each
  // thread owns its device's timeline, cache and admission queue, so the
  // modeled times are deterministic regardless of host scheduling).
  // Server::ServeLoad reports epoch-relative times already, and its epoch
  // equals the one captured above (nothing ran in between). A fixed batch
  // keeps one request in flight per stream; a schedule arrives open-loop.
  {
    std::vector<std::thread> threads;
    for (int d = 0; d < n; ++d) {
      if (sub[static_cast<size_t>(d)].requests.empty()) continue;
      threads.emplace_back([this, d, fixed_batch, &sub, &out, &spec]() {
        const size_t k = static_cast<size_t>(d);
        Server& server = *devices_[k].server;
        if (fixed_batch) {
          load::BatchWorkload workload(std::move(sub[k]), spec,
                                       server.num_streams());
          out.device_reports[k] = server.ServeLoad(workload);
        } else {
          load::OpenLoopWorkload workload(std::move(sub[k]), spec);
          out.device_reports[k] = server.ServeLoad(workload);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // Request id -> the device's ServedQuery (absent for devices whose shard
  // is empty: they hold no rows, so they ship nothing).
  std::vector<std::unordered_map<uint64_t, const ServedQuery*>> partial_of(
      num_devices);
  for (int d = 0; d < n; ++d) {
    const ServeReport& report = out.device_reports[static_cast<size_t>(d)];
    AccumulateAdmission(report.admission, &out.admission);
    for (const ServedQuery& sq : report.queries) {
      partial_of[static_cast<size_t>(d)][sq.request_id] = &sq;
    }
  }

  // --- Merge the partials over the interconnect by request id, in schedule
  // order. The root rotates deterministically among the participants; each
  // non-root ships its dense accumulator as soon as its partial finishes.
  // Shed requests ship nothing (their merged aggregate would be incomplete,
  // so the result is discarded anyway).
  std::vector<double> latencies;
  std::vector<double> e2es;
  latencies.reserve(schedule.requests.size());
  e2es.reserve(schedule.requests.size());
  for (size_t i = 0; i < schedule.requests.size(); ++i) {
    const load::Request& req = schedule.requests[i];
    const std::vector<int>& parts = participants[i];
    ClusterServedQuery cq;
    cq.query = req.query;
    cq.request_id = req.id;
    cq.cls = req.cls;
    cq.num_partials = static_cast<int>(parts.size());
    cq.root_device = parts[(options_.placement_seed + i) % parts.size()];
    DeviceState& root = devices_[static_cast<size_t>(cq.root_device)];

    const uint64_t accumulator_bytes =
        ssb::QueryGroupSlots(req.query, data_) * sizeof(int64_t);
    double inputs_ready = 0.0;
    double arrival = -1.0;
    double admit = -1.0;
    bool any_shed = false;
    for (int d : parts) {
      const auto& dev_partials = partial_of[static_cast<size_t>(d)];
      const auto it = dev_partials.find(req.id);
      const ServedQuery* partial =
          it != dev_partials.end() ? it->second : nullptr;
      if (partial == nullptr) continue;
      // The request arrives when its first shard is offered it: the
      // schedule's arrival time open-loop, the earliest release under a
      // fixed batch (each device releases it when one of its streams frees).
      if (arrival < 0.0 || partial->arrival_ms < arrival) {
        arrival = partial->arrival_ms;
      }
      if (partial->status == QueryStatus::kShed) {
        any_shed = true;
        inputs_ready = std::max(inputs_ready, partial->finish_ms);
        continue;
      }
      if (admit < 0.0 || partial->admit_ms < admit) admit = partial->admit_ms;
      cq.queue_ms = std::max(cq.queue_ms, partial->queue_ms);
      if (partial->status != QueryStatus::kOk &&
          cq.status == QueryStatus::kOk) {
        cq.status = partial->status;
      }
      for (const auto& [key, value] : partial->result.groups) {
        cq.result.groups[key] += value;
      }
      if (d == cq.root_device) {
        inputs_ready = std::max(inputs_ready, partial->finish_ms);
        continue;
      }
      const double shipped = cluster_.TransferBetween(
          d, cq.root_device, accumulator_bytes, partial->finish_ms,
          std::string("merge/") + ssb::QueryName(req.query));
      inputs_ready = std::max(inputs_ready, shipped);
      cq.link_bytes += accumulator_bytes;
    }
    if (any_shed) {
      cq.status = QueryStatus::kShed;
      cq.result.groups.clear();
    }
    cq.arrival_ms = arrival < 0.0 ? req.arrival_ms : arrival;
    cq.admit_ms = admit < 0.0 ? cq.arrival_ms : admit;
    if (cq.status != QueryStatus::kShed && parts.size() > 1) {
      cq.merge_ms = MergeMs(cluster_.device(cq.root_device).spec(),
                            cq.link_bytes);
      const double start = std::max(inputs_ready, root.merge_free_ms);
      cq.finish_ms = start + cq.merge_ms;
      root.merge_free_ms = cq.finish_ms;
    } else {
      cq.finish_ms = inputs_ready;
    }
    cq.latency_ms = cq.finish_ms - cq.admit_ms;
    cq.e2e_ms = cq.finish_ms - cq.arrival_ms;
    // Dense accumulators extract only non-zero groups; partials that cancel
    // to zero are dropped the same way, keeping the merged map bit-exact
    // against the host reference.
    for (auto it = cq.result.groups.begin(); it != cq.result.groups.end();) {
      it = it->second == 0 ? cq.result.groups.erase(it) : std::next(it);
    }
    cq.result.time_ms = cq.latency_ms;
    if (cq.status == QueryStatus::kShed) {
      ++out.shed_queries;
    } else {
      if (cq.status != QueryStatus::kOk) ++out.failed_queries;
      latencies.push_back(cq.latency_ms);
      e2es.push_back(cq.e2e_ms);
    }
    out.link_bytes_total += cq.link_bytes;
    out.merge_ms_total += cq.merge_ms;
    out.queries.push_back(std::move(cq));
  }

  // Makespan: the last device to drain its kernels (epoch-relative) or the
  // last merge/transfer to finish — transfer arrivals are covered because
  // every arrival feeds some query's finish time.
  out.makespan_ms = 0.0;
  for (int d = 0; d < n; ++d) {
    cluster_.device(d).DeviceSynchronize();
    out.makespan_ms =
        std::max(out.makespan_ms, cluster_.device(d).elapsed_ms() -
                                      epoch[static_cast<size_t>(d)]);
  }
  for (const ClusterServedQuery& cq : out.queries) {
    out.makespan_ms = std::max(out.makespan_ms, cq.finish_ms);
  }
  for (const DeviceState& state : devices_) {
    out.makespan_ms = std::max(out.makespan_ms, state.merge_free_ms);
  }
  out.link_transfers = cluster_.link_log().size();
  out.p50_latency_ms = NearestRankPercentile(latencies, 50);
  out.p95_latency_ms = NearestRankPercentile(latencies, 95);
  out.p99_latency_ms = NearestRankPercentile(latencies, 99);
  out.p50_e2e_ms = NearestRankPercentile(e2es, 50);
  out.p99_e2e_ms = NearestRankPercentile(e2es, 99);
  out.breakdown = cluster_.Breakdown(out.merge_ms_total, skip_launches);
  return out;
}

}  // namespace tilecomp::serve
