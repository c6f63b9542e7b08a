// Seeded, deterministic load generation over the 13 SSB queries.
//
// Production traffic is an arrival process, not a fixed batch. This library
// turns the serving stack into a capacity harness by producing two kinds of
// workload on the simulated clock:
//
//   * open-loop: arrivals are independent of the system's responses. Plain
//     Poisson (exponential interarrivals at a fixed rate) or bursty MMPP-2
//     (a two-phase Markov-modulated Poisson process alternating calm and
//     burst phases, each phase exponentially long) — the classic model for
//     flash crowds. Open-loop load does not slow down when the server
//     saturates, which is exactly what exposes queueing collapse.
//
//   * closed-loop: N concurrent users, each issuing its next query only
//     after the previous one finishes plus an exponential think time. The
//     offered load self-limits at N in flight, which is what interactive
//     dashboards look like.
//
// Every request is tagged with a priority class (interactive / standard /
// batch, derived from the SSB flight) carrying a p99 latency SLO and an
// end-to-end deadline. The admission layer in serve::Server uses the class
// priority as its shed waterline; bench_slo sweeps offered load to find the
// maximum sustained throughput meeting every class's p99 SLO.
//
// Everything is a pure function of (options, seed): schedules regenerate
// byte-identically (Schedule::Serialize), and closed-loop scripts replay
// exactly (Reset), so loaded serving runs are replayable end to end.
#ifndef TILECOMP_LOAD_LOAD_GEN_H_
#define TILECOMP_LOAD_LOAD_GEN_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ssb/queries.h"

namespace tilecomp::load {

// Priority class of a query. Lower enum value = more latency-sensitive =
// higher admission priority.
enum class QueryClass {
  kInteractive = 0,  // SSB flight 1: cheap scalar filters, tight SLO
  kStandard = 1,     // flights 2-3: grouped joins, medium SLO
  kBatch = 2,        // flight 4: widest joins, loose SLO, shed first
};
inline constexpr int kNumClasses = 3;

const char* QueryClassName(QueryClass cls);

// The default class of each SSB query, by flight.
QueryClass ClassOf(ssb::QueryId query);

// Per-class serving contract. `priority` is the admission waterline: when
// the bounded queue overflows, requests are shed strictly below the highest
// priority present. SLO/deadline are end-to-end (arrival -> finish), so they
// include admission-queue wait.
struct ClassSpec {
  int priority = 0;         // higher = admitted first, shed last
  double slo_p99_ms = 0.0;  // per-class p99 end-to-end target; 0 = none
  double deadline_ms = 0.0; // per-query end-to-end deadline; 0 = none
};

struct WorkloadSpec {
  // Indexed by QueryClass. Defaults: interactive > standard > batch
  // priority, no SLOs/deadlines (benches fill them in).
  std::array<ClassSpec, kNumClasses> classes;

  WorkloadSpec() {
    classes[0].priority = 2;
    classes[1].priority = 1;
    classes[2].priority = 0;
  }
  const ClassSpec& spec_of(QueryClass cls) const {
    return classes[static_cast<size_t>(cls)];
  }
  int priority_of(QueryClass cls) const { return spec_of(cls).priority; }
};

// One offered query. `id` is unique within a workload and stable across
// replays — the shed-invariance checks match runs by id.
struct Request {
  uint64_t id = 0;
  ssb::QueryId query = ssb::QueryId::kQ11;
  QueryClass cls = QueryClass::kStandard;
  int user = -1;            // issuing user (closed loop only)
  double arrival_ms = 0.0;  // offered time on the serving clock
};

// A fully materialized open-loop arrival schedule, sorted by arrival time.
struct Schedule {
  std::vector<Request> requests;

  // Canonical text form, byte-identical across regenerations at the same
  // options — the determinism tests compare these directly.
  std::string Serialize() const;
};

struct OpenLoopOptions {
  double rate_qps = 1000.0;  // mean offered rate over the whole process
  size_t num_queries = 64;
  double zipf_alpha = 1.2;   // query-mix skew over the 13 SSB queries
  uint64_t seed = 7;
  // MMPP-2 burstiness: 1.0 = plain Poisson. Above 1, the process alternates
  // exponentially-long calm and burst phases; the burst phase arrives at
  // burst_factor x the calm rate, with the calm rate scaled so the overall
  // mean rate stays rate_qps.
  double burst_factor = 1.0;
  double mean_calm_ms = 8.0;   // expected calm-phase length
  double mean_burst_ms = 2.0;  // expected burst-phase length
};

Schedule GenOpenLoop(const OpenLoopOptions& options);

struct ClosedLoopOptions {
  int num_users = 8;
  size_t num_queries = 64;  // total across all users
  double think_ms = 1.0;    // mean exponential think time
  double zipf_alpha = 1.2;
  uint64_t seed = 7;
};

// Interface the serving loop drives. Arrivals whose times are known up
// front come from InitialRequests(); arrivals released by a completion
// (closed loop: the user's next query after think time) come from
// OnComplete. A shed request also goes through OnComplete — the user saw an
// error and moves on — so the closed-loop population invariant holds under
// admission control.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual const WorkloadSpec& spec() const = 0;
  virtual std::vector<Request> InitialRequests() = 0;
  virtual std::vector<Request> OnComplete(const Request& request,
                                          double finish_ms) = 0;
  // Rewind to the pre-serving state so the workload replays identically.
  virtual void Reset() = 0;
};

class OpenLoopWorkload : public Workload {
 public:
  OpenLoopWorkload(Schedule schedule, WorkloadSpec spec)
      : schedule_(std::move(schedule)), spec_(spec) {}

  const WorkloadSpec& spec() const override { return spec_; }
  std::vector<Request> InitialRequests() override {
    return schedule_.requests;
  }
  std::vector<Request> OnComplete(const Request&, double) override {
    return {};
  }
  void Reset() override {}

  const Schedule& schedule() const { return schedule_; }

 private:
  Schedule schedule_;
  WorkloadSpec spec_;
};

// A fixed batch as a workload. The requests of `batch` (ids and classes as
// given; arrival times are ignored) are released in order, `in_flight` at a
// time: the first `in_flight` arrive at t = 0 and each completion (or shed)
// releases the next at that finish time. Driven against a server with
// `in_flight` service slots, every arrival finds a free slot, so nothing
// queues or sheds under any admission policy and requests start in batch
// order.
class BatchWorkload : public Workload {
 public:
  BatchWorkload(Schedule batch, WorkloadSpec spec, size_t in_flight);

  const WorkloadSpec& spec() const override { return spec_; }
  std::vector<Request> InitialRequests() override;
  std::vector<Request> OnComplete(const Request& request,
                                  double finish_ms) override;
  void Reset() override { next_ = 0; }

 private:
  Schedule batch_;
  WorkloadSpec spec_;
  size_t in_flight_;
  size_t next_ = 0;  // index of the next request to release
};

// `queries` as a batch: request i runs queries[i] with id i and the query's
// default class, arriving at t = 0.
Schedule BatchSchedule(const std::vector<ssb::QueryId>& queries);

// N users, each scripted with a deterministic (query, think-time) sequence
// drawn from the seed. User u's k-th request arrives think after its
// (k-1)-th finishes (or is shed); the first request arrives after an
// initial think draw, staggering the users.
class ClosedLoopWorkload : public Workload {
 public:
  ClosedLoopWorkload(const ClosedLoopOptions& options,
                     const WorkloadSpec& spec);

  const WorkloadSpec& spec() const override { return spec_; }
  std::vector<Request> InitialRequests() override;
  std::vector<Request> OnComplete(const Request& request,
                                  double finish_ms) override;
  void Reset() override;

  int num_users() const { return static_cast<int>(users_.size()); }
  // Canonical text form of the per-user scripts (queries + think times);
  // byte-identical across constructions at the same options.
  std::string SerializeScript() const;

 private:
  struct UserScript {
    std::vector<ssb::QueryId> queries;
    std::vector<double> think_ms;  // think before request k, parallel
    std::vector<uint64_t> ids;     // global ids, parallel
    size_t next = 0;
  };
  Request MakeRequest(int user, double arrival_ms);

  WorkloadSpec spec_;
  std::vector<UserScript> users_;
};

// Mean and (population) variance of a schedule's interarrival gaps, for the
// arrival-process statistics tests.
struct IntervalStats {
  double mean_ms = 0.0;
  double variance = 0.0;
  size_t n = 0;
};
IntervalStats InterarrivalStats(const Schedule& schedule);

}  // namespace tilecomp::load

#endif  // TILECOMP_LOAD_LOAD_GEN_H_
