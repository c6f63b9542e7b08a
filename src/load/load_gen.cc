#include "load/load_gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/macros.h"
#include "common/random.h"

namespace tilecomp::load {

namespace {

// Exponential draw with mean `mean` from a uniform double in [0, 1).
// Clamped away from 0 so log() stays finite.
double ExpDraw(Rng& rng, double mean) {
  double u = rng.NextDouble();
  if (u < 1e-12) u = 1e-12;
  return -mean * std::log(1.0 - u);
}

void AppendRequest(std::string* out, const Request& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%llu %s %s %d %.9f\n",
                static_cast<unsigned long long>(r.id),
                ssb::QueryName(r.query), QueryClassName(r.cls), r.user,
                r.arrival_ms);
  out->append(buf);
}

// The seeded Zipfian query mix shared by both generators: rank 0 (the
// hottest query) dominates at high alpha, exactly as in bench_serve.
std::vector<ssb::QueryId> QueryMix(size_t n, double alpha, uint64_t seed) {
  const std::vector<ssb::QueryId> all = ssb::AllQueries();
  const std::vector<uint32_t> ranks = GenZipf(n, all.size(), alpha, seed);
  std::vector<ssb::QueryId> mix(n);
  for (size_t i = 0; i < n; ++i) mix[i] = all[ranks[i]];
  return mix;
}

}  // namespace

const char* QueryClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kInteractive:
      return "interactive";
    case QueryClass::kStandard:
      return "standard";
    case QueryClass::kBatch:
      return "batch";
  }
  return "?";
}

QueryClass ClassOf(ssb::QueryId query) {
  switch (query) {
    case ssb::QueryId::kQ11:
    case ssb::QueryId::kQ12:
    case ssb::QueryId::kQ13:
      return QueryClass::kInteractive;
    case ssb::QueryId::kQ21:
    case ssb::QueryId::kQ22:
    case ssb::QueryId::kQ23:
    case ssb::QueryId::kQ31:
    case ssb::QueryId::kQ32:
    case ssb::QueryId::kQ33:
    case ssb::QueryId::kQ34:
      return QueryClass::kStandard;
    case ssb::QueryId::kQ41:
    case ssb::QueryId::kQ42:
    case ssb::QueryId::kQ43:
      return QueryClass::kBatch;
  }
  return QueryClass::kStandard;
}

std::string Schedule::Serialize() const {
  std::string out;
  out.reserve(requests.size() * 40);
  for (const Request& r : requests) AppendRequest(&out, r);
  return out;
}

Schedule GenOpenLoop(const OpenLoopOptions& options) {
  TILECOMP_CHECK(options.rate_qps > 0.0);
  TILECOMP_CHECK(options.burst_factor >= 1.0);
  const std::vector<ssb::QueryId> mix =
      QueryMix(options.num_queries, options.zipf_alpha, options.seed);

  // Phase rates. The long-run fraction of time spent bursting is
  // f = mean_burst / (mean_calm + mean_burst); solving
  // calm*(1-f) + burst_factor*calm*f = rate keeps the overall mean at
  // rate_qps whatever the burst factor. burst_factor 1 collapses both
  // phases to the same rate — a plain Poisson process.
  const double f =
      options.mean_burst_ms / (options.mean_calm_ms + options.mean_burst_ms);
  const double calm_qps =
      options.rate_qps / (1.0 - f + options.burst_factor * f);
  const double burst_qps = options.burst_factor * calm_qps;

  // Interarrivals are exponential at the current phase's rate; phases are
  // exponentially long. Both draws are memoryless, so redrawing the gap at
  // a phase switch is exactly the MMPP, not an approximation.
  Rng arrivals(options.seed ^ 0xA11A1A11ull);
  Rng phases(options.seed ^ 0x9A5E50F4ull);
  Schedule schedule;
  schedule.requests.reserve(options.num_queries);
  double t = 0.0;
  bool bursting = false;
  double phase_end = ExpDraw(phases, options.mean_calm_ms);
  for (size_t i = 0; i < options.num_queries; ++i) {
    for (;;) {
      const double rate = bursting ? burst_qps : calm_qps;
      const double gap_ms = ExpDraw(arrivals, 1e3 / rate);
      if (options.burst_factor > 1.0 && t + gap_ms >= phase_end) {
        t = phase_end;
        bursting = !bursting;
        phase_end = t + ExpDraw(phases, bursting ? options.mean_burst_ms
                                                 : options.mean_calm_ms);
        continue;
      }
      t += gap_ms;
      break;
    }
    Request r;
    r.id = static_cast<uint64_t>(i);
    r.query = mix[i];
    r.cls = ClassOf(r.query);
    r.arrival_ms = t;
    schedule.requests.push_back(r);
  }
  return schedule;
}

BatchWorkload::BatchWorkload(Schedule batch, WorkloadSpec spec,
                             size_t in_flight)
    : batch_(std::move(batch)),
      spec_(spec),
      in_flight_(std::max<size_t>(1, in_flight)) {}

std::vector<Request> BatchWorkload::InitialRequests() {
  std::vector<Request> out;
  while (next_ < batch_.requests.size() && next_ < in_flight_) {
    out.push_back(batch_.requests[next_++]);
    out.back().arrival_ms = 0.0;
  }
  return out;
}

std::vector<Request> BatchWorkload::OnComplete(const Request&,
                                               double finish_ms) {
  if (next_ >= batch_.requests.size()) return {};
  Request r = batch_.requests[next_++];
  r.arrival_ms = finish_ms;
  return {r};
}

Schedule BatchSchedule(const std::vector<ssb::QueryId>& queries) {
  Schedule schedule;
  schedule.requests.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    Request& r = schedule.requests[i];
    r.id = static_cast<uint64_t>(i);
    r.query = queries[i];
    r.cls = ClassOf(r.query);
  }
  return schedule;
}

ClosedLoopWorkload::ClosedLoopWorkload(const ClosedLoopOptions& options,
                                       const WorkloadSpec& spec)
    : spec_(spec) {
  TILECOMP_CHECK(options.num_users > 0);
  const std::vector<ssb::QueryId> mix =
      QueryMix(options.num_queries, options.zipf_alpha, options.seed);
  users_.resize(static_cast<size_t>(options.num_users));
  // Deal the mix round-robin so every user sees the same skew, and give
  // each request its global mix index as the id — stable across replays.
  Rng think(options.seed ^ 0x7D1Cull);
  for (size_t i = 0; i < mix.size(); ++i) {
    UserScript& u = users_[i % users_.size()];
    u.queries.push_back(mix[i]);
    u.think_ms.push_back(ExpDraw(think, options.think_ms));
    u.ids.push_back(static_cast<uint64_t>(i));
  }
}

Request ClosedLoopWorkload::MakeRequest(int user, double arrival_ms) {
  UserScript& u = users_[static_cast<size_t>(user)];
  Request r;
  r.id = u.ids[u.next];
  r.query = u.queries[u.next];
  r.cls = ClassOf(r.query);
  r.user = user;
  r.arrival_ms = arrival_ms;
  ++u.next;
  return r;
}

std::vector<Request> ClosedLoopWorkload::InitialRequests() {
  std::vector<Request> out;
  for (size_t user = 0; user < users_.size(); ++user) {
    UserScript& u = users_[user];
    if (u.next < u.queries.size()) {
      out.push_back(
          MakeRequest(static_cast<int>(user), u.think_ms[u.next]));
    }
  }
  return out;
}

std::vector<Request> ClosedLoopWorkload::OnComplete(const Request& request,
                                                    double finish_ms) {
  if (request.user < 0) return {};
  UserScript& u = users_[static_cast<size_t>(request.user)];
  if (u.next >= u.queries.size()) return {};
  return {MakeRequest(request.user, finish_ms + u.think_ms[u.next])};
}

void ClosedLoopWorkload::Reset() {
  for (UserScript& u : users_) u.next = 0;
}

std::string ClosedLoopWorkload::SerializeScript() const {
  std::string out;
  for (size_t user = 0; user < users_.size(); ++user) {
    const UserScript& u = users_[user];
    for (size_t k = 0; k < u.queries.size(); ++k) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%zu %llu %s %.9f\n", user,
                    static_cast<unsigned long long>(u.ids[k]),
                    ssb::QueryName(u.queries[k]), u.think_ms[k]);
      out.append(buf);
    }
  }
  return out;
}

IntervalStats InterarrivalStats(const Schedule& schedule) {
  IntervalStats stats;
  const std::vector<Request>& r = schedule.requests;
  if (r.size() < 2) return stats;
  stats.n = r.size() - 1;
  double sum = 0.0;
  for (size_t i = 1; i < r.size(); ++i) {
    sum += r[i].arrival_ms - r[i - 1].arrival_ms;
  }
  stats.mean_ms = sum / static_cast<double>(stats.n);
  double var = 0.0;
  for (size_t i = 1; i < r.size(); ++i) {
    const double d = r[i].arrival_ms - r[i - 1].arrival_ms - stats.mean_ms;
    var += d * d;
  }
  stats.variance = var / static_cast<double>(stats.n);
  return stats;
}

}  // namespace tilecomp::load
