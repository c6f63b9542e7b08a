#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace perfbench {
namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Innermost span open on this thread (index into the log), -1 if none.
thread_local int32_t t_open_span = -1;

// Every end-to-end metric and its unit; must match BENCHMARK.json.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},          {"cpu_ms_per_op", "ms"},
      {"cpu_p50_ms", "ms"},      {"cpu_p99_ms", "ms"},
      {"write_cpu_p99_ms", "ms"}, {"peak_rss_mb", "MB"},
      {"bits_per_int", "bit"},   {"ok_share", "share"},
  };
  return kMetrics;
}

// Every per-layer metric and its unit; must match BENCHMARK.json. A
// workload reports 0 for a layer it never calls (see README.md).
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"kernels.decode_vpns", "1/ns"},
      {"format.host_decode_vpns", "1/ns"},
      {"codec.encode_vpns", "1/ns"},
      {"ssb.generate_s", "s"},
      {"ssb.encode_s", "s"},
      {"ssb.host_ref_ms", "ms"},
      {"ssb.run_ms", "ms"},
      {"serve.cache_hit_ratio", "share"},
      {"serve.evictions_per_op", "count"},
      {"serve.pushdown_pruned_share", "share"},
      {"codec.append_ms", "ms"},
      {"codec.patch_ms", "ms"},
      {"codec.reencode_ms", "ms"},
      {"codec.reencode_tiles_per_round", "count"},
      {"codec.space_amp", "ratio"},
      {"serve.mutable_hit_ratio", "share"},
      {"serve.invalidations_per_round", "count"},
      {"serve.stale_refused_share", "share"},
      {"sim.model_ms_per_op", "ms"},
      {"sim.global_bytes_per_op", "B"},
      {"sim.launches_per_op", "count"},
      {"telemetry.trace_overhead", "ratio"},
      {"wall.ops_per_s", "1/s"},
      {"wall.p50_ms", "ms"},
      {"wall.p99_ms", "ms"},
  };
  return kMetrics;
}

// Untraced runs measure a fixed prefix of the op sequence: the ops up to
// this many reads, so the p99 has ten samples beyond it. A faster program
// runs more ops in --seconds but is measured on the same work; in
// ingest_mixed, where every append grows the column, per-op cost and RSS
// would otherwise rise with throughput.
constexpr uint64_t kMeasuredReads = 1000;
// Set-ups per run; setup_s is the median of their CPU times.
constexpr int kSetups = 3;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile: sorted index ceil(q/100 * n) - 1.
double Percentile(std::vector<double> v, int q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = (v.size() * static_cast<size_t>(q) + 99) / 100;
  return v[std::max<size_t>(rank, 1) - 1];
}

std::string Layer(const std::string& span_name) {
  const size_t dot = span_name.find('.');
  return dot == std::string::npos ? span_name : span_name.substr(0, dot);
}

struct Phase {
  uint64_t ops = 0;  // every op run, all checked
  uint64_t ok = 0;
  // Everything below covers the measured ops only.
  uint64_t measured_ops = 0;
  std::vector<double> read_ms;  // wall latency of read ops
  std::vector<double> read_cpu_ms;  // process CPU time of read ops
  std::vector<double> write_cpu_ms;
  int64_t call_wall_ns = 0;
  int64_t wall_ns = 0;
  // Process CPU minus the main thread's CPU outside op calls (drawing
  // inputs, checking outputs, bookkeeping).
  int64_t program_cpu_ns = 0;
  double rss_mb = 0.0;  // high-water mark when the measured ops end
  Counters start, window_end, end;

  double ops_per_s() const {
    return call_wall_ns > 0 ? measured_ops / (call_wall_ns * 1e-9) : 0.0;
  }
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

// Issues ops from `*next_op` on until `seconds` have passed and at least
// `min_ops` ops ran. The measured ops are all of them or, with
// `measure_reads` > 0, those up to the measure_reads-th read; the phase
// goes on until it has them. Counters are snapshotted at the start, after
// `window` ops and at the end.
Phase RunPhase(Workload* w, SpanLog* spans, uint64_t* next_op, double seconds,
               uint64_t min_ops, uint64_t measure_reads, uint64_t window) {
  Phase p;
  p.start = w->Snapshot();
  p.window_end = p.start;
  const int64_t t0 = NowNs();
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t main0 = ThreadCpuNs();
  int64_t main_in_calls = 0;
  bool measuring = true;
  auto end_measuring = [&] {
    measuring = false;
    p.wall_ns = NowNs() - t0;
    const int64_t main_outside = (ThreadCpuNs() - main0) - main_in_calls;
    p.program_cpu_ns = (ProcessCpuNs() - cpu0) - main_outside;
    p.rss_mb = PeakRssMb();
  };
  const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline || p.ops < min_ops ||
         (measuring && measure_reads > 0)) {
    const uint64_t i = (*next_op)++;
    CallClock clock;
    OpOutcome outcome;
    {
      SpanLog::Scope op_span(spans, "bench.op", static_cast<int64_t>(i));
      outcome = w->RunOp(i, &clock, spans);
    }
    ++p.ops;
    if (outcome.ok) ++p.ok;
    if (measuring) {
      ++p.measured_ops;
      const double cpu_ms = clock.process_cpu_ns() * 1e-6;
      if (outcome.kind == OpKind::kRead) {
        p.read_ms.push_back(clock.wall_ns() * 1e-6);
        p.read_cpu_ms.push_back(cpu_ms);
      } else {
        p.write_cpu_ms.push_back(cpu_ms);
      }
      p.call_wall_ns += clock.wall_ns();
      main_in_calls += clock.thread_cpu_ns();
      if (measure_reads > 0 && p.read_cpu_ms.size() == measure_reads) {
        end_measuring();
      }
    }
    if (p.ops == window) p.window_end = w->Snapshot();
    if (spans->enabled()) w->TracedExtra(i, spans);
  }
  if (measuring) end_measuring();
  p.end = w->Snapshot();
  return p;
}

// Prints each layer's self time as a share of op time. Root spans other
// than ops (background work, side calls) are listed apart: they are not
// part of op time.
void PrintLayerShares(const std::vector<SpanLog::Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self_ns, outside_ns;
  double op_ns = 0.0;
  for (size_t k = 0; k < spans.size(); ++k) {
    const auto& s = spans[k];
    if (s.op < 0) continue;  // set-up
    const double dur = s.end_ns - s.start_ns;
    if (s.name == "bench.op") {
      op_ns += dur;
    } else if (s.parent < 0) {
      outside_ns[s.name] += dur;
      continue;
    }
    self_ns[Layer(s.name)] += dur - child_ns[k];
  }
  std::printf("layer shares of op time (self time, traced phase):\n");
  for (const auto& [layer, ns] : self_ns) {
    std::printf("  %-10s %10.1f ms  %6.2f%%\n", layer.c_str(), ns * 1e-6,
                op_ns > 0 ? 100.0 * ns / op_ns : 0.0);
  }
  for (const auto& [name, ns] : outside_ns) {
    std::printf("  outside ops: %-24s %10.1f ms\n", name.c_str(), ns * 1e-6);
  }
}

// The exact-count window of a traced run: its op labels and counter
// deltas, printed with every digit so two runs can be byte-compared.
void PrintExactWindow(const Workload& w, const Counters& window) {
  std::string line = "exact-window: {\"ops\": [";
  for (uint64_t i = 0; i < w.ExactWindow(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + w.OpLabel(i) + "\"";
  }
  line += "], \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : window) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", first ? "" : ", ",
                  name.c_str(), value);
    line += buf;
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

std::string MetricJson(const std::string& name, double value,
                       const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                name.c_str(), value, unit.c_str());
  return buf;
}

}  // namespace

int64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }

uint64_t Mix(uint64_t seed, uint64_t i) {
  return tilecomp::Rng(seed ^ (0xD1B54A32D192ED03ull * (i + 1))).Next();
}
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

SpanLog::Scope::Scope(SpanLog* log, const char* name, int64_t op)
    : log_(log != nullptr && log->enabled() ? log : nullptr) {
  if (log_ == nullptr) return;
  Span span;
  span.name = name;
  span.op = op;
  span.parent = t_open_span;
  span.start_ns = NowNs();
  {
    std::lock_guard<std::mutex> lock(log_->mu_);
    index_ = static_cast<int32_t>(log_->spans_.size());
    log_->spans_.push_back(std::move(span));
  }
  saved_parent_ = t_open_span;
  t_open_span = index_;
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  const int64_t end = NowNs();
  t_open_span = saved_parent_;
  std::lock_guard<std::mutex> lock(log_->mu_);
  log_->spans_[index_].end_ns = end;
}

void SpanLog::Scope::set_items(uint64_t items) {
  if (log_ == nullptr) return;
  std::lock_guard<std::mutex> lock(log_->mu_);
  log_->spans_[index_].items = items;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"schema\": \"perfbench.spans.v1\", \"spans\": [");
  for (size_t k = 0; k < all.size(); ++k) {
    const Span& s = all[k];
    std::fprintf(f,
                 "%s\n {\"id\": %zu, \"name\": \"%s\", \"op\": %" PRId64
                 ", \"parent\": %d, \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 ", \"items\": %" PRIu64 "}",
                 k == 0 ? "" : ",", k, s.name.c_str(), s.op, s.parent,
                 s.start_ns, s.end_ns, s.items);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

SpanTotals TotalsFor(const std::vector<SpanLog::Span>& spans,
                     const std::string& name) {
  SpanTotals t;
  std::vector<double> durations;
  for (const auto& s : spans) {
    if (s.name != name) continue;
    const double ms = (s.end_ns - s.start_ns) * 1e-6;
    ++t.count;
    t.total_ms += ms;
    t.items += s.items;
    durations.push_back(ms);
  }
  t.median_ms = Median(std::move(durations));
  return t;
}

Counters Delta(const Counters& later, const Counters& earlier) {
  Counters d = later;
  for (const auto& [k, v] : earlier) d[k] -= v;
  return d;
}

int RunBenchmark(const RunConfig& config) {
  // Declared before the workload: background work of the workload records
  // into it until the workload is destroyed.
  SpanLog spans;
  spans.set_enabled(config.trace);
  std::unique_ptr<Workload> w;
  if (config.workload == "codec_scan") {
    w = MakeCodecScan();
  } else if (config.workload == "ssb_serve") {
    w = MakeSsbServe();
  } else if (config.workload == "ingest_mixed") {
    w = MakeIngestMixed();
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              config.workload.c_str(), config.seed, config.seconds,
              config.trace ? 1 : 0);

  std::vector<double> setup_s;
  std::printf("set-ups (CPU s / wall s):");
  for (int r = 0; r < kSetups; ++r) {
    const int64_t c0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    w->Setup(config.seed, &spans);
    setup_s.push_back((ProcessCpuNs() - c0) * 1e-9);
    std::printf(" %.4f/%.4f", setup_s.back(), (NowNs() - t0) * 1e-9);
  }
  std::printf("\n");
  for (const std::string& line : w->Describe()) {
    std::printf("%s\n", line.c_str());
  }
  std::fflush(stdout);

  uint64_t next_op = 0;
  // End-to-end metrics come from `measured` of an untraced run, per-layer
  // metrics from `measured` of a traced run, which adds `untraced`.
  Phase measured;
  Phase untraced;
  Counters guard_delta;
  if (config.trace) {
    // Traced half first, so the exact-count window starts from the state
    // set-up left; then an untraced half for the tracing overhead.
    measured = RunPhase(w.get(), &spans, &next_op, config.seconds / 2,
                        w->ExactWindow(), 0, w->ExactWindow());
    spans.set_enabled(false);
    untraced =
        RunPhase(w.get(), &spans, &next_op, config.seconds / 2, 1, 0, 0);
    spans.set_enabled(true);
    guard_delta = Delta(untraced.end, measured.start);
  } else {
    measured = RunPhase(w.get(), &spans, &next_op, config.seconds, 1,
                        kMeasuredReads, 0);
    guard_delta = Delta(measured.end, measured.start);
  }
  const bool finish_ok = w->Finish();
  std::string guard_why;
  const bool guard_ok = w->GuardOk(guard_delta, &guard_why);
  if (!guard_ok) {
    std::printf("working-set guard FAILED: %s\n", guard_why.c_str());
  }
  if (!finish_ok) std::printf("end-of-run check FAILED\n");

  const uint64_t attempted = measured.ops + untraced.ops;
  const uint64_t ok = measured.ok + untraced.ok;
  const uint64_t failed = attempted - ok;
  const bool correct = failed == 0 && finish_ok && guard_ok;

  std::vector<std::string> fields;
  if (config.trace) {
    PrintExactWindow(*w, Delta(measured.window_end, measured.start));
    const std::vector<SpanLog::Span> all = spans.spans();
    PrintLayerShares(all);
    std::map<std::string, double> layer = w->LayerMetrics(
        Delta(measured.window_end, measured.start),
        Delta(measured.end, measured.start), all);
    layer["telemetry.trace_overhead"] =
        untraced.ops_per_s() > 0 ? measured.ops_per_s() / untraced.ops_per_s()
                                 : 0.0;
    layer["wall.ops_per_s"] = untraced.ops_per_s();
    layer["wall.p50_ms"] = Percentile(untraced.read_ms, 50);
    layer["wall.p99_ms"] = Percentile(untraced.read_ms, 99);
    for (const auto& [name, unit] : LayerMetricUnits()) {
      fields.push_back(MetricJson(name, layer[name], unit));
    }
    if (!config.trace_out.empty() && !spans.WriteJson(config.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", config.trace_out.c_str());
      return 1;
    }
  } else {
    const Phase& p = measured;
    // Read-only workloads have no write ops: their write tail is the tail
    // of every op (see README.md).
    const std::vector<double>& writes =
        p.write_cpu_ms.empty() ? p.read_cpu_ms : p.write_cpu_ms;
    std::map<std::string, double> e2e = {
        {"setup_s", Median(setup_s)},
        {"cpu_ms_per_op", p.measured_ops > 0
                              ? p.program_cpu_ns * 1e-6 / p.measured_ops
                              : 0.0},
        {"cpu_p50_ms", Percentile(p.read_cpu_ms, 50)},
        {"cpu_p99_ms", Percentile(p.read_cpu_ms, 99)},
        {"write_cpu_p99_ms", Percentile(writes, 99)},
        {"peak_rss_mb", p.rss_mb},
        {"bits_per_int", w->BitsPerInt()},
        {"ok_share",
         attempted > 0 ? static_cast<double>(ok) / attempted : 0.0},
    };
    std::printf("ops %" PRIu64 "; measured %" PRIu64 " (reads %zu, writes "
                "%zu) in %.2f s wall, %.2f s inside calls\n",
                p.ops, p.measured_ops, p.read_ms.size(),
                p.write_cpu_ms.size(), p.wall_ns * 1e-9,
                p.call_wall_ns * 1e-9);
    std::printf("wall (not gated): %.2f ops/s; read latency ms p50 %.3f "
                "p90 %.3f p99 %.3f max %.3f\n",
                p.ops_per_s(), Percentile(p.read_ms, 50),
                Percentile(p.read_ms, 90), Percentile(p.read_ms, 99),
                Percentile(p.read_ms, 100));
    for (const auto& [name, unit] : EndToEndMetrics()) {
      fields.push_back(MetricJson(name, e2e[name], unit));
    }
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t k = 0; k < fields.size(); ++k) {
    if (k > 0) json += ", ";
    json += fields[k];
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
