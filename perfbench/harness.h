// Host-measured benchmark harness: one closed-loop client issues a seeded
// sequence of operations against one workload, timing each call into the
// program with the host's wall and CPU clocks and checking every result
// outside the timed interval. See README.md for the workloads and the
// metric definitions.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace perfbench {

// Nanoseconds on the host steady clock.
int64_t NowNs();
// CPU time of the whole process / of the calling thread, in nanoseconds.
int64_t ProcessCpuNs();
int64_t ThreadCpuNs();

// Deterministic 64-bit draw for op `i` of the sequence seeded by `seed`, so
// an op depends on the seed and its index alone. Callers salt `seed` to
// draw independent streams.
uint64_t Mix(uint64_t seed, uint64_t i);

// Puts `v` in an order drawn from `seed` (Fisher-Yates).
template <typename T>
void SeededShuffle(uint64_t seed, std::vector<T>* v) {
  tilecomp::Rng rng(seed);
  for (size_t k = v->size(); k > 1; --k) {
    std::swap((*v)[k - 1], (*v)[rng.NextBounded(k)]);
  }
}

// In-memory span log. Spans carry a name ("<layer>.<call>"), start, end,
// the op they belong to and their parent (the innermost span open on the
// same thread when they started). Nothing is recorded while disabled, so
// the untraced runs pay one branch per call site.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t op = -1;      // op id; -1 for set-up work
    int32_t parent = -1;  // index into spans(), -1 for a root span
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t items = 0;   // values (or rows) the call processed, 0 if n/a
  };

  // RAII span; closes on destruction. Inert when the log is disabled.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, int64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_items(uint64_t items);

   private:
    SpanLog* log_;  // nullptr when inert
    int32_t index_ = -1;
    int32_t saved_parent_ = -1;
  };

  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(); }

  // Copy of every span, in opening order.
  std::vector<Span> spans() const;

  // Writes {"spans":[...]} to `path`; returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Sum over spans named `name` of their durations and item counts, and the
// median duration.
struct SpanTotals {
  uint64_t count = 0;
  double total_ms = 0.0;
  double median_ms = 0.0;
  uint64_t items = 0;
  // items per nanosecond of span time; 0 when no span carried items.
  double items_per_ns() const {
    return total_ms > 0.0 && items > 0 ? items / (total_ms * 1e6) : 0.0;
  }
};
SpanTotals TotalsFor(const std::vector<SpanLog::Span>& spans,
                     const std::string& name);

// Cumulative program counters a workload exposes (modeled device time,
// cache events, ...). The harness snapshots them around measurement
// windows and hands the deltas back to the workload.
using Counters = std::map<std::string, double>;
Counters Delta(const Counters& later, const Counters& earlier);

// Times the part of an op that calls into the program. Drawing the op's
// inputs and checking its outputs stay outside. Records wall time, the
// calling thread's CPU time and the whole process's CPU time (every thread
// the call keeps busy, background work racing it included).
class CallClock {
 public:
  template <typename F>
  void Time(F&& f) {
    const int64_t p0 = ProcessCpuNs();
    const int64_t c0 = ThreadCpuNs();
    const int64_t t0 = NowNs();
    f();
    const int64_t t1 = NowNs();
    wall_ns_ += t1 - t0;
    thread_cpu_ns_ += ThreadCpuNs() - c0;
    process_cpu_ns_ += ProcessCpuNs() - p0;
  }
  int64_t wall_ns() const { return wall_ns_; }
  int64_t thread_cpu_ns() const { return thread_cpu_ns_; }
  int64_t process_cpu_ns() const { return process_cpu_ns_; }

 private:
  int64_t wall_ns_ = 0;
  int64_t thread_cpu_ns_ = 0;
  int64_t process_cpu_ns_ = 0;
};

enum class OpKind { kRead, kWrite };

struct OpOutcome {
  OpKind kind = OpKind::kRead;
  bool ok = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Build everything the ops need from `seed`: generate, encode, compute
  // reference results and warm up. Called several times per run; each call
  // replaces the previous state.
  virtual void Setup(uint64_t seed, SpanLog* spans) = 0;

  // Lines describing the working set and cache budget of the current
  // set-up (printed before the result).
  virtual std::vector<std::string> Describe() const = 0;

  // Op `i` of the seeded sequence. Calls into the program go through
  // `clock`; the op's result is checked before returning.
  virtual OpOutcome RunOp(uint64_t i, CallClock* clock, SpanLog* spans) = 0;

  // Short label of op `i` (which call, on what), for the exact-count
  // report.
  virtual std::string OpLabel(uint64_t i) const = 0;

  // Extra calls made only in traced phases, after op `i` and outside its
  // span and timed interval (e.g. the same query without a cache).
  virtual void TracedExtra(uint64_t i, SpanLog* spans) {
    (void)i;
    (void)spans;
  }

  // Bring background work to rest and run end-of-run checks; false if a
  // check failed. Called once, after the last op.
  virtual bool Finish() = 0;

  // Check of the working-set guard; false with `why` set if violated.
  virtual bool GuardOk(const Counters& phase, std::string* why) const = 0;

  virtual Counters Snapshot() const = 0;

  // Stored bits per value after Finish().
  virtual double BitsPerInt() const = 0;

  // Ops in the exact-count window at the start of the traced phase.
  virtual uint64_t ExactWindow() const = 0;

  // Per-layer metrics from the traced phase: `window` is the counter delta
  // over the exact-count window, `phase` over the whole traced phase,
  // `spans` the spans of the run (set-up spans included).
  virtual std::map<std::string, double> LayerMetrics(
      const Counters& window, const Counters& phase,
      const std::vector<SpanLog::Span>& spans) const = 0;
};

std::unique_ptr<Workload> MakeCodecScan();
std::unique_ptr<Workload> MakeSsbServe();
std::unique_ptr<Workload> MakeIngestMixed();

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // span JSON path for traced runs ("" = none)
};

// Runs the workload and prints the report; the last stdout line is the
// result JSON. Returns the process exit code.
int RunBenchmark(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
