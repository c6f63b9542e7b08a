// ingest_mixed: a codec::MutableColumn of 8M values takes rounds of five
// ops: an append batch, then twice a patch batch followed by a range
// count/sum scan (served through serve::MutableColumnAccessor + TileCache).
// Each patch batch hands its dirty tiles to ReencodeDirty on a one-thread
// background pool, which races the scan that follows. Reads and writes
// share the column, so a read gain that costs writes (or the reverse)
// shows. The cache holds the whole decoded column: no evictions.
//
// Every scan races a fresh re-encode. With one re-encode per round, the
// scan right after it ran about three times slower than the next one, and
// the read median fell in the gap between the two clusters. One round in
// kHeavyEvery (at a seeded slot of each block) appends kHeavyBatches
// batches at once and scans a window kWideScan times as long, so about 2%
// of writes and of reads are large: each p99 then reads the middle of a
// real op class instead of host noise above the median.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "codec/column.h"
#include "codec/column_id.h"
#include "codec/mutable_column.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "crystal/load_column.h"
#include "harness.h"
#include "serve/mutable_loader.h"
#include "serve/tile_cache.h"
#include "sim/device.h"

namespace perfbench {
namespace {

using tilecomp::codec::MutableColumn;

constexpr int64_t kInitialRows = int64_t{1} << 23;  // 8M values
constexpr int64_t kBatch = 8192;                    // values per append
constexpr int kPatchesPerBatch = 256;
constexpr uint64_t kOpsPerRound = 5;
// One round in kHeavyEvery is heavy: its append (1.7% of writes) and its
// second scan (2.5% of reads) are large, so each p99 falls inside them.
constexpr uint64_t kHeavyEvery = 20;
constexpr int64_t kHeavyBatches = 32;  // batches in a heavy append
constexpr int64_t kWideScan = 4;       // window multiple of a wide scan
constexpr int64_t kScanRows = int64_t{1} << 19;  // 512K-row scan window
// Cache budget: the decoded column at four times its initial size, far
// above what a run appends, so the whole column always fits.
constexpr uint64_t kBudgetBytes = 4 * kInitialRows * 4;
const tilecomp::codec::ColumnId kColumnId(1);
// Warm-up rounds in set-up, numbered from an op id the measured sequence
// never reaches.
constexpr uint64_t kWarmupRounds = 48;
constexpr uint64_t kWarmupFirstOp = uint64_t{1} << 40;

// Bit width of append batch `b`: drifts over a fixed cycle, so tiles seal
// at different budgets while the column's mean width stays put.
uint32_t BatchBits(int64_t b) {
  return 6 + static_cast<uint32_t>((b * 5) % 18);
}

class IngestMixed : public Workload {
 public:
  ~IngestMixed() override { Quiesce(); }

  void Setup(uint64_t seed, SpanLog* spans) override {
    Quiesce();
    pool_.reset();
    accessor_.reset();
    cache_.reset();
    column_.reset();
    device_.reset();
    seed_ = seed;
    spans_ = nullptr;  // warm-up re-encodes are not traced
    {
      SpanLog::Scope s(spans, "bench.generate", -1);
      host_.resize(kInitialRows);
      tilecomp::Rng rng(seed);
      for (int64_t r = 0; r < kInitialRows; ++r) {
        host_[r] = static_cast<uint32_t>(
            rng.NextBounded(uint64_t{1} << BatchBits(r / kBatch)));
      }
    }
    column_ = std::make_unique<MutableColumn>(kColumnId);
    {
      SpanLog::Scope s(spans, "codec.AppendBulk", -1);
      s.set_items(host_.size());
      column_->Append(tilecomp::U32Span(host_.data(), host_.size()));
    }
    cache_ = std::make_unique<tilecomp::serve::TileCache>(kBudgetBytes);
    accessor_ = std::make_unique<tilecomp::serve::MutableColumnAccessor>(
        column_.get(), cache_.get());
    device_ = std::make_unique<tilecomp::sim::Device>();
    pool_ = std::make_unique<tilecomp::ThreadPool>(1);
    // Warm up: one full-column scan fills the cache, then rounds of the op
    // mix (from a sequence disjoint from the measured one) leave the arena
    // free list, dirty set and cache in their steady state.
    uint64_t count = 0, sum = 0;
    Scan(0, kInitialRows, 0, UINT32_MAX, &count, &sum);
    TILECOMP_CHECK(count == static_cast<uint64_t>(kInitialRows));
    for (uint64_t k = 0; k < kOpsPerRound * kWarmupRounds; ++k) {
      CallClock clock;
      TILECOMP_CHECK(RunOp(kWarmupFirstOp + k, &clock, nullptr).ok);
    }
    Quiesce();
    spans_ = spans;
    ops_ = rounds_ = 0;
    model_ms_ = global_bytes_ = launches_ = scans_ = 0;
    pruned_ = decoded_ = 0;
    reencode_tiles_.store(0);
  }

  std::vector<std::string> Describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "mutable column %lld rows after warm-up; decoded working "
                  "set %.1f MB, growing with every append; cache budget "
                  "%.1f MB (LRU)",
                  static_cast<long long>(column_->size()),
                  column_->size() * 4 / 1048576.0, kBudgetBytes / 1048576.0);
    return {buf};
  }

  std::string OpLabel(uint64_t i) const override {
    static const char* const kKinds[kOpsPerRound] = {"append", "patch",
                                                     "scan", "patch", "scan"};
    return kKinds[i % kOpsPerRound] +
           std::string(HeavyRound(i / kOpsPerRound) ? "+:" : ":") +
           std::to_string(Mix(seed_, i) % 997);
  }

  OpOutcome RunOp(uint64_t i, CallClock* clock, SpanLog* spans) override {
    const int64_t op = static_cast<int64_t>(i);
    const uint64_t slot = i % kOpsPerRound;
    OpOutcome outcome;
    if (slot == 0) {
      outcome = Append(op, clock, spans);
    } else if (slot == 1 || slot == 3) {
      outcome = PatchBatch(op, clock, spans);
      SubmitReencode(op);
    } else {
      outcome = RangeScan(op, clock, spans);
      pool_->Wait();
    }
    ++ops_;
    if (slot == kOpsPerRound - 1) ++rounds_;
    return outcome;
  }

  bool Finish() override {
    Quiesce();
    column_->ReencodeDirty(nullptr);
    std::vector<uint32_t> all;
    {
      SpanLog::Scope s(spans_, "format.DecodeHost", -1);
      all = column_->DecodeHost();
      s.set_items(all.size());
    }
    if (all != host_) {
      std::fprintf(stderr, "final column diverges from the host mirror\n");
      return false;
    }
    return true;
  }

  bool GuardOk(const Counters& phase, std::string* why) const override {
    if (phase.at("cache_evictions") == 0) return true;
    *why = "ingest_mixed evicted tiles: the decoded column no longer fits "
           "the cache budget";
    return false;
  }

  Counters Snapshot() const override {
    const auto st = cache_->stats();
    return {{"ops", static_cast<double>(ops_)},
            {"rounds", static_cast<double>(rounds_)},
            {"scans", scans_},
            {"model_ms", model_ms_},
            {"global_bytes", global_bytes_},
            {"launches", launches_},
            {"cache_hits", static_cast<double>(st.hits + st.prefetch_hits)},
            {"cache_misses", static_cast<double>(st.misses)},
            {"cache_evictions", static_cast<double>(st.evictions)},
            {"cache_inserts", static_cast<double>(st.inserts)},
            {"stale_refused", static_cast<double>(st.stale_refused)},
            {"invalidations",
             static_cast<double>(accessor_->invalidations_forwarded())},
            {"reencode_tiles", static_cast<double>(reencode_tiles_.load())},
            {"tiles_pruned", pruned_},
            {"tiles_decoded", decoded_}};
  }

  double BitsPerInt() const override {
    const MutableColumn::Stats st = column_->GetStats();
    return st.rows > 0 ? 32.0 * st.arena_words / st.rows : 0.0;
  }

  uint64_t ExactWindow() const override { return 64; }

  std::map<std::string, double> LayerMetrics(
      const Counters& window, const Counters& phase,
      const std::vector<SpanLog::Span>& spans) const override {
    std::map<std::string, double> m;
    auto mean_ms = [&](const char* name) {
      const SpanTotals t = TotalsFor(spans, name);
      return t.count > 0 ? t.total_ms / t.count : 0.0;
    };
    m["codec.encode_vpns"] =
        TotalsFor(spans, "codec.AppendBulk").items_per_ns();
    m["format.host_decode_vpns"] =
        TotalsFor(spans, "format.DecodeHost").items_per_ns();
    m["codec.append_ms"] = mean_ms("codec.Append");
    m["codec.patch_ms"] = mean_ms("codec.Patch");
    m["codec.reencode_ms"] = mean_ms("codec.ReencodeDirty");
    const double rounds = phase.at("rounds");
    if (rounds > 0) {
      m["codec.reencode_tiles_per_round"] = phase.at("reencode_tiles") / rounds;
      m["serve.invalidations_per_round"] = phase.at("invalidations") / rounds;
    }
    const MutableColumn::Stats st = column_->GetStats();
    m["codec.space_amp"] = st.space_amplification;
    const double accesses = phase.at("cache_hits") + phase.at("cache_misses");
    const double hit_ratio =
        accesses > 0 ? phase.at("cache_hits") / accesses : 0.0;
    m["serve.cache_hit_ratio"] = hit_ratio;
    m["serve.mutable_hit_ratio"] = hit_ratio;
    m["serve.evictions_per_op"] =
        phase.at("ops") > 0 ? phase.at("cache_evictions") / phase.at("ops") : 0;
    const double tiles = phase.at("tiles_pruned") + phase.at("tiles_decoded");
    m["serve.pushdown_pruned_share"] =
        tiles > 0 ? phase.at("tiles_pruned") / tiles : 0.0;
    const double attempts =
        phase.at("cache_inserts") + phase.at("stale_refused");
    m["serve.stale_refused_share"] =
        attempts > 0 ? phase.at("stale_refused") / attempts : 0.0;
    const double scans = window.at("scans");
    if (scans > 0) {
      m["sim.model_ms_per_op"] = window.at("model_ms") / scans;
      m["sim.global_bytes_per_op"] = window.at("global_bytes") / scans;
      m["sim.launches_per_op"] = window.at("launches") / scans;
    }
    return m;
  }

 private:
  bool HeavyRound(uint64_t round) const {
    return round % kHeavyEvery ==
           Mix(seed_ ^ 0x0F0F0F0Full, round / kHeavyEvery) % kHeavyEvery;
  }

  OpOutcome Append(int64_t op, CallClock* clock, SpanLog* spans) {
    const int64_t first_batch = static_cast<int64_t>(host_.size()) / kBatch;
    const int64_t batches = HeavyRound(op / kOpsPerRound) ? kHeavyBatches : 1;
    tilecomp::Rng rng(Mix(seed_, op));
    std::vector<uint32_t> vals(batches * kBatch);
    for (size_t j = 0; j < vals.size(); ++j) {
      const uint32_t bits = BatchBits(first_batch + j / kBatch);
      vals[j] = static_cast<uint32_t>(rng.NextBounded(uint64_t{1} << bits));
    }
    clock->Time([&] {
      SpanLog::Scope s(spans, "codec.Append", op);
      s.set_items(vals.size());
      column_->Append(tilecomp::U32Span(vals.data(), vals.size()));
    });
    SpanLog::Scope check(spans, "bench.check", op);
    const int64_t before = static_cast<int64_t>(host_.size());
    host_.insert(host_.end(), vals.begin(), vals.end());
    const int64_t rows = static_cast<int64_t>(host_.size());
    const bool ok = column_->size() == rows &&
                    column_->At(before) == vals.front() &&
                    column_->At(rows - 1) == vals.back();
    if (!ok) std::fprintf(stderr, "op %lld: append diverges\n", (long long)op);
    return {OpKind::kWrite, ok};
  }

  OpOutcome PatchBatch(int64_t op, CallClock* clock, SpanLog* spans) {
    tilecomp::Rng rng(Mix(seed_, op));
    const uint64_t rows = host_.size();
    std::vector<std::pair<int64_t, uint32_t>> patches(kPatchesPerBatch);
    for (auto& [row, value] : patches) {
      row = static_cast<int64_t>(rng.NextBounded(rows));
      // Keep the row's batch width, so patching moves tiles between
      // extents without drifting the column's bits per value.
      value = static_cast<uint32_t>(
          rng.NextBounded(uint64_t{1} << BatchBits(row / kBatch)));
    }
    clock->Time([&] {
      SpanLog::Scope s(spans, "codec.Patch", op);
      s.set_items(patches.size());
      for (const auto& [row, value] : patches) column_->Patch(row, value);
    });
    SpanLog::Scope check(spans, "bench.check", op);
    for (const auto& [row, value] : patches) host_[row] = value;
    bool ok = true;
    for (const auto& [row, value] : patches) {
      ok = ok && column_->At(row) == host_[row];
    }
    if (!ok) std::fprintf(stderr, "op %lld: patch diverges\n", (long long)op);
    return {OpKind::kWrite, ok};
  }

  OpOutcome RangeScan(int64_t op, CallClock* clock, SpanLog* spans) {
    tilecomp::Rng rng(Mix(seed_, op));
    const int64_t rows = static_cast<int64_t>(host_.size());
    const int64_t tiles = (rows + tilecomp::crystal::kTileSize - 1) /
                          tilecomp::crystal::kTileSize;
    const bool wide = op % kOpsPerRound == kOpsPerRound - 1 &&
                      HeavyRound(op / kOpsPerRound);
    const int64_t scan_rows = wide ? kWideScan * kScanRows : kScanRows;
    const int64_t window_tiles = scan_rows / tilecomp::crystal::kTileSize;
    const int64_t first_tile = static_cast<int64_t>(
        rng.NextBounded(static_cast<uint64_t>(tiles - window_tiles + 1)));
    const int64_t begin = first_tile * tilecomp::crystal::kTileSize;
    const int64_t end = std::min(rows, begin + scan_rows);
    // Values >= lo, lo in [2^12, 2^13): tiles of batches up to 12 bits wide
    // are pruned from their live bounds, the rest are loaded. Pruning
    // stays near the same share on every scan, so scans cost alike.
    const uint32_t lo =
        (1u << 12) + static_cast<uint32_t>(rng.NextBounded(1u << 12));
    const uint32_t hi = UINT32_MAX;
    uint64_t count = 0, sum = 0;
    clock->Time([&] {
      SpanLog::Scope s(spans, "serve.Scan", op);
      s.set_items(static_cast<uint64_t>(end - begin));
      Scan(begin, end, lo, hi, &count, &sum);
    });
    SpanLog::Scope check(spans, "bench.check", op);
    uint64_t want_count = 0, want_sum = 0;
    for (int64_t r = begin; r < end; ++r) {
      const uint32_t v = host_[r];
      if (v >= lo && v <= hi) {
        ++want_count;
        want_sum += v;
      }
    }
    const bool ok = count == want_count && sum == want_sum;
    if (!ok) std::fprintf(stderr, "op %lld: scan diverges\n", (long long)op);
    return {OpKind::kRead, ok};
  }

  // One count/sum scan of rows [begin, end) (begin tile-aligned) through
  // the accessor: zone pruning from the live bounds, then cached or
  // charged-decode tile loads.
  void Scan(int64_t begin, int64_t end, uint32_t lo, uint32_t hi,
            uint64_t* out_count, uint64_t* out_sum) {
    // The accessor reads the mutable store; the interface's column
    // argument is a placeholder.
    static const tilecomp::codec::CompressedColumn placeholder;
    constexpr int64_t kTile = tilecomp::crystal::kTileSize;
    const auto pred = tilecomp::crystal::TilePredicate::Range(lo, hi);
    const int64_t first_tile = begin / kTile;
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    tilecomp::sim::LaunchConfig lc;
    lc.grid_dim = (end - begin + kTile - 1) / kTile;
    lc.block_threads = 128;
    lc.smem_bytes_per_block = kTile * 4;
    const tilecomp::sim::KernelResult r = device_->Launch(
        "ingest.scan", lc, [&](tilecomp::sim::BlockContext& ctx) {
          const int64_t tile = first_tile + ctx.block_id();
          auto mask = tilecomp::crystal::TileMask::AllSet();
          uint32_t n = accessor_->EvaluateOnTile(ctx, placeholder, kColumnId,
                                                 tile, pred, &mask);
          if (!mask.Any()) return;
          uint32_t vals[kTile];
          n = accessor_->LoadTile(ctx, placeholder, kColumnId, tile, vals);
          const int64_t first_row = tile * kTile;
          if (first_row + n > end) n = static_cast<uint32_t>(end - first_row);
          uint64_t local_sum = 0, local_count = 0;
          for (uint32_t k = 0; k < n; ++k) {
            if (!mask.Test(k)) continue;
            local_sum += vals[k];
            ++local_count;
          }
          count.fetch_add(local_count, std::memory_order_relaxed);
          sum.fetch_add(local_sum, std::memory_order_relaxed);
        });
    *out_count = count.load();
    *out_sum = sum.load();
    scans_ += 1;
    model_ms_ += r.time_ms;
    global_bytes_ += static_cast<double>(r.stats.global_bytes_total());
    launches_ += 1;
    pruned_ += static_cast<double>(r.stats.pushdown.tiles_pruned);
    decoded_ += static_cast<double>(r.stats.pushdown.tiles_decoded);
  }

  // Re-encode the tiles patch op `op` dirtied, on the background pool; the
  // next scan races it and waits for it after its timed call.
  void SubmitReencode(int64_t op) {
    SpanLog* spans = spans_;
    pool_->Submit([this, spans, op] {
      SpanLog::Scope s(spans, "codec.ReencodeDirty", op);
      const size_t committed = column_->ReencodeDirty(nullptr);
      s.set_items(committed);
      reencode_tiles_.fetch_add(committed);
    });
  }

  void Quiesce() {
    if (pool_ != nullptr) pool_->Wait();
  }

  uint64_t seed_ = 0;
  SpanLog* spans_ = nullptr;
  std::vector<uint32_t> host_;  // mirror of the column
  std::unique_ptr<tilecomp::sim::Device> device_;
  std::unique_ptr<MutableColumn> column_;
  std::unique_ptr<tilecomp::serve::TileCache> cache_;
  std::unique_ptr<tilecomp::serve::MutableColumnAccessor> accessor_;
  // Declared last: destroyed (joined) before what its tasks touch.
  std::unique_ptr<tilecomp::ThreadPool> pool_;
  uint64_t ops_ = 0, rounds_ = 0;
  double model_ms_ = 0, global_bytes_ = 0, launches_ = 0, scans_ = 0;
  double pruned_ = 0, decoded_ = 0;
  std::atomic<uint64_t> reencode_tiles_{0};
};

}  // namespace

std::unique_ptr<Workload> MakeIngestMixed() {
  return std::make_unique<IngestMixed>();
}

}  // namespace perfbench
