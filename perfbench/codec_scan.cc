// codec_scan: whole-column decodes of synthetic columns on both decode
// paths, the fused device decode (kernels::Decompress) and the host
// reference decoder (CompressedColumn::DecodeHost). No cache, no query and
// no mutation: a change to the serving layer must show no effect here,
// while a change to format/kernels/sim decode shows fully.
//
// Set-up encodes a pool of kVariants groups of four columns, one per shape.
// Each op draws a group and decodes its four columns on both paths, in a
// seeded order. One op in kFullScanEvery, at a seeded slot of each block,
// decodes every group instead: a full scan of the pool.
//
// The op mix is chosen so that both reported percentiles read a real op
// class. With one column and one path per op, the latencies of the eight
// (column, path) classes formed separate clusters; the median fell in the
// gap between the device and host clusters and jumped between runs. With
// only group ops, the p99 was host noise above the median. Now the median
// is the middle of the group ops and the p99 (2% full scans) the middle of
// the full scans.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codec/column.h"
#include "codec/scheme.h"
#include "codec/stats.h"
#include "common/random.h"
#include "harness.h"
#include "kernels/dispatch.h"
#include "sim/device.h"

namespace perfbench {
namespace {

using tilecomp::codec::CompressedColumn;

constexpr size_t kValues = size_t{1} << 19;  // 512K values per column
constexpr int kShapes = 4;
constexpr int kVariants = 8;  // groups of kShapes columns
constexpr int kDecodesPerGroup = 2 * kShapes;
constexpr uint64_t kFullScanEvery = 50;

class CodecScan : public Workload {
 public:
  void Setup(uint64_t seed, SpanLog* spans) override {
    seed_ = seed;
    columns_.clear();
    sources_.clear();
    device_ = std::make_unique<tilecomp::sim::Device>();
    {
      SpanLog::Scope s(spans, "bench.generate", -1);
      // Each shape lands on a different GPU-* scheme: sorted gaps -> DFOR,
      // runs -> RFOR, 11-bit uniform -> FOR; Zipf codes are the skewed
      // dictionary-code case. Column index = variant * kShapes + shape.
      for (int v = 0; v < kVariants; ++v) {
        const uint64_t base = seed * 64 + v * kShapes;
        sources_.push_back(tilecomp::GenSortedGaps(kValues, 16, base + 1));
        sources_.push_back(tilecomp::GenRuns(kValues, 24, 20, base + 2));
        sources_.push_back(tilecomp::GenUniformBits(kValues, 11, base + 3));
        sources_.push_back(tilecomp::GenZipf(kValues, 1u << 16, 1.1, base + 4));
      }
    }
    for (const auto& src : sources_) {
      SpanLog::Scope s(spans, "codec.EncodeGpuStar", -1);
      s.set_items(src.size());
      columns_.push_back(tilecomp::codec::EncodeGpuStar(src));
    }
    // Warm up both decode paths once per column (allocator, page faults,
    // thread-pool start), checking the output like any op.
    for (size_t c = 0; c < columns_.size(); ++c) {
      const auto run = tilecomp::kernels::Decompress(*device_, columns_[c]);
      TILECOMP_CHECK(run.output == sources_[c]);
      TILECOMP_CHECK(columns_[c].DecodeHost() == sources_[c]);
    }
  }

  std::vector<std::string> Describe() const override {
    std::vector<std::string> lines;
    for (int shape = 0; shape < kShapes; ++shape) {
      double bits = 0;
      for (int v = 0; v < kVariants; ++v) {
        bits += columns_[v * kShapes + shape].bits_per_int() / kVariants;
      }
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "shape %d: %d columns x %zu values, %s, %.3f bits/int",
                    shape, kVariants, kValues,
                    tilecomp::codec::SchemeName(columns_[shape].scheme()),
                    bits);
      lines.push_back(buf);
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "working set: %.1f MB decoded per op, %.1f MB in the pool; "
                  "no cache",
                  kShapes * kValues * 4 / 1048576.0,
                  columns_.size() * kValues * 4 / 1048576.0);
    lines.push_back(buf);
    return lines;
  }

  std::string OpLabel(uint64_t i) const override {
    std::string label =
        FullScan(i) ? "all:" : "group" + std::to_string(Variant(i)) + ":";
    for (int d : Order(i)) {
      label += (d % 2 == 0 ? "d" : "h") + std::to_string(d / 2);
    }
    return label;
  }

  OpOutcome RunOp(uint64_t i, CallClock* clock, SpanLog* spans) override {
    bool ok = true;
    const int first = FullScan(i) ? 0 : Variant(i);
    const int last = FullScan(i) ? kVariants - 1 : first;
    const std::vector<int> order = Order(i);
    for (int v = first; v <= last; ++v) {
      for (int d : order) {
        ok = Decode(i, v * kShapes + d / 2, d % 2 == 0, clock, spans) && ok;
      }
    }
    ++ops_;
    return {OpKind::kRead, ok};
  }

  bool Finish() override { return true; }

  bool GuardOk(const Counters&, std::string*) const override { return true; }

  Counters Snapshot() const override {
    return {{"ops", ops_},
            {"model_ms", model_ms_},
            {"global_bytes", global_bytes_},
            {"launches", launches_}};
  }

  double BitsPerInt() const override {
    double bits = 0, values = 0;
    for (const auto& col : columns_) {
      bits += 8.0 * static_cast<double>(col.compressed_bytes());
      values += col.size();
    }
    return values > 0 ? bits / values : 0.0;
  }

  uint64_t ExactWindow() const override { return 64; }

  std::map<std::string, double> LayerMetrics(
      const Counters& window, const Counters&,
      const std::vector<SpanLog::Span>& spans) const override {
    std::map<std::string, double> m;
    m["kernels.decode_vpns"] =
        TotalsFor(spans, "kernels.Decompress").items_per_ns();
    m["format.host_decode_vpns"] =
        TotalsFor(spans, "format.DecodeHost").items_per_ns();
    m["codec.encode_vpns"] =
        TotalsFor(spans, "codec.EncodeGpuStar").items_per_ns();
    const double ops = window.at("ops");
    if (ops > 0) {
      m["sim.model_ms_per_op"] = window.at("model_ms") / ops;
      m["sim.global_bytes_per_op"] = window.at("global_bytes") / ops;
      m["sim.launches_per_op"] = window.at("launches") / ops;
    }
    return m;
  }

 private:
  // Decodes column `c` on one path and checks it against its source.
  bool Decode(uint64_t i, int c, bool on_device, CallClock* clock,
              SpanLog* spans) {
    const CompressedColumn& column = columns_[c];
    std::vector<uint32_t> out;
    if (on_device) {
      tilecomp::kernels::DecompressRun run;
      clock->Time([&] {
        SpanLog::Scope s(spans, "kernels.Decompress", static_cast<int64_t>(i));
        s.set_items(column.size());
        run = tilecomp::kernels::Decompress(*device_, column);
      });
      model_ms_ += run.time_ms;
      global_bytes_ += static_cast<double>(run.stats.global_bytes_total());
      launches_ += static_cast<double>(run.kernel_launches());
      out = std::move(run.output);
    } else {
      clock->Time([&] {
        SpanLog::Scope s(spans, "format.DecodeHost", static_cast<int64_t>(i));
        s.set_items(column.size());
        out = column.DecodeHost();
      });
    }
    SpanLog::Scope check(spans, "bench.check", static_cast<int64_t>(i));
    const auto& want = sources_[c];
    if (out.size() == want.size() &&
        std::memcmp(out.data(), want.data(), 4 * want.size()) == 0) {
      return true;
    }
    std::fprintf(stderr, "op %llu: column %d %s decode diverges\n",
                 static_cast<unsigned long long>(i), c,
                 on_device ? "device" : "host");
    return false;
  }

  int Variant(uint64_t i) const {
    return static_cast<int>(Mix(seed_, i) % kVariants);
  }
  bool FullScan(uint64_t i) const {
    return i % kFullScanEvery ==
           Mix(seed_ ^ 0xF0F0F0F0ull, i / kFullScanEvery) % kFullScanEvery;
  }
  // The op's eight decodes as 2 * shape + (0 device | 1 host), in a seeded
  // order.
  std::vector<int> Order(uint64_t i) const {
    std::vector<int> order(kDecodesPerGroup);
    for (int d = 0; d < kDecodesPerGroup; ++d) order[d] = d;
    SeededShuffle(Mix(seed_ ^ 0x5A5A5A5Aull, i), &order);
    return order;
  }

  uint64_t seed_ = 0;
  std::unique_ptr<tilecomp::sim::Device> device_;
  std::vector<std::vector<uint32_t>> sources_;
  std::vector<CompressedColumn> columns_;
  double ops_ = 0, model_ms_ = 0, global_bytes_ = 0, launches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeCodecScan() {
  return std::make_unique<CodecScan>();
}

}  // namespace perfbench
