#include "telemetry/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "telemetry/json.h"

namespace tilecomp::telemetry {

namespace {

void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf, static_cast<size_t>(n));
}

void AppendDouble(std::string* out, const char* key, double v,
                  bool trailing_comma = true) {
  AppendF(out, "\"%s\":%.17g%s", key, v, trailing_comma ? "," : "");
}

void AppendKernelFields(std::string* out, const sim::KernelResult& k) {
  const sim::LaunchConfig& c = k.config;
  AppendF(out,
          "\"config\":{\"grid_dim\":%" PRId64
          ",\"block_threads\":%d,\"smem_bytes_per_block\":%d,"
          "\"regs_per_thread\":%d,\"scheduling\":\"%s\"},",
          c.grid_dim, c.block_threads, c.smem_bytes_per_block,
          c.regs_per_thread, sim::SchedulingName(c.scheduling));
  const sim::KernelStats& s = k.stats;
  AppendF(out,
          "\"stats\":{\"global_bytes_read\":%" PRIu64
          ",\"global_bytes_written\":%" PRIu64
          ",\"warp_global_accesses\":%" PRIu64 ",\"shared_bytes\":%" PRIu64
          ",\"compute_ops\":%" PRIu64 ",\"barriers\":%" PRIu64
          ",\"atomic_ops\":%" PRIu64 "},",
          s.global_bytes_read, s.global_bytes_written, s.warp_global_accesses,
          s.shared_bytes, s.compute_ops, s.barriers, s.atomic_ops);
  const sim::TimeBreakdown& b = k.breakdown;
  AppendDouble(out, "occupancy", b.occupancy);
  out->append("\"breakdown_ms\":{");
  AppendDouble(out, "launch", b.launch_ms);
  AppendDouble(out, "bandwidth", b.bandwidth_ms);
  AppendDouble(out, "latency", b.latency_ms);
  AppendDouble(out, "scheduling", b.scheduling_ms);
  AppendDouble(out, "shared", b.shared_ms);
  AppendDouble(out, "compute", b.compute_ms);
  AppendDouble(out, "tail", b.wave.tail_ms);
  AppendDouble(out, "atomic", b.atomic_ms, /*trailing_comma=*/false);
  out->append("},");
  const sim::WaveStats& w = b.wave;
  AppendF(out,
          "\"wave\":{\"scheduling\":\"%s\",\"slots\":%" PRId64
          ",\"waves\":%" PRId64 ",",
          sim::SchedulingName(w.scheduling), w.slots, w.waves);
  AppendDouble(out, "mean_cost", w.mean_cost);
  AppendDouble(out, "max_cost", w.max_cost);
  AppendDouble(out, "p99_cost", w.p99_cost);
  AppendDouble(out, "imbalance", w.imbalance, /*trailing_comma=*/false);
  out->append("},");
  const sim::CacheCounters& cc = s.cache;
  AppendF(out,
          "\"cache\":{\"hits\":%" PRIu64 ",\"misses\":%" PRIu64
          ",\"evictions\":%" PRIu64 ",\"saved_bytes\":%" PRIu64
          ",\"prefetch_hits\":%" PRIu64 "},",
          cc.hits, cc.misses, cc.evictions, cc.saved_bytes, cc.prefetch_hits);
  const sim::PushdownCounters& pd = s.pushdown;
  AppendF(out,
          "\"pushdown\":{\"tiles_pruned\":%" PRIu64 ",\"tiles_decoded\":%" PRIu64
          ",\"blocks_short_circuited\":%" PRIu64
          ",\"runs_short_circuited\":%" PRIu64 "},",
          pd.tiles_pruned, pd.tiles_decoded, pd.blocks_short_circuited,
          pd.runs_short_circuited);
  const sim::PrefetchCounters& pf = s.prefetch;
  AppendF(out,
          "\"prefetch\":{\"issued\":%" PRIu64 ",\"useful\":%" PRIu64
          ",\"wasted\":%" PRIu64 ",\"late\":%" PRIu64 "},",
          pf.issued, pf.useful, pf.wasted, pf.late);
  AppendF(out, "\"limiter\":\"%s\",", sim::LimiterName(b.limiter()));
  AppendF(out, "\"faults\":{\"retries\":%d,\"failed\":%s},", k.fault_retries,
          k.failed ? "true" : "false");
}

}  // namespace

bool IsKnownTraceSchema(const std::string& schema) {
  return schema == kTraceSchema;
}

std::string ToJson(const std::vector<Span>& spans) {
  std::string out;
  out.reserve(512 + spans.size() * 512);
  AppendF(&out, "{\"schema\":\"%s\",\"spans\":[", kTraceSchema);
  bool first = true;
  for (const Span& span : spans) {
    if (!first) out.append(",");
    first = false;
    out.append("\n{");
    AppendF(&out, "\"kind\":\"%s\",", SpanKindName(span.kind));
    AppendF(&out, "\"name\":\"%s\",", JsonEscape(span.name).c_str());
    AppendF(&out, "\"path\":\"%s\",", JsonEscape(span.path).c_str());
    AppendF(&out, "\"depth\":%d,", span.depth);
    AppendF(&out, "\"device\":%d,", span.device_id);
    if (span.kind != SpanKind::kScope && span.kind != SpanKind::kLink) {
      AppendF(&out, "\"stream\":%d,", span.stream_id);
    }
    if (span.kind == SpanKind::kKernel) AppendKernelFields(&out, span.kernel);
    if (span.kind == SpanKind::kTransfer) {
      AppendF(&out, "\"bytes\":%" PRIu64 ",", span.transfer_bytes);
      AppendF(&out, "\"faults\":{\"retries\":%d,\"failed\":%s},",
              span.fault_retries, span.fault_failed ? "true" : "false");
    }
    if (span.kind == SpanKind::kLink) {
      AppendF(&out, "\"bytes\":%" PRIu64 ",", span.transfer_bytes);
      AppendF(&out, "\"src_device\":%d,\"dst_device\":%d,", span.link_src,
              span.link_dst);
    }
    if (span.kind == SpanKind::kQuery) {
      AppendF(&out, "\"request_id\":%" PRIu64 ",", span.q_request_id);
      AppendF(&out, "\"class\":\"%s\",", JsonEscape(span.q_class).c_str());
      AppendF(&out, "\"status\":\"%s\",", JsonEscape(span.q_status).c_str());
      AppendDouble(&out, "admit_ms", span.q_admit_ms);
      AppendDouble(&out, "service_start_ms", span.q_start_ms);
    }
    if (span.kind == SpanKind::kReencode) {
      AppendF(&out, "\"column\":%u,", span.re_column);
      AppendF(&out, "\"tile\":%" PRId64 ",", span.re_tile);
      AppendF(&out, "\"generation\":%" PRIu64 ",", span.re_generation);
      AppendF(&out, "\"old_words\":%u,", span.re_old_words);
      AppendF(&out, "\"new_words\":%u,", span.re_new_words);
    }
    AppendDouble(&out, "start_ms", span.start_ms);
    AppendDouble(&out, "duration_ms", span.duration_ms,
                 /*trailing_comma=*/false);
    out.append("}");
  }
  out.append("\n]}\n");
  return out;
}

std::string ToJson(const Tracer& tracer) { return ToJson(tracer.spans()); }

bool TraceFromJson(const std::string& json, std::vector<Span>* spans,
                   std::string* error) {
  spans->clear();
  JsonValue root;
  if (!ParseJson(json, &root, error)) return false;
  const std::string schema =
      root.Has("schema") ? root.Get("schema").AsString() : "";
  if (!IsKnownTraceSchema(schema)) {
    if (error != nullptr) *error = "unknown trace schema: " + schema;
    return false;
  }
  if (!root.Get("spans").is_array()) {
    if (error != nullptr) *error = "missing spans array";
    return false;
  }
  for (const JsonValue& record : root.Get("spans").AsArray()) {
    Span span;
    const std::string kind = record.Get("kind").AsString();
    if (kind == "kernel") {
      span.kind = SpanKind::kKernel;
    } else if (kind == "transfer") {
      span.kind = SpanKind::kTransfer;
    } else if (kind == "scope") {
      span.kind = SpanKind::kScope;
    } else if (kind == "link") {
      span.kind = SpanKind::kLink;
    } else if (kind == "query") {
      span.kind = SpanKind::kQuery;
    } else if (kind == "reencode") {
      span.kind = SpanKind::kReencode;
    } else {
      if (error != nullptr) *error = "unknown span kind: " + kind;
      return false;
    }
    span.name = record.Get("name").AsString();
    span.path = record.Get("path").AsString();
    span.depth = static_cast<int>(record.Get("depth").AsInt64());
    span.start_ms = record.Get("start_ms").AsDouble();
    span.duration_ms = record.Get("duration_ms").AsDouble();
    // Fields a span kind does not carry (scope/link streams, faults outside
    // kernel/transfer spans) read as null and load as zero.
    span.stream_id = static_cast<int>(record.Get("stream").AsInt64());
    span.device_id = static_cast<int>(record.Get("device").AsInt64());
    const JsonValue& faults = record.Get("faults");
    span.fault_retries = static_cast<int>(faults.Get("retries").AsInt64());
    span.fault_failed = faults.Get("failed").AsBool();
    if (span.kind == SpanKind::kKernel) {
      sim::KernelResult& k = span.kernel;
      k.label = span.name;
      k.start_ms = span.start_ms;
      k.time_ms = span.duration_ms;
      k.stream_id = span.stream_id;
      k.fault_retries = span.fault_retries;
      k.failed = span.fault_failed;
      const JsonValue& config = record.Get("config");
      k.config.grid_dim = config.Get("grid_dim").AsInt64();
      k.config.block_threads =
          static_cast<int>(config.Get("block_threads").AsInt64());
      k.config.smem_bytes_per_block =
          static_cast<int>(config.Get("smem_bytes_per_block").AsInt64());
      k.config.regs_per_thread =
          static_cast<int>(config.Get("regs_per_thread").AsInt64());
      k.config.scheduling =
          config.Get("scheduling").AsString() == "persistent"
              ? sim::Scheduling::kPersistent
              : sim::Scheduling::kStatic;
      const JsonValue& stats = record.Get("stats");
      k.stats.global_bytes_read = stats.Get("global_bytes_read").AsUint64();
      k.stats.global_bytes_written =
          stats.Get("global_bytes_written").AsUint64();
      k.stats.warp_global_accesses =
          stats.Get("warp_global_accesses").AsUint64();
      k.stats.shared_bytes = stats.Get("shared_bytes").AsUint64();
      k.stats.compute_ops = stats.Get("compute_ops").AsUint64();
      k.stats.barriers = stats.Get("barriers").AsUint64();
      k.stats.atomic_ops = stats.Get("atomic_ops").AsUint64();
      const JsonValue& cache = record.Get("cache");
      k.stats.cache.hits = cache.Get("hits").AsUint64();
      k.stats.cache.misses = cache.Get("misses").AsUint64();
      k.stats.cache.evictions = cache.Get("evictions").AsUint64();
      k.stats.cache.saved_bytes = cache.Get("saved_bytes").AsUint64();
      k.stats.cache.prefetch_hits = cache.Get("prefetch_hits").AsUint64();
      const JsonValue& pd = record.Get("pushdown");
      k.stats.pushdown.tiles_pruned = pd.Get("tiles_pruned").AsUint64();
      k.stats.pushdown.tiles_decoded = pd.Get("tiles_decoded").AsUint64();
      k.stats.pushdown.blocks_short_circuited =
          pd.Get("blocks_short_circuited").AsUint64();
      k.stats.pushdown.runs_short_circuited =
          pd.Get("runs_short_circuited").AsUint64();
      const JsonValue& pf = record.Get("prefetch");
      k.stats.prefetch.issued = pf.Get("issued").AsUint64();
      k.stats.prefetch.useful = pf.Get("useful").AsUint64();
      k.stats.prefetch.wasted = pf.Get("wasted").AsUint64();
      k.stats.prefetch.late = pf.Get("late").AsUint64();
      const JsonValue& breakdown = record.Get("breakdown_ms");
      k.breakdown.launch_ms = breakdown.Get("launch").AsDouble();
      k.breakdown.bandwidth_ms = breakdown.Get("bandwidth").AsDouble();
      k.breakdown.latency_ms = breakdown.Get("latency").AsDouble();
      k.breakdown.scheduling_ms = breakdown.Get("scheduling").AsDouble();
      k.breakdown.shared_ms = breakdown.Get("shared").AsDouble();
      k.breakdown.compute_ms = breakdown.Get("compute").AsDouble();
      k.breakdown.atomic_ms = breakdown.Get("atomic").AsDouble();
      k.breakdown.occupancy = record.Get("occupancy").AsDouble();
      const JsonValue& wave = record.Get("wave");
      sim::WaveStats& w = k.breakdown.wave;
      w.scheduling = wave.Get("scheduling").AsString() == "persistent"
                         ? sim::Scheduling::kPersistent
                         : sim::Scheduling::kStatic;
      w.slots = wave.Get("slots").AsInt64();
      w.waves = wave.Get("waves").AsInt64();
      w.mean_cost = wave.Get("mean_cost").AsDouble();
      w.max_cost = wave.Get("max_cost").AsDouble();
      w.p99_cost = wave.Get("p99_cost").AsDouble();
      w.imbalance = wave.Get("imbalance").AsDouble();
      // tail_ms is stored under breakdown_ms, keeping total_ms consistent.
      w.tail_ms = breakdown.Get("tail").AsDouble();
    }
    if (span.kind == SpanKind::kTransfer) {
      span.transfer_bytes = record.Get("bytes").AsUint64();
    }
    if (span.kind == SpanKind::kLink) {
      span.transfer_bytes = record.Get("bytes").AsUint64();
      span.link_src = static_cast<int>(record.Get("src_device").AsInt64());
      span.link_dst = static_cast<int>(record.Get("dst_device").AsInt64());
    }
    if (span.kind == SpanKind::kQuery) {
      span.q_request_id = record.Get("request_id").AsUint64();
      span.q_class = record.Get("class").AsString();
      span.q_status = record.Get("status").AsString();
      span.q_admit_ms = record.Get("admit_ms").AsDouble();
      span.q_start_ms = record.Get("service_start_ms").AsDouble();
    }
    if (span.kind == SpanKind::kReencode) {
      span.re_column = static_cast<uint32_t>(record.Get("column").AsUint64());
      span.re_tile = record.Get("tile").AsInt64();
      span.re_generation = record.Get("generation").AsUint64();
      span.re_old_words =
          static_cast<uint32_t>(record.Get("old_words").AsUint64());
      span.re_new_words =
          static_cast<uint32_t>(record.Get("new_words").AsUint64());
    }
    spans->push_back(std::move(span));
  }
  return true;
}

std::string ToChromeTrace(const std::vector<Span>& spans) {
  std::string out;
  out.reserve(1024 + spans.size() * 256);
  out.append("{\"traceEvents\":[");
  // Lane layout: per device, scopes on the first lane bracket the per-stream
  // work lanes below it, mirroring how nvprof shows streams under the
  // launching API row; link spans get one interconnect lane per source
  // device after all the device groups. Single-device traces keep the
  // original tids (0 = scopes, 1 + stream). Metadata events name each lane.
  int max_stream = 0;
  int max_device = 0;
  bool has_links = false;
  bool has_queries = false;
  for (const Span& span : spans) {
    max_stream = std::max(max_stream, span.stream_id);
    max_device = std::max({max_device, span.device_id, span.link_dst});
    if (span.kind == SpanKind::kLink) has_links = true;
    if (span.kind == SpanKind::kQuery) has_queries = true;
  }
  const int lane_stride = max_stream + 2;
  const int link_base = (max_device + 1) * lane_stride;
  // Query lanes (schema v9) come after the link lanes: one lane per
  // (device, priority class), each query drawn as a "(queued)" slice from
  // arrival to service start followed by its service slice — so queueing
  // delay and service time separate visually.
  const int query_base = link_base + (has_links ? max_device + 1 : 0);
  static constexpr const char* kQueryClassLanes[3] = {"interactive",
                                                      "standard", "batch"};
  auto query_class_idx = [](const std::string& cls) {
    for (int i = 0; i < 3; ++i) {
      if (cls == kQueryClassLanes[i]) return i;
    }
    return 0;
  };
  out.append(
      "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
      "\"args\":{\"name\":\"tilecomp sim\"}}");
  for (int d = 0; d <= max_device; ++d) {
    char prefix[32];
    if (max_device > 0) {
      std::snprintf(prefix, sizeof(prefix), "dev%d ", d);
    } else {
      prefix[0] = '\0';
    }
    AppendF(&out,
            ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
            "\"args\":{\"name\":\"%sscopes\"}}",
            d * lane_stride, prefix);
    for (int s = 0; s <= max_stream; ++s) {
      AppendF(&out,
              ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
              "\"args\":{\"name\":\"%sstream %d%s\"}}",
              d * lane_stride + 1 + s, prefix, s, s == 0 ? " (default)" : "");
    }
  }
  if (has_links) {
    for (int d = 0; d <= max_device; ++d) {
      AppendF(&out,
              ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
              "\"args\":{\"name\":\"dev%d link-out\"}}",
              link_base + d, d);
    }
  }
  if (has_queries) {
    for (int d = 0; d <= max_device; ++d) {
      for (int c = 0; c < 3; ++c) {
        char prefix[32];
        if (max_device > 0) {
          std::snprintf(prefix, sizeof(prefix), "dev%d ", d);
        } else {
          prefix[0] = '\0';
        }
        AppendF(&out,
                ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                "\"tid\":%d,\"args\":{\"name\":\"%squeries %s\"}}",
                query_base + d * 3 + c, prefix, kQueryClassLanes[c]);
      }
    }
  }
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kQuery) {
      const int tid =
          query_base + span.device_id * 3 + query_class_idx(span.q_class);
      const double finish_ms = span.start_ms + span.duration_ms;
      if (span.q_start_ms > span.start_ms) {
        AppendF(&out,
                ",\n{\"name\":\"%s (queued)\",\"cat\":\"query\",\"ph\":\"X\","
                "\"pid\":0,\"tid\":%d,\"ts\":%.12g,\"dur\":%.12g,"
                "\"args\":{\"request_id\":%" PRIu64 ",\"status\":\"%s\"}}",
                JsonEscape(span.name).c_str(), tid, span.start_ms * 1e3,
                (span.q_start_ms - span.start_ms) * 1e3, span.q_request_id,
                JsonEscape(span.q_status).c_str());
      }
      AppendF(&out,
              ",\n{\"name\":\"%s%s\",\"cat\":\"query\",\"ph\":\"X\","
              "\"pid\":0,\"tid\":%d,\"ts\":%.12g,\"dur\":%.12g,"
              "\"args\":{\"request_id\":%" PRIu64
              ",\"class\":\"%s\",\"status\":\"%s\",\"stream\":%d}}",
              JsonEscape(span.name).c_str(),
              span.q_status == "ok" ? "" : (" (" + span.q_status + ")").c_str(),
              tid, span.q_start_ms * 1e3,
              std::max(0.0, finish_ms - span.q_start_ms) * 1e3,
              span.q_request_id, JsonEscape(span.q_class).c_str(),
              JsonEscape(span.q_status).c_str(), span.stream_id);
      continue;
    }
    out.append(",");
    out.append("\n{");
    int tid = span.device_id * lane_stride;
    if (span.kind == SpanKind::kLink) {
      tid = link_base + span.link_src;
    } else if (span.kind != SpanKind::kScope &&
               span.kind != SpanKind::kReencode) {
      // Reencode spans are host-side background work, so they share the
      // scopes lane rather than claiming a device stream.
      tid += 1 + span.stream_id;
    }
    AppendF(&out, "\"name\":\"%s\",", JsonEscape(span.name).c_str());
    AppendF(&out, "\"cat\":\"%s\",", SpanKindName(span.kind));
    AppendF(&out, "\"ph\":\"X\",\"pid\":0,\"tid\":%d,", tid);
    AppendF(&out, "\"ts\":%.12g,\"dur\":%.12g,", span.start_ms * 1e3,
            span.duration_ms * 1e3);
    out.append("\"args\":{");
    if (span.kind == SpanKind::kKernel) {
      const sim::KernelResult& k = span.kernel;
      AppendF(&out, "\"stream\":%d,", span.stream_id);
      AppendF(&out, "\"grid_dim\":%" PRId64 ",", k.config.grid_dim);
      AppendF(&out, "\"global_bytes\":%" PRIu64 ",",
              k.stats.global_bytes_total());
      AppendDouble(&out, "occupancy", k.breakdown.occupancy);
      AppendF(&out, "\"limiter\":\"%s\"",
              sim::LimiterName(k.breakdown.limiter()));
    } else if (span.kind == SpanKind::kTransfer) {
      AppendF(&out, "\"stream\":%d,", span.stream_id);
      AppendF(&out, "\"bytes\":%" PRIu64, span.transfer_bytes);
    } else if (span.kind == SpanKind::kLink) {
      AppendF(&out, "\"src_device\":%d,\"dst_device\":%d,", span.link_src,
              span.link_dst);
      AppendF(&out, "\"bytes\":%" PRIu64, span.transfer_bytes);
    } else if (span.kind == SpanKind::kReencode) {
      AppendF(&out, "\"column\":%u,\"tile\":%" PRId64 ",", span.re_column,
              span.re_tile);
      AppendF(&out, "\"generation\":%" PRIu64 ",", span.re_generation);
      AppendF(&out, "\"old_words\":%u,\"new_words\":%u", span.re_old_words,
              span.re_new_words);
    }
    out.append("}}");
  }
  out.append("\n]}\n");
  return out;
}

std::string ToChromeTrace(const Tracer& tracer) {
  return ToChromeTrace(tracer.spans());
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

void PrintSummary(const Tracer& tracer, std::FILE* out) {
  std::fprintf(out, "%-34s %10s %10s %9s %9s %5s %-10s\n", "span", "time_ms",
               "grid", "rd_MB", "wr_MB", "occ%", "limiter");
  for (const Span& span : tracer.spans()) {
    std::string indent(static_cast<size_t>(span.depth) * 2, ' ');
    if (span.kind == SpanKind::kScope) {
      std::fprintf(out, "%s[%s] %.4f ms\n", indent.c_str(), span.name.c_str(),
                   span.duration_ms);
      continue;
    }
    if (span.kind == SpanKind::kTransfer) {
      std::fprintf(out, "%s%-*s %10.4f %10s %9.2f %9s %5s %-10s\n",
                   indent.c_str(),
                   static_cast<int>(34 - indent.size()), span.name.c_str(),
                   span.duration_ms, "-", span.transfer_bytes / 1e6, "-", "-",
                   "pcie");
      continue;
    }
    if (span.kind == SpanKind::kLink) {
      std::fprintf(out, "%s%-*s %10.4f %10s %9.2f %9s %5s %-10s\n",
                   indent.c_str(),
                   static_cast<int>(34 - indent.size()), span.name.c_str(),
                   span.duration_ms, "-", span.transfer_bytes / 1e6, "-", "-",
                   "link");
      continue;
    }
    if (span.kind == SpanKind::kQuery) {
      std::fprintf(out, "%s%s [%s] e2e %.4f ms (queued %.4f) %s\n",
                   indent.c_str(), span.name.c_str(), span.q_class.c_str(),
                   span.duration_ms, span.q_start_ms - span.start_ms,
                   span.q_status.c_str());
      continue;
    }
    if (span.kind == SpanKind::kReencode) {
      std::fprintf(out,
                   "%s%s col %u tile %" PRId64 " gen %" PRIu64
                   " %u -> %u words %.4f ms\n",
                   indent.c_str(), span.name.c_str(), span.re_column,
                   span.re_tile, span.re_generation, span.re_old_words,
                   span.re_new_words, span.duration_ms);
      continue;
    }
    const sim::KernelResult& k = span.kernel;
    std::fprintf(out, "%s%-*s %10.4f %10" PRId64 " %9.2f %9.2f %5.0f %-10s\n",
                 indent.c_str(), static_cast<int>(34 - indent.size()),
                 span.name.c_str(), span.duration_ms, k.config.grid_dim,
                 k.stats.global_bytes_read / 1e6,
                 k.stats.global_bytes_written / 1e6,
                 k.breakdown.occupancy * 100.0,
                 sim::LimiterName(k.breakdown.limiter()));
  }
}

}  // namespace tilecomp::telemetry
