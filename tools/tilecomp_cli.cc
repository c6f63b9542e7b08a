// tilecomp command-line tool: compress / decompress / inspect columns on
// disk and benchmark them on the simulated device.
//
//   tilecomp gen out.bin --n 1000000 --dist sorted      # make test data
//   tilecomp compress in.bin out.tcmp [--scheme auto]   # raw u32 LE input
//   tilecomp decompress in.tcmp out.bin
//   tilecomp inspect in.tcmp
//   tilecomp bench in.tcmp                              # simulated decode
//   tilecomp profile --scheme=gpu-rfor                  # per-launch trace
#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "tilecomp.h"

namespace tilecomp {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: tilecomp <command> [args]\n"
               "  gen <out.bin> [--n N] [--dist uniform|sorted|runs|zipf]\n"
               "                [--bits B] [--seed S]\n"
               "  compress <in.bin> <out.tcmp> [--scheme auto|gpufor|gpudfor|"
               "gpurfor|nsf|nsv|rle|gpubp]\n"
               "  decompress <in.tcmp> <out.bin>\n"
               "  inspect <in.tcmp>\n"
               "  bench <in.tcmp>\n"
               "  profile [<in.tcmp>] [--scheme auto|gpu-for|gpu-dfor|"
               "gpu-rfor|nsf|nsv|rle|gpu-bp]\n"
               "          [--n N] [--bits B] [--dist D] [--seed S] "
               "[--cascaded]\n"
               "          [--trace out.json] [--chrome out.json]\n");
  return 2;
}

// Scheme names are accepted with or without separators: "gpu-rfor",
// "gpu_rfor" and "gpurfor" all name codec::Scheme::kGpuRFor.
bool ParseScheme(const std::string& name, codec::Scheme* scheme) {
  std::string key;
  for (char c : name) {
    if (c == '-' || c == '_') continue;
    key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (key == "none") {
    *scheme = codec::Scheme::kNone;
  } else if (key == "gpufor") {
    *scheme = codec::Scheme::kGpuFor;
  } else if (key == "gpudfor") {
    *scheme = codec::Scheme::kGpuDFor;
  } else if (key == "gpurfor") {
    *scheme = codec::Scheme::kGpuRFor;
  } else if (key == "nsf") {
    *scheme = codec::Scheme::kNsf;
  } else if (key == "nsv") {
    *scheme = codec::Scheme::kNsv;
  } else if (key == "rle") {
    *scheme = codec::Scheme::kRle;
  } else if (key == "gpubp") {
    *scheme = codec::Scheme::kGpuBp;
  } else if (key == "simdbp128") {
    *scheme = codec::Scheme::kSimdBp128;
  } else {
    return false;
  }
  return true;
}

bool ReadRawU32(const std::string& path, std::vector<uint32_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long bytes = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  out->resize(static_cast<size_t>(bytes) / 4);
  const bool ok = std::fread(out->data(), 4, out->size(), f) == out->size();
  std::fclose(f);
  return ok;
}

bool WriteRawU32(const std::string& path, const std::vector<uint32_t>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(data.data(), 4, data.size(), f) == data.size();
  std::fclose(f);
  return ok;
}

// Synthetic data per the --n / --bits / --seed / --dist flags (shared by
// `gen` and `profile`). Returns false on an unknown --dist.
bool GenerateData(const Flags& flags, std::vector<uint32_t>* data) {
  const size_t n = static_cast<size_t>(flags.GetInt("n", 1'000'000));
  const uint32_t bits = static_cast<uint32_t>(flags.GetInt("bits", 16));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string dist = flags.GetString("dist", "uniform");

  if (dist == "uniform") {
    *data = GenUniformBits(n, bits, seed);
  } else if (dist == "sorted") {
    *data = GenSortedGaps(n, 1u << (bits / 2), seed);
  } else if (dist == "runs") {
    *data = GenRuns(n, 16, bits, seed);
  } else if (dist == "zipf") {
    *data = GenZipf(n, 1ull << bits, 1.5, seed);
  } else {
    std::fprintf(stderr, "unknown --dist %s\n", dist.c_str());
    return false;
  }
  return true;
}

int Gen(const std::string& out_path, const Flags& flags) {
  std::vector<uint32_t> data;
  if (!GenerateData(flags, &data)) return 2;
  if (!WriteRawU32(out_path, data)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %zu values (%zu bytes) to %s\n", data.size(),
              data.size() * 4, out_path.c_str());
  return 0;
}

int Compress(const std::string& in_path, const std::string& out_path,
             const Flags& flags) {
  std::vector<uint32_t> data;
  if (!ReadRawU32(in_path, &data)) {
    std::fprintf(stderr, "cannot read %s\n", in_path.c_str());
    return 1;
  }

  const std::string scheme_name = flags.GetString("scheme", "auto");
  codec::CompressedColumn col;
  if (scheme_name == "auto") {
    col = codec::EncodeGpuStar(data);
  } else {
    codec::Scheme scheme;
    if (!ParseScheme(scheme_name, &scheme)) {
      std::fprintf(stderr, "unknown --scheme %s\n", scheme_name.c_str());
      return 2;
    }
    col = codec::CompressedColumn::Encode(scheme, data);
  }

  if (!codec::WriteColumnFile(out_path, col)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("%s: %zu values, %s, %.2f bits/int (%.2fx), %llu bytes\n",
              out_path.c_str(), data.size(), codec::SchemeName(col.scheme()),
              col.bits_per_int(), col.compression_ratio(),
              static_cast<unsigned long long>(col.compressed_bytes()));
  return 0;
}

int Decompress(const std::string& in_path, const std::string& out_path) {
  codec::CompressedColumn col;
  if (!codec::ReadColumnFile(in_path, &col)) {
    std::fprintf(stderr, "cannot read/parse %s\n", in_path.c_str());
    return 1;
  }
  if (!WriteRawU32(out_path, col.DecodeHost())) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("decoded %u values to %s\n", col.size(), out_path.c_str());
  return 0;
}

int Inspect(const std::string& in_path) {
  codec::CompressedColumn col;
  if (!codec::ReadColumnFile(in_path, &col)) {
    std::fprintf(stderr, "cannot read/parse %s\n", in_path.c_str());
    return 1;
  }
  std::printf("scheme:           %s\n", codec::SchemeName(col.scheme()));
  std::printf("values:           %u\n", col.size());
  std::printf("compressed bytes: %llu\n",
              static_cast<unsigned long long>(col.compressed_bytes()));
  std::printf("bits per int:     %.2f\n", col.bits_per_int());
  std::printf("ratio vs int32:   %.2fx\n", col.compression_ratio());
  auto decoded = col.DecodeHost();
  auto stats = codec::ComputeStats(decoded);
  std::printf("min / max:        %u / %u\n", stats.min, stats.max);
  std::printf("distinct (est):   %llu\n",
              static_cast<unsigned long long>(stats.distinct));
  std::printf("avg run length:   %.2f\n", stats.avg_run_length);
  std::printf("sorted:           %s\n", stats.sorted ? "yes" : "no");
  return 0;
}

int Bench(const std::string& in_path) {
  codec::CompressedColumn col;
  if (!codec::ReadColumnFile(in_path, &col)) {
    std::fprintf(stderr, "cannot read/parse %s\n", in_path.c_str());
    return 1;
  }
  codec::SystemColumn sys;
  if (col.scheme() == codec::Scheme::kNone) {
    sys.system = codec::System::kNone;
  } else if (col.scheme() == codec::Scheme::kGpuBp) {
    sys.system = codec::System::kGpuBp;
  } else {
    sys.system = codec::System::kGpuStar;
  }
  sys.column = col;
  sim::Device dev;
  auto run = codec::SystemDecompress(dev, sys);
  std::printf("simulated decompression (V100 model):\n");
  std::printf("  time:            %.4f ms\n", run.time_ms);
  std::printf("  kernel launches: %llu\n",
              static_cast<unsigned long long>(run.kernel_launches()));
  std::printf("  global read:     %.2f MB\n",
              run.stats.global_bytes_read / 1e6);
  std::printf("  global written:  %.2f MB\n",
              run.stats.global_bytes_written / 1e6);
  std::printf("  effective rate:  %.1f Gvalues/s\n",
              col.size() / run.time_ms / 1e6);
  return 0;
}

// Decompress a column on the simulated device with a telemetry::Tracer
// attached and export the per-launch trace: JSON (tilecomp.trace.v10) to
// stdout or --trace=<file>, optionally chrome://tracing format to
// --chrome=<file>, and a human-readable summary table to stderr.
//
// The column comes from an on-disk .tcmp file when a path is given, else
// from synthetic data (--n/--bits/--dist/--seed) encoded with --scheme.
int Profile(const std::string& in_path, const Flags& flags) {
  codec::CompressedColumn col;
  if (!in_path.empty()) {
    if (!codec::ReadColumnFile(in_path, &col)) {
      std::fprintf(stderr, "cannot read/parse %s\n", in_path.c_str());
      return 1;
    }
  } else {
    std::vector<uint32_t> data;
    if (!GenerateData(flags, &data)) return 2;
    const std::string scheme_name = flags.GetString("scheme", "auto");
    if (scheme_name == "auto") {
      col = codec::EncodeGpuStar(data);
    } else {
      codec::Scheme scheme;
      if (!ParseScheme(scheme_name, &scheme)) {
        std::fprintf(stderr, "unknown --scheme %s\n", scheme_name.c_str());
        return 2;
      }
      col = codec::CompressedColumn::Encode(scheme, data);
    }
  }

  const kernels::Pipeline pipeline = flags.Has("cascaded")
                                         ? kernels::Pipeline::kCascaded
                                         : kernels::Pipeline::kFused;
  sim::Device dev;
  telemetry::Tracer tracer;
  dev.AttachTracer(&tracer);
  {
    telemetry::ScopedSpan span(
        dev, std::string("decompress/") + codec::SchemeName(col.scheme()));
    kernels::Decompress(dev, col, pipeline);
  }
  dev.AttachTracer(nullptr);

  const std::string json = telemetry::ToJson(tracer);
  const std::string trace_path = flags.GetString("trace", "");
  if (trace_path.empty()) {
    std::fwrite(json.data(), 1, json.size(), stdout);
    std::fputc('\n', stdout);
  } else if (!telemetry::WriteTextFile(trace_path, json)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  } else {
    std::fprintf(stderr, "wrote %s\n", trace_path.c_str());
  }
  const std::string chrome_path = flags.GetString("chrome", "");
  if (!chrome_path.empty()) {
    if (!telemetry::WriteTextFile(chrome_path,
                                  telemetry::ToChromeTrace(tracer))) {
      std::fprintf(stderr, "cannot write %s\n", chrome_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (chrome://tracing)\n", chrome_path.c_str());
  }
  telemetry::PrintSummary(tracer, stderr);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  Flags flags(argc - 1, argv + 1);
  if (cmd == "gen" && argc >= 3) return Gen(argv[2], flags);
  if (cmd == "compress" && argc >= 4) return Compress(argv[2], argv[3], flags);
  if (cmd == "decompress" && argc >= 4) return Decompress(argv[2], argv[3]);
  if (cmd == "inspect" && argc >= 3) return Inspect(argv[2]);
  if (cmd == "bench" && argc >= 3) return Bench(argv[2]);
  if (cmd == "profile") {
    const bool has_input = argc >= 3 && argv[2][0] != '-';
    return Profile(has_input ? argv[2] : "", flags);
  }
  return Usage();
}

}  // namespace
}  // namespace tilecomp

int main(int argc, char** argv) { return tilecomp::Main(argc, argv); }
