// tracer_bench: the repository benchmark. One process runs one workload:
//
//   tracer_bench --workload W --seed N [--seconds S] [--trace 0|1]
//                [--out DIR] [--commit SHA]
//
// It prints `workload metric value unit` lines, then as its last line one
// JSON object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. With --out
// it also writes the full result (host fingerprint, checks, details) to
// DIR/<workload>-seed<N>-trace<T>.json. Exits 1 when a correctness check
// fails and 2 on a usage or environment error. BENCHMARK.json at the root
// of the repository lists the workloads and metrics; benchmark/README.md
// explains them.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/json.h"
#include "parallel/parallel_for.h"

namespace tracer {
namespace benchmark {
namespace {

const char* const kWorkloads[] = {"train_aki32", "train_mimic128",
                                  "serve_ward", "serve_explain"};

struct MetricSpec {
  const char* name;
  const char* unit;
};

const MetricSpec kEndToEnd[] = {
    {"throughput_per_s", "1/s"}, {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},    {"auc", "auc"},
    {"setup_s", "s"},            {"peak_rss_mb", "MB"},
};

// Layers a workload does not exercise report 0.
const MetricSpec kPerLayer[] = {
    {"data.batch_us", "us"},
    {"core.forward_us", "us"},
    {"autograd.validate_us", "us"},
    {"autograd.backward_us", "us"},
    {"optim.step_us", "us"},
    {"train.validate_ms", "ms"},
    {"train.unexplained_share", "ratio"},
    {"tensor.heap_allocs_per_step", "count"},
    {"train.validate_heap_allocs", "count"},
    {"autograd.tape_nodes", "count"},
    {"autograd.activation_share", "ratio"},
    {"tensor.gemm_share", "ratio"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"serve.queue_us_p50", "us"},
    {"serve.queue_us_p99", "us"},
    {"serve.batch_wait_us_p99", "us"},
    {"serve.compute_us_p50", "us"},
    {"serve.compute_us_p99", "us"},
    {"serve.score_p50_us", "us"},
    {"serve.score_p99_us", "us"},
    {"serve.reconcile_gap", "ratio"},
    {"serve.mean_batch", "count"},
    {"serve.batch_fill", "ratio"},
    {"serve.batches_per_s", "1/s"},
    {"interpret.native_us_p50", "us"},
    {"interpret.native_us_p99", "us"},
    {"interpret.ig_us_p50", "us"},
    {"interpret.ig_us_p99", "us"},
    {"interpret.occlusion_us_p50", "us"},
    {"interpret.occlusion_us_p99", "us"},
    {"gen.late_us_p99", "us"},
    {"obs.trace_overhead", "ratio"},
};

// Each of these switches the program onto another code path; a run with
// one set measures a different program.
const char* const kForbiddenEnv[] = {"TRACER_GEMM",         "TRACER_THREADS",
                                     "TRACER_BATCHED_RNN",  "TRACER_TRAIN_ARENA",
                                     "TRACER_OBS",          "TRACER_FAULTS"};

int Usage(const char* error) {
  std::fprintf(stderr,
               "%s\nusage: tracer_bench --workload W --seed N [--seconds S] "
               "[--trace 0|1] [--out DIR] [--commit SHA]\nworkloads:",
               error);
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Fingerprint(const std::string& commit) {
  obs::JsonObject host;
  host.Add("cpu_model", CpuModel());
  host.Add("nproc", static_cast<int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  host.Add("compiler", TRACER_BENCH_COMPILER);
  host.Add("build_type", TRACER_BENCH_BUILD_TYPE);
  host.Add("cxx_flags", TRACER_BENCH_CXX_FLAGS);
  host.Add("tracer_native", TRACER_BENCH_NATIVE);
  host.Add("max_threads", static_cast<int64_t>(parallel::MaxThreads()));
  host.Add("commit", commit);
  return host.Build();
}

}  // namespace

int Main(int argc, char** argv) {
  RunOptions options;
  std::string commit = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseUint(value, &number)) {
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUint(value, &number) &&
               number >= 1) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && (std::strcmp(value, "0") == 0 ||
                                     std::strcmp(value, "1") == 0)) {
      options.trace = value[0] == '1';
    } else if (flag == "--out") {
      options.out_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (options.workload.empty() || !have_seed) {
    return Usage("--workload and --seed are required");
  }
  for (const char* name : kForbiddenEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "refusing to run: %s is set, which selects a different "
                   "code path than the one this benchmark measures\n",
                   name);
      return 2;
    }
  }

  Report report;
  if (!RunTrainWorkload(options, &report) &&
      !RunServeWorkload(options, &report)) {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  report.Metric("peak_rss_mb", PeakRssMb());

  // The result carries exactly the metric set of the mode, in the units
  // BENCHMARK.json declares. An end-to-end metric must be measured; a layer
  // the workload does not exercise reads 0.
  obs::JsonObject metrics;
  const auto emit = [&](const MetricSpec& spec) {
    const double* found = report.Find(spec.name);
    if (found == nullptr && !options.trace) {
      report.Check(false, std::string("metric ") + spec.name + " measured");
    }
    double number = found != nullptr ? *found : 0.0;
    if (!std::isfinite(number)) {
      report.Check(false, std::string("metric ") + spec.name + " is finite");
      number = 0.0;
    }
    const std::string value = ExactNumber(number);
    std::printf("%s %s %s %s\n", options.workload.c_str(), spec.name,
                value.c_str(), spec.unit);
    obs::JsonObject metric;
    metric.AddRaw("value", value);
    metric.Add("unit", spec.unit);
    metrics.AddRaw(spec.name, metric.Build());
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }

  obs::JsonObject line;
  line.Add("correct", report.correct());
  line.Add("attempted", report.attempted);
  line.Add("failed", report.failed);
  line.AddRaw("metrics", metrics.Build());

  if (!options.out_dir.empty()) {
    obs::JsonObject result;
    result.Add("workload", options.workload);
    result.Add("seed", static_cast<int64_t>(options.seed));
    result.Add("seconds", options.seconds);
    result.Add("trace", options.trace);
    result.AddRaw("host", Fingerprint(commit));
    result.Add("correct", report.correct());
    result.Add("attempted", report.attempted);
    result.Add("failed", report.failed);
    result.AddRaw("metrics", metrics.Build());
    result.AddRaw("checks", report.ChecksJson());
    result.AddRaw("details", report.DetailsJson());
    WriteTextFile(options.out_dir,
                  options.workload + "-seed" + std::to_string(options.seed) +
                      "-trace" + (options.trace ? "1" : "0") + ".json",
                  result.Build() + "\n");
  }
  std::printf("%s\n", line.Build().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace benchmark
}  // namespace tracer

int main(int argc, char** argv) { return tracer::benchmark::Main(argc, argv); }
