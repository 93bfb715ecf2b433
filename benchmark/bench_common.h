#ifndef TRACER_BENCHMARK_BENCH_COMMON_H_
#define TRACER_BENCHMARK_BENCH_COMMON_H_

// Shared pieces of the tracer_bench workloads: run options, the report a
// workload fills (metrics, correctness checks, attempt/failure counts) and
// the order statistics every metric is computed with.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tracer {
namespace benchmark {

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Measured length of the run. Set-up and the final correctness checks
  /// come on top of it.
  double seconds = 25.0;
  /// false: end-to-end metrics, tracing off. true: per-layer metrics from
  /// benchmark-side spans, the autograd profiler and the server's
  /// per-request breakdown, plus trace files.
  bool trace = false;
  /// Directory for the result JSON and, when tracing, the trace files.
  /// Empty writes nothing.
  std::string out_dir;
};

/// What one run measured and whether its outputs were right.
class Report {
 public:
  /// Sets a metric; its unit is the one BENCHMARK.json declares.
  void Metric(const std::string& name, double value);
  /// Records a correctness check; any failed check makes the run incorrect.
  void Check(bool ok, const std::string& what);
  /// Extra key/value (already-rendered JSON) for the result file only.
  void Detail(const std::string& key, const std::string& json_value);

  bool correct() const { return failed_checks_ == 0; }
  /// The metric's value, or nullptr when it was never set.
  const double* Find(const std::string& name) const;

  /// Operations the workload attempted (training steps or requests) and how
  /// many of them failed.
  int64_t attempted = 0;
  int64_t failed = 0;

  /// Rendered JSON array of {"check","ok"} objects.
  std::string ChecksJson() const;
  /// Rendered JSON object of the Detail() entries.
  std::string DetailsJson() const;

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::pair<std::string, std::string>> details_;
  int failed_checks_ = 0;
};

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Quantile `q` of a time-ordered sample, taken over consecutive windows of
/// kWindowSamples samples each (the last one absorbing the remainder) and
/// reported as the median over windows. A host stall then moves one
/// window's value instead of the run's, and a full window has ten samples
/// beyond its 99th percentile.
constexpr size_t kWindowSamples = 1000;
double WindowedQuantile(const std::vector<double>& ordered, double q);

/// Shortest decimal text that reads back as exactly `value`.
std::string ExactNumber(double value);

/// Seconds elapsed on the monotonic clock since `start_ns`.
double SecondsSince(uint64_t start_ns);

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double PeakRssMb();

/// Writes `text` to `dir`/`name`, creating `dir`; says on stderr when the
/// file cannot be written.
void WriteTextFile(const std::string& dir, const std::string& name,
                   const std::string& text);

/// Runs the named workload kind. Each returns false for an unknown name.
bool RunTrainWorkload(const RunOptions& options, Report* report);
bool RunServeWorkload(const RunOptions& options, Report* report);

}  // namespace benchmark
}  // namespace tracer

#endif  // TRACER_BENCHMARK_BENCH_COMMON_H_
