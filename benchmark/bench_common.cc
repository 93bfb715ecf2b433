#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/json.h"
#include "obs/obs.h"

namespace tracer {
namespace benchmark {

void Report::Metric(const std::string& name, double value) {
  for (auto& [key, stored] : metrics_) {
    if (key == name) {
      stored = value;
      return;
    }
  }
  metrics_.emplace_back(name, value);
}

void Report::Check(bool ok, const std::string& what) {
  checks_.emplace_back(what, ok);
  if (!ok) {
    ++failed_checks_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::Detail(const std::string& key, const std::string& json_value) {
  details_.emplace_back(key, json_value);
}

const double* Report::Find(const std::string& name) const {
  for (const auto& [key, value] : metrics_) {
    if (key == name) return &value;
  }
  return nullptr;
}

std::string Report::ChecksJson() const {
  std::string out = "[";
  for (size_t i = 0; i < checks_.size(); ++i) {
    obs::JsonObject check;
    check.Add("check", checks_[i].first);
    check.Add("ok", checks_[i].second);
    if (i > 0) out += ",";
    out += check.Build();
  }
  return out + "]";
}

std::string Report::DetailsJson() const {
  obs::JsonObject details;
  for (const auto& [key, value] : details_) details.AddRaw(key, value);
  return details.Build();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double WindowedQuantile(const std::vector<double>& ordered, double q) {
  const size_t windows = std::max<size_t>(1, ordered.size() / kWindowSamples);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = ordered.begin() + w * kWindowSamples;
    const auto end =
        w + 1 == windows ? ordered.end() : begin + kWindowSamples;
    per_window.push_back(Quantile(std::vector<double>(begin, end), q));
  }
  return Median(per_window);
}

std::string ExactNumber(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(obs::MonotonicNowNs() - start_ns) / 1e9;
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void WriteTextFile(const std::string& dir, const std::string& name,
                   const std::string& text) {
  std::error_code ignored;
  std::filesystem::create_directories(dir, ignored);
  const std::string path = dir + "/" + name;
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << text;
  file.close();
  if (!file) std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

}  // namespace benchmark
}  // namespace tracer
