// Serving workloads: an in-process serve::InferenceServer (2 workers, batches
// of up to 16, 1 ms queue delay) over a TITV model trained on a synthetic
// NUH-AKI cohort. Each request is one held-out patient's history cut to its
// first 1–7 windows, the PatientSession mix in which only equal lengths can
// share a batch.
//
// Phase `steady`: one generator thread submits an open-loop Poisson stream
// at a fixed rate; each request's latency is timed from when it was due, so
// a stall also charges the requests queued behind it. Phase `burst`: rounds
// of requests submitted at once (a ward's shift change); throughput is the
// completed requests per second of a round.

#include <sys/prctl.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/titv.h"
#include "data/dataset.h"
#include "datagen/emr_generator.h"
#include "interpret/adapters.h"
#include "metrics/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "tensor/tensor_ops.h"
#include "train/trainer.h"

namespace tracer {
namespace benchmark {
namespace {

struct ServeWorkload {
  const char* name;
  double rate_per_s;     // steady-phase offered load
  double explain_share;  // share of requests asking for an explanation
  int burst_requests;    // requests per burst round
};

// serve_ward: scoring only; latency-bound at the steady rate (batches of
// ~1), batch-filling in the bursts. serve_explain: a tenth of the requests
// ask for an explanation, split evenly over TITV-native, integrated
// gradients and occlusion, on the same workers that score.
constexpr ServeWorkload kServeWorkloads[] = {
    {"serve_ward", 8000.0, 0.0, 50000},
    {"serve_explain", 2000.0, 0.1, 10000},
};

// Half of it trains the served model; the rest is the request pool.
constexpr int kCohortPatients = 5000;
constexpr int kModelHidden = 32;
constexpr int kModelEpochs = 10;
constexpr int kWarmupPerLength = 64;
constexpr int kSetupRepeats = 9;
// Every kSampleEvery-th response is re-scored offline.
constexpr int kSampleEvery = 100;
constexpr double kSteadyShare = 0.6;

enum Kind { kScore = 0, kNative = 1, kIg = 2, kOcclusion = 3 };
constexpr const char* kKindNames[] = {"score", "native", "ig", "occlusion"};

serve::ExplainSpec SpecFor(Kind kind) {
  serve::ExplainSpec spec;
  spec.method = kind == kNative ? interpret::Method::kTitvNative
                : kind == kIg   ? interpret::Method::kIntegratedGradients
                                : interpret::Method::kOcclusion;
  spec.ig_steps = 8;
  spec.baseline = interpret::BaselineKind::kZero;
  return spec;
}

/// The served model plus the held-out patients requests are drawn from.
struct Inputs {
  core::TitvConfig config;
  std::vector<std::pair<std::string, Tensor>> tensors;
  /// pool[p][t] = window t of held-out patient p.
  std::vector<std::vector<std::vector<float>>> pool;
  std::vector<float> labels;
};

Inputs MakeInputs(uint64_t seed) {
  datagen::EmrCohortConfig cohort = datagen::NuhAkiDefaultConfig();
  cohort.num_samples = kCohortPatients;
  cohort.seed = seed;
  const data::TimeSeriesDataset dataset =
      datagen::GenerateNuhAkiCohort(cohort).dataset;
  Rng split_rng(seed + 1);
  data::DatasetSplits splits =
      data::SplitDataset(dataset, split_rng, /*train_frac=*/0.5,
                         /*val_frac=*/0.1);
  data::MinMaxNormalizer normalizer;
  normalizer.Fit(splits.train);
  normalizer.Apply(&splits.train);
  normalizer.Apply(&splits.val);
  normalizer.Apply(&splits.test);

  Inputs in;
  in.config.input_dim = dataset.num_features();
  in.config.rnn_dim = kModelHidden;
  in.config.film_dim = kModelHidden;
  in.config.seed = seed + 2;
  core::Titv model(in.config);
  train::TrainConfig train_config;
  train_config.max_epochs = kModelEpochs;
  train_config.learning_rate = 3e-3f;
  train_config.patience = 0;
  train_config.seed = seed + 3;
  train::Fit(&model, splits.train, splits.val, train_config);
  for (const auto& [name, param] : model.NamedParameters()) {
    in.tensors.emplace_back(name, param.value());
  }

  const data::TimeSeriesDataset& held_out = splits.test;
  for (int p = 0; p < held_out.num_samples(); ++p) {
    std::vector<std::vector<float>> series(held_out.num_windows());
    for (int t = 0; t < held_out.num_windows(); ++t) {
      series[t].resize(held_out.num_features());
      for (int d = 0; d < held_out.num_features(); ++d) {
        series[t][d] = held_out.at(p, t, d);
      }
    }
    in.pool.push_back(std::move(series));
    in.labels.push_back(held_out.label(p));
  }
  return in;
}

struct Planned {
  double due_s = 0.0;  // steady phase only
  int patient = 0;
  int length = 0;
  Kind kind = kScore;
};

Planned Draw(const Inputs& in, double explain_share, Rng* rng) {
  Planned p;
  p.patient = static_cast<int>(rng->UniformInt(in.pool.size()));
  p.length = 1 + static_cast<int>(rng->UniformInt(in.pool[0].size()));
  if (rng->Uniform() < explain_share) {
    p.kind = static_cast<Kind>(1 + rng->UniformInt(3));
  }
  return p;
}

serve::ServeRequest MakeRequest(const Inputs& in, const Planned& p) {
  serve::ServeRequest request;
  const auto& series = in.pool[p.patient];
  request.windows.assign(series.begin(), series.begin() + p.length);
  return request;
}

std::future<serve::ServeResponse> Send(serve::InferenceServer* server,
                                       serve::ServeRequest request,
                                       Kind kind) {
  return kind == kScore ? server->Submit(std::move(request))
                        : server->SubmitExplain(std::move(request),
                                                SpecFor(kind));
}

/// Every request of one phase with its response and timing.
struct Phase {
  std::vector<Planned> plan;
  std::vector<serve::ServeResponse> responses;
  std::vector<uint64_t> due_ns;
  std::vector<uint64_t> submit_ns;
  /// Burst rounds: first submission to last completion.
  double seconds = 0.0;

  /// Due-to-completion latency of request i in µs.
  double LatencyUs(size_t i) const {
    return static_cast<double>(submit_ns[i] - due_ns[i] +
                               responses[i].total_ns) /
           1e3;
  }
};

void SleepUntilNs(uint64_t ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::nanoseconds(ns))));
}

/// Open-loop Poisson phase of `seconds` at the workload's rate.
Phase RunSteady(serve::InferenceServer* server, const Inputs& in,
                const ServeWorkload& workload, double seconds, Rng* rng) {
  Phase phase;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng->Uniform()) / workload.rate_per_s;
    if (t >= seconds) break;
    Planned p = Draw(in, workload.explain_share, rng);
    p.due_s = t;
    phase.plan.push_back(p);
  }
  const size_t n = phase.plan.size();
  std::vector<std::future<serve::ServeResponse>> futures;
  futures.reserve(n);
  phase.due_ns.resize(n);
  phase.submit_ns.resize(n);
  const uint64_t start_ns = obs::MonotonicNowNs() + 1000000;  // 1 ms lead
  for (size_t i = 0; i < n; ++i) {
    serve::ServeRequest request = MakeRequest(in, phase.plan[i]);
    phase.due_ns[i] =
        start_ns + static_cast<uint64_t>(phase.plan[i].due_s * 1e9);
    SleepUntilNs(phase.due_ns[i]);
    phase.submit_ns[i] = obs::MonotonicNowNs();
    futures.push_back(Send(server, std::move(request), phase.plan[i].kind));
  }
  phase.responses.reserve(n);
  for (auto& future : futures) phase.responses.push_back(future.get());
  return phase;
}

/// One shift-change round: `count` requests submitted back to back.
Phase RunBurst(serve::InferenceServer* server, const Inputs& in,
               const ServeWorkload& workload, Rng* rng) {
  Phase phase;
  const size_t n = static_cast<size_t>(workload.burst_requests);
  std::vector<serve::ServeRequest> requests;
  requests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    phase.plan.push_back(Draw(in, workload.explain_share, rng));
    requests.push_back(MakeRequest(in, phase.plan.back()));
  }
  std::vector<std::future<serve::ServeResponse>> futures;
  futures.reserve(n);
  phase.submit_ns.resize(n);
  const uint64_t start_ns = obs::MonotonicNowNs();
  for (size_t i = 0; i < n; ++i) {
    phase.submit_ns[i] = obs::MonotonicNowNs();
    futures.push_back(
        Send(server, std::move(requests[i]), phase.plan[i].kind));
  }
  phase.due_ns = phase.submit_ns;
  phase.responses.reserve(n);
  for (auto& future : futures) phase.responses.push_back(future.get());
  uint64_t end_ns = start_ns;
  for (size_t i = 0; i < n; ++i) {
    end_ns = std::max(end_ns, phase.submit_ns[i] + phase.responses[i].total_ns);
  }
  phase.seconds = static_cast<double>(end_ns - start_ns) / 1e9;
  return phase;
}

/// Checks served outputs against offline ground truth: a fresh replica of
/// the served snapshot scoring (and explaining) one request alone. The
/// server promises that batched rows are bit-identical to this.
class Auditor {
 public:
  Auditor(const serve::ModelRegistry& registry, const Inputs& in)
      : registry_(registry), in_(in), dim_(in.config.input_dim) {}

  /// Checks every response of `phase`: every explanation for shape and
  /// finiteness, every TITV-native one and every kSampleEvery-th response
  /// against the offline recompute.
  void Audit(const Phase& phase) {
    for (size_t i = 0; i < phase.responses.size(); ++i) {
      ++attempted_;
      if (!phase.responses[i].status.ok()) {
        ++failed_;
        continue;
      }
      const std::string error = Verify(phase, i, i % kSampleEvery == 0);
      if (!error.empty() && wrong_++ == 0) first_error_ = error;
    }
  }

  /// Books the totals of every audited phase into `report`.
  void Book(Report* report) const {
    report->attempted += attempted_;
    report->failed += failed_;
    report->Check(failed_ == 0, "every request completed with status OK");
    report->Check(wrong_ == 0,
                  "served outputs match the offline recompute" +
                      (first_error_.empty() ? std::string()
                                            : " (" + first_error_ + ")"));
    report->Detail("verified_offline", std::to_string(verified_));
  }

 private:
  /// Checks request i of `phase`; returns a failure description or "".
  std::string Verify(const Phase& phase, size_t i, bool sampled) {
    const serve::ServeResponse& r = phase.responses[i];
    const Planned& p = phase.plan[i];
    if (p.kind != kScore) {
      if (static_cast<int>(r.attributions.size()) != p.length) {
        return "explain response is not T windows";
      }
      for (const std::vector<float>& row : r.attributions) {
        if (static_cast<int>(row.size()) != dim_) {
          return "explain response is not D features";
        }
        for (float v : row) {
          if (!std::isfinite(v)) return "non-finite attribution";
        }
      }
    }
    if (!(sampled || p.kind == kNative)) return "";
    core::Titv* model = Replica(r.model_version);
    if (model == nullptr) return "served model version is not registered";
    const std::vector<Tensor> xs = RequestTensors(phase.plan[i]);
    ++verified_;
    if (sampled) {
      std::vector<autograd::Variable> vars;
      for (const Tensor& x : xs) vars.push_back(autograd::Variable::Constant(x));
      const float offline = tracer::Sigmoid(model->Forward(vars).value())[0];
      if (std::memcmp(&offline, &r.decision.probability, sizeof(float)) != 0) {
        return "served score differs from the offline re-score";
      }
    }
    if (p.kind == kScore) return "";
    interpret::AttributionResult expected;
    if (p.kind == kNative) {
      interpret::TitvAttributor attributor(model, /*classification=*/true);
      expected = attributor.Attribute(xs);
    } else if (sampled) {
      interpret::ModelScorer scorer = interpret::WrapSequenceModel(model);
      interpret::BaselineBuilder baseline(interpret::BaselineKind::kZero);
      if (p.kind == kIg) {
        interpret::IntegratedGradientsOptions ig;
        ig.steps = SpecFor(kIg).ig_steps;
        interpret::IntegratedGradients attributor(scorer.tape, baseline, ig,
                                                  scorer.reset);
        expected = attributor.Attribute(xs);
      } else {
        interpret::Occlusion attributor(scorer.score, baseline);
        expected = attributor.Attribute(xs);
      }
    } else {
      return "";
    }
    for (int t = 0; t < p.length; ++t) {
      if (std::memcmp(expected.samples[0].fi[t].data(),
                      r.attributions[t].data(),
                      sizeof(float) * static_cast<size_t>(dim_)) != 0) {
        return std::string(kKindNames[p.kind]) +
               " attributions differ from the offline recompute";
      }
    }
    return "";
  }

  core::Titv* Replica(uint64_t version) {
    auto& slot = replicas_[version];
    if (slot == nullptr) {
      const auto snapshot = registry_.Get(version);
      if (snapshot == nullptr) return nullptr;
      slot = snapshot->NewReplica();
    }
    return slot.get();
  }

  /// The request's windows as 1×D tensors.
  std::vector<Tensor> RequestTensors(const Planned& p) const {
    std::vector<Tensor> xs;
    for (int t = 0; t < p.length; ++t) {
      Tensor x({1, dim_});
      for (int d = 0; d < dim_; ++d) x.at(0, d) = in_.pool[p.patient][t][d];
      xs.push_back(std::move(x));
    }
    return xs;
  }

  const serve::ModelRegistry& registry_;
  const Inputs& in_;
  const int dim_;
  std::map<uint64_t, std::unique_ptr<core::Titv>> replicas_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t wrong_ = 0;
  int64_t verified_ = 0;
  std::string first_error_;
};

/// Server plus the registry it reads from (the registry outlives it).
struct Deployment {
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::InferenceServer> server;
};

serve::ServeOptions MakeServeOptions() {
  serve::ServeOptions options;
  options.max_batch_size = 16;
  options.max_queue_delay_us = 1000;
  options.queue_capacity = 65536;
  options.num_workers = 2;
  return options;
}

/// Set-up as a deployment does it: register and publish the model, start
/// the server, and warm every worker with requests of every length (and, on
/// an explain workload, every explain method).
bool Deploy(const Inputs& in, const ServeWorkload& workload,
            Deployment* out) {
  out->registry = std::make_unique<serve::ModelRegistry>();
  const Result<uint64_t> version =
      out->registry->Register(in.config, in.tensors, "benchmark");
  if (!version.ok() || !out->registry->Publish(version.value()).ok()) {
    return false;
  }
  out->server = std::make_unique<serve::InferenceServer>(out->registry.get(),
                                                         MakeServeOptions());
  std::vector<std::future<serve::ServeResponse>> warmup;
  const int max_len = static_cast<int>(in.pool[0].size());
  for (int len = 1; len <= max_len; ++len) {
    for (int i = 0; i < kWarmupPerLength; ++i) {
      Planned p;
      p.patient = (len * kWarmupPerLength + i) % static_cast<int>(in.pool.size());
      p.length = len;
      warmup.push_back(Send(out->server.get(), MakeRequest(in, p), kScore));
    }
    if (workload.explain_share > 0.0) {
      for (Kind kind : {kNative, kIg, kOcclusion}) {
        Planned p;
        p.patient = len;
        p.length = len;
        warmup.push_back(Send(out->server.get(), MakeRequest(in, p), kind));
      }
    }
  }
  bool ok = true;
  for (auto& future : warmup) ok = future.get().status.ok() && ok;
  return ok;
}

/// Due-to-completion latency quantile `q` (µs) of the phase's completed
/// requests, windowed in due order.
double LatencyQuantileUs(const Phase& phase, double q) {
  std::vector<double> latencies;
  for (size_t i = 0; i < phase.responses.size(); ++i) {
    if (phase.responses[i].status.ok()) latencies.push_back(phase.LatencyUs(i));
  }
  return WindowedQuantile(latencies, q);
}

std::vector<double> LateUs(const Phase& phase) {
  std::vector<double> out;
  for (size_t i = 0; i < phase.submit_ns.size(); ++i) {
    out.push_back(static_cast<double>(phase.submit_ns[i] - phase.due_ns[i]) /
                  1e3);
  }
  return out;
}

int64_t CountFailed(const Phase& phase) {
  int64_t failed = 0;
  for (const auto& r : phase.responses) failed += r.status.ok() ? 0 : 1;
  return failed;
}

/// AUC of the served scores of complete histories (all windows present)
/// against the patients' labels.
double Auc(const Phase& phase, const Inputs& in) {
  std::vector<float> scores, labels;
  const int full = static_cast<int>(in.pool[0].size());
  for (size_t i = 0; i < phase.responses.size(); ++i) {
    if (!phase.responses[i].status.ok() || phase.plan[i].length != full) {
      continue;
    }
    scores.push_back(phase.responses[i].decision.probability);
    labels.push_back(in.labels[phase.plan[i].patient]);
  }
  return metrics::Auc(scores, labels);
}

struct BurstResult {
  std::vector<double> rps;
  double mean_batch = 0.0;
  double batches_per_s = 0.0;
};

BurstResult RunBursts(serve::InferenceServer* server, const Inputs& in,
                      const ServeWorkload& workload, double seconds, Rng* rng,
                      Auditor* auditor) {
  BurstResult out;
  const serve::InferenceServer::Stats before = server->stats();
  double busy_s = 0.0;
  const uint64_t start_ns = obs::MonotonicNowNs();
  do {
    const Phase round = RunBurst(server, in, workload, rng);
    busy_s += round.seconds;
    out.rps.push_back(static_cast<double>(round.responses.size() -
                                          CountFailed(round)) /
                      round.seconds);
    auditor->Audit(round);
  } while (SecondsSince(start_ns) < seconds);
  const serve::InferenceServer::Stats after = server->stats();
  const double batches = static_cast<double>(after.batches - before.batches);
  out.mean_batch =
      static_cast<double>(after.completed - before.completed) / batches;
  out.batches_per_s = batches / busy_s;
  return out;
}

void ReportStages(const Phase& phase,
                  const std::map<uint64_t, uint64_t>& explain_span_ns,
                  Report* report) {
  std::vector<double> queue, batch_wait, compute, score;
  std::array<std::vector<double>, 4> explain;
  double total_sum = 0.0, stage_sum = 0.0;
  for (size_t i = 0; i < phase.responses.size(); ++i) {
    const serve::ServeResponse& r = phase.responses[i];
    if (!r.status.ok()) continue;
    queue.push_back(static_cast<double>(r.queue_ns) / 1e3);
    batch_wait.push_back(static_cast<double>(r.batch_ns) / 1e3);
    compute.push_back(static_cast<double>(r.compute_ns) / 1e3);
    const Kind kind = phase.plan[i].kind;
    uint64_t stages = r.queue_ns + r.batch_ns + r.compute_ns;
    if (kind == kScore) {
      score.push_back(phase.LatencyUs(i));
    } else {
      explain[kind].push_back(static_cast<double>(r.total_ns - stages) / 1e3);
      const auto span = explain_span_ns.find(r.trace_id);
      if (span == explain_span_ns.end()) continue;  // lost to ring overwrite
      stages += span->second;
    }
    total_sum += static_cast<double>(r.total_ns);
    stage_sum += static_cast<double>(stages);
  }
  report->Metric("serve.queue_us_p50", Quantile(queue, 0.5));
  report->Metric("serve.queue_us_p99", Quantile(queue, 0.99));
  report->Metric("serve.batch_wait_us_p99", Quantile(batch_wait, 0.99));
  report->Metric("serve.compute_us_p50", Quantile(compute, 0.5));
  report->Metric("serve.compute_us_p99", Quantile(compute, 0.99));
  report->Metric("serve.score_p50_us", Quantile(score, 0.5));
  report->Metric("serve.score_p99_us", Quantile(score, 0.99));
  report->Metric("serve.reconcile_gap",
                 total_sum > 0 ? 1.0 - stage_sum / total_sum : 0.0);
  for (Kind kind : {kNative, kIg, kOcclusion}) {
    const std::string prefix = std::string("interpret.") + kKindNames[kind];
    report->Metric(prefix + "_us_p50", Quantile(explain[kind], 0.5));
    report->Metric(prefix + "_us_p99", Quantile(explain[kind], 0.99));
  }
}

}  // namespace

bool RunServeWorkload(const RunOptions& options, Report* report) {
  const ServeWorkload* workload = nullptr;
  for (const ServeWorkload& w : kServeWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return false;
  // Sleep with 1 µs timer slack so the generator's lateness is the
  // scheduler's, not the default 50 µs slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  const Inputs in = MakeInputs(options.seed);
  std::vector<double> setup_s;
  Deployment deployment;
  bool deployed = true;
  for (int i = 0; i < kSetupRepeats; ++i) {
    deployment.server.reset();
    deployment.registry.reset();
    const uint64_t t0 = obs::MonotonicNowNs();
    deployed = Deploy(in, *workload, &deployment) && deployed;
    setup_s.push_back(SecondsSince(t0));
  }
  report->Check(deployed, "model published and warm-up requests served");
  if (!deployed) return true;
  serve::InferenceServer* server = deployment.server.get();
  Auditor auditor(*deployment.registry, in);
  Rng rng(options.seed + 4);

  const double steady_s = options.seconds * kSteadyShare;
  const double burst_s = options.seconds - steady_s;
  if (!options.trace) {
    const Phase steady = RunSteady(server, in, *workload, steady_s, &rng);
    auditor.Audit(steady);
    const BurstResult bursts =
        RunBursts(server, in, *workload, burst_s, &rng, &auditor);
    auditor.Book(report);
    const double late_p99 = Quantile(LateUs(steady), 0.99);
    report->Metric("throughput_per_s", Median(bursts.rps));
    report->Metric("latency_p50_us", LatencyQuantileUs(steady, 0.50));
    report->Metric("latency_p99_us", LatencyQuantileUs(steady, 0.99));
    report->Metric("auc", Auc(steady, in));
    report->Metric("setup_s", Median(setup_s));
    report->Detail("latency_samples", std::to_string(steady.responses.size()));
    report->Detail("burst_rounds", std::to_string(bursts.rps.size()));
    report->Detail("burst_mean_batch", ExactNumber(bursts.mean_batch));
    report->Detail("gen_late_us_p99", ExactNumber(late_p99));
    return true;
  }

  // Traced run. A: steady untraced (reference latency). B: steady with the
  // observability stack on — the server's per-request span trees plus the
  // ServeResponse stage breakdown. C: bursts for batching behaviour.
  const double phase_s = steady_s / 2;
  const Phase untraced = RunSteady(server, in, *workload, phase_s, &rng);
  auditor.Audit(untraced);
  obs::TraceSink& sink = obs::TraceSink::Global();
  sink.SetCapacity(1 << 17);
  obs::SetEnabled(true);
  const Phase traced = RunSteady(server, in, *workload, phase_s, &rng);
  obs::SetEnabled(false);
  auditor.Audit(traced);
  std::map<uint64_t, uint64_t> explain_span_ns;
  for (const obs::SpanRecord& span : sink.Snapshot()) {
    if (std::strcmp(span.name, "interpret.explain") == 0) {
      explain_span_ns[span.trace_id] = span.duration_ns;
    }
  }
  if (!options.out_dir.empty()) {
    WriteTextFile(options.out_dir,
                  std::string("trace_") + workload->name + ".json",
                  sink.DumpChromeTrace());
  }
  const BurstResult bursts =
      RunBursts(server, in, *workload, burst_s, &rng, &auditor);
  auditor.Book(report);

  ReportStages(traced, explain_span_ns, report);
  report->Metric("serve.mean_batch", bursts.mean_batch);
  report->Metric("serve.batch_fill",
                 bursts.mean_batch / MakeServeOptions().max_batch_size);
  report->Metric("serve.batches_per_s", bursts.batches_per_s);
  report->Metric("gen.late_us_p99", Quantile(LateUs(untraced), 0.99));
  report->Metric("obs.trace_overhead",
                 LatencyQuantileUs(traced, 0.5) /
                         LatencyQuantileUs(untraced, 0.5) -
                     1.0);
  report->Detail("spans_recorded", std::to_string(sink.recorded()));
  report->Detail("spans_dropped", std::to_string(sink.dropped()));
  return true;
}

}  // namespace benchmark
}  // namespace tracer
