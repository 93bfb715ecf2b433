// Training workloads: train::Fit with the paper's TITV model on a synthetic
// EMR cohort, for a fixed number of epochs (patience off), repeated from the
// same initial state until the run's time is used up. Every repeat must end
// with bitwise-identical parameters.
//
// The traced run first measures Fit untraced, then drives a benchmark-side
// copy of Fit's step loop over the same public calls (MakeBatch, ZeroGrad,
// Forward, BinaryCrossEntropyWithLogits, CheckGraph, Backward, ClipGradNorm,
// Adam::Step inside a ScopedArena; DatasetLoss per epoch) with a span and a
// timer around each call, and finally repeats that loop with the autograd
// profiler on for op-level shares.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "autograd/graph_check.h"
#include "autograd/ops.h"
#include "bench_common.h"
#include "core/titv.h"
#include "data/dataset.h"
#include "datagen/emr_generator.h"
#include "nn/sequence_model.h"
#include "obs/autograd_profiler.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "optim/optimizer.h"
#include "tensor/arena.h"
#include "train/trainer.h"

namespace tracer {
namespace benchmark {
namespace {

struct TrainWorkload {
  const char* name;
  bool mimic;  // MIMIC-like mortality cohort (T=24) vs NUH-AKI (T=7)
  int train, val, test;  // patients per split
  int hidden;  // TITV rnn_dim = film_dim
  int epochs;       // per fit
  double auc_floor;  // test AUC every fit must reach
};

// train_aki32 is small-model and overhead-bound (tape, activations, graph
// validation); train_mimic128 is GEMM-bound with a 24-step recurrence. The
// test splits are large so that test AUC varies little between seeds.
constexpr TrainWorkload kTrainWorkloads[] = {
    {"train_aki32", false, 3200, 400, 4400, 32, 20, 0.90},
    {"train_mimic128", true, 1200, 150, 3150, 128, 4, 0.75},
};

constexpr int kBatchSize = 64;
// train::DatasetLoss batch size Fit validates with.
constexpr int kValBatchSize = 256;
constexpr float kLearningRate = 3e-3f;
constexpr int kSetupRepeats = 5;

struct PreparedData {
  data::DatasetSplits splits;
  core::TitvConfig model;
};

PreparedData Prepare(const TrainWorkload& workload, uint64_t seed) {
  datagen::EmrCohortConfig cohort = workload.mimic
                                        ? datagen::MimicDefaultConfig()
                                        : datagen::NuhAkiDefaultConfig();
  const int patients = workload.train + workload.val + workload.test;
  cohort.num_samples = patients;
  cohort.seed = seed;
  const data::TimeSeriesDataset dataset =
      workload.mimic ? datagen::GenerateMimicMortalityCohort(cohort).dataset
                     : datagen::GenerateNuhAkiCohort(cohort).dataset;
  PreparedData out;
  Rng split_rng(seed + 1);
  out.splits = data::SplitDataset(
      dataset, split_rng, static_cast<double>(workload.train) / patients,
      static_cast<double>(workload.val) / patients);
  data::MinMaxNormalizer normalizer;
  normalizer.Fit(out.splits.train);
  normalizer.Apply(&out.splits.train);
  normalizer.Apply(&out.splits.val);
  normalizer.Apply(&out.splits.test);
  out.model.input_dim = dataset.num_features();
  out.model.rnn_dim = workload.hidden;
  out.model.film_dim = workload.hidden;
  out.model.seed = seed + 2;
  return out;
}

train::TrainConfig MakeTrainConfig(const TrainWorkload& workload,
                                   uint64_t seed) {
  train::TrainConfig config;
  config.max_epochs = workload.epochs;
  config.batch_size = kBatchSize;
  config.learning_rate = kLearningRate;
  config.patience = 0;  // fixed-length fits
  config.seed = seed + 3;
  config.telemetry = true;
  return config;
}

int Batches(int samples, int batch_size) {
  return (samples + batch_size - 1) / batch_size;
}

/// Passes every call through to the wrapped model and times the interval
/// between consecutive training forward passes, which is one full Fit step
/// (forward, loss, validation, backward, optimizer, next batch). Fit calls
/// Forward once per training batch and then once per validation batch, in a
/// fixed cycle, so the position in that cycle tells the two apart.
class StepTimedModel : public nn::SequenceModel {
 public:
  StepTimedModel(nn::SequenceModel* inner, int train_batches, int val_batches)
      : inner_(inner), train_batches_(train_batches),
        cycle_(train_batches + val_batches) {
    AddSubmodule("model", inner);
  }

  autograd::Variable Forward(
      const std::vector<autograd::Variable>& xs) override {
    const int position = calls_++ % cycle_;
    if (position < train_batches_) {
      const uint64_t now = obs::MonotonicNowNs();
      if (position > 0) {
        step_us_.push_back(static_cast<double>(now - last_ns_) / 1e3);
      }
      last_ns_ = now;
    }
    return inner_->Forward(xs);
  }

  std::string name() const override { return inner_->name(); }

  const std::vector<double>& step_us() const { return step_us_; }

 private:
  nn::SequenceModel* inner_;
  const int train_batches_;
  const int cycle_;
  int64_t calls_ = 0;
  uint64_t last_ns_ = 0;
  std::vector<double> step_us_;
};

/// FNV-1a over the bytes of every parameter.
uint64_t ParameterChecksum(const nn::Module& model) {
  uint64_t hash = 1469598103934665603ull;
  for (const Tensor& t : model.StateDict()) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
    for (size_t i = 0; i < static_cast<size_t>(t.size()) * sizeof(float);
         ++i) {
      hash = (hash ^ bytes[i]) * 1099511628211ull;
    }
  }
  return hash;
}

double TelemetryEpochSeconds(const std::string& record) {
  const char* key = "\"epoch_seconds\":";
  const size_t at = record.find(key);
  if (at == std::string::npos) return -1.0;
  return std::strtod(record.c_str() + at + std::strlen(key), nullptr);
}

struct FitStats {
  std::vector<double> epoch_s;
  std::vector<double> step_us;
  int fits = 0;
  int64_t steps = 0;
  int64_t nonfinite = 0;
  bool status_ok = true;
  bool repeatable = true;
  uint64_t checksum = 0;
  double test_auc = 0.0;
};

/// Fits fresh models until another fit would overrun `budget_s` (at least
/// one), checking each against the first.
FitStats RunFits(const PreparedData& data, const train::TrainConfig& config,
                 double budget_s) {
  FitStats stats;
  const int train_batches =
      Batches(data.splits.train.num_samples(), config.batch_size);
  const int val_batches =
      Batches(data.splits.val.num_samples(), kValBatchSize);
  const uint64_t start_ns = obs::MonotonicNowNs();
  double last_fit_s = 0.0;
  do {
    core::Titv model(data.model);
    StepTimedModel timed(&model, train_batches, val_batches);
    const uint64_t fit_ns = obs::MonotonicNowNs();
    const train::TrainResult result =
        train::Fit(&timed, data.splits.train, data.splits.val, config);
    last_fit_s = SecondsSince(fit_ns);
    stats.status_ok = stats.status_ok && result.status.ok() &&
                      !result.interrupted &&
                      result.epochs_run == config.max_epochs;
    stats.nonfinite += result.nonfinite_batches;
    stats.steps += static_cast<int64_t>(train_batches) * result.epochs_run;
    for (const std::string& record : result.telemetry) {
      stats.epoch_s.push_back(TelemetryEpochSeconds(record));
    }
    stats.step_us.insert(stats.step_us.end(), timed.step_us().begin(),
                         timed.step_us().end());
    const uint64_t checksum = ParameterChecksum(model);
    if (stats.fits == 0) {
      stats.checksum = checksum;
      stats.test_auc = train::Evaluate(&model, data.splits.test).auc;
    } else if (checksum != stats.checksum) {
      stats.repeatable = false;
    }
    ++stats.fits;
  } while (SecondsSince(start_ns) + last_fit_s <= budget_s);
  return stats;
}

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void CheckFits(const TrainWorkload& workload, const FitStats& stats,
               Report* report) {
  report->Check(stats.status_ok,
                "every fit completed all epochs with status OK");
  report->Check(stats.nonfinite == 0, "no non-finite batches");
  report->Check(stats.repeatable,
                "repeated fits end with bitwise-identical parameters");
  char what[96];
  std::snprintf(what, sizeof(what), "test AUC %.4f >= floor %.2f",
                stats.test_auc, workload.auc_floor);
  report->Check(stats.test_auc >= workload.auc_floor, what);
  bool epochs_timed = !stats.epoch_s.empty();
  for (double s : stats.epoch_s) epochs_timed = epochs_timed && s > 0.0;
  report->Check(epochs_timed, "Fit telemetry reports every epoch's time");
  report->attempted += stats.steps;
  report->failed += stats.nonfinite;
  std::string checksum_json = "\"";
  checksum_json += Hex(stats.checksum);
  checksum_json += '"';
  report->Detail("param_checksum", checksum_json);
  report->Detail("fits", std::to_string(stats.fits));
  report->Detail("epochs_timed", std::to_string(stats.epoch_s.size()));
  report->Detail("steps_timed", std::to_string(stats.step_us.size()));
  std::printf("param_checksum %s (identical across %d fits: %s)\n",
              Hex(stats.checksum).c_str(), stats.fits,
              stats.repeatable ? "yes" : "NO");
}

// ---------------------------------------------------------------------------
// Traced run: per-layer timing of the step loop Fit runs.

/// Per-epoch totals of the benchmark-side step loop, in nanoseconds.
struct EpochLayers {
  uint64_t batch = 0, forward = 0, validate = 0, backward = 0, optim = 0;
  uint64_t dataset_loss = 0;
  uint64_t wall = 0;
  int64_t steps = 0;
  int64_t step_heap_allocs = 0;
  int64_t validate_heap_allocs = 0;
  uint64_t layer_sum() const {
    return batch + forward + validate + backward + optim + dataset_loss;
  }
};

class StepLoop {
 public:
  StepLoop(const PreparedData& data, const train::TrainConfig& config)
      : data_(data), config_(config), model_(data.model),
        rng_(config.seed),
        batcher_(data.splits.train, config.batch_size, rng_),
        optimizer_(model_.Parameters(), config.learning_rate, 0.9f, 0.999f,
                   1e-8f, config.weight_decay) {
    // As in Fit: gradients outlive the step, so they live on the heap.
    for (autograd::Variable p : optimizer_.params()) p.grad();
  }

  /// One epoch of Fit's loop. With `profile`, the autograd profiler records
  /// the training steps (not the validation pass).
  EpochLayers RunEpoch(bool profile) {
    obs::AutogradProfiler& profiler = obs::AutogradProfiler::Global();
    EpochLayers e;
    const uint64_t epoch_start = obs::MonotonicNowNs();
    for (const std::vector<int>& idx : batcher_.EpochBatches()) {
      if (profile) profiler.SetEnabled(true);
      Step(idx, &e);
      if (profile) profiler.SetEnabled(false);
    }
    {
      TRACER_SPAN("bench.train.validate");
      const AllocCounters before = ThreadAllocCounters();
      const uint64_t t0 = obs::MonotonicNowNs();
      train::DatasetLoss(&model_, data_.splits.val, kValBatchSize);
      e.dataset_loss = obs::MonotonicNowNs() - t0;
      e.validate_heap_allocs = ThreadAllocCounters().heap_allocs -
                               before.heap_allocs;
    }
    e.wall = obs::MonotonicNowNs() - epoch_start;
    return e;
  }

  int64_t nonfinite() const { return nonfinite_; }

 private:
  void Step(const std::vector<int>& idx, EpochLayers* e) {
    TRACER_SPAN("bench.train.step");
    const AllocCounters allocs_before = ThreadAllocCounters();
    uint64_t t0 = obs::MonotonicNowNs();
    bool finite = true;
    {
      ScopedArena arena_scope(&arena_);
      data::Batch batch;
      {
        TRACER_SPAN("bench.data.batch");
        batch = data::MakeBatch(data_.splits.train, idx);
      }
      uint64_t t1 = obs::MonotonicNowNs();
      e->batch += t1 - t0;
      {
        TRACER_SPAN("bench.optim.zero_grad");
        optimizer_.ZeroGrad();
      }
      t0 = obs::MonotonicNowNs();
      e->optim += t0 - t1;
      autograd::Variable loss;
      {
        TRACER_SPAN("bench.core.forward");
        loss = autograd::BinaryCrossEntropyWithLogits(
            model_.Forward(nn::SequenceModel::ToVariables(batch)),
            batch.labels);
      }
      t1 = obs::MonotonicNowNs();
      e->forward += t1 - t0;
      finite = std::isfinite(loss.value()[0]);
      if (finite) {
        if (config_.validate_graph) {
          TRACER_SPAN("bench.autograd.validate");
          autograd::ValidateOptions validate;
          validate.check_nonfinite = true;
          autograd::CheckGraph(loss, validate);
        }
        t0 = obs::MonotonicNowNs();
        e->validate += t0 - t1;
        {
          TRACER_SPAN("bench.autograd.backward");
          loss.Backward();
        }
        t1 = obs::MonotonicNowNs();
        e->backward += t1 - t0;
      }
    }
    arena_.Reset();
    const AllocCounters allocs_after = ThreadAllocCounters();
    e->step_heap_allocs +=
        (allocs_after.heap_allocs - allocs_before.heap_allocs) +
        (allocs_after.arena_blocks - allocs_before.arena_blocks);
    t0 = obs::MonotonicNowNs();
    if (finite) {
      TRACER_SPAN("bench.optim.step");
      const float norm = optimizer_.ClipGradNorm(config_.clip_norm);
      if (std::isfinite(norm)) {
        optimizer_.Step();
      } else {
        finite = false;
      }
    }
    e->optim += obs::MonotonicNowNs() - t0;
    if (!finite) ++nonfinite_;
    ++e->steps;
  }

  const PreparedData& data_;
  const train::TrainConfig config_;
  core::Titv model_;
  Rng rng_;
  data::Batcher batcher_;
  optim::Adam optimizer_;
  TensorArena arena_;
  int64_t nonfinite_ = 0;
};

double PerStepUs(const std::vector<EpochLayers>& epochs,
                 uint64_t EpochLayers::*field) {
  std::vector<double> values;
  for (const EpochLayers& e : epochs) {
    values.push_back(static_cast<double>(e.*field) / 1e3 /
                     static_cast<double>(e.steps));
  }
  return Median(values);
}

void RunTraced(const TrainWorkload& workload, const PreparedData& data,
               const train::TrainConfig& config, const RunOptions& options,
               Report* report) {
  // Phase A: Fit untraced — the reference epoch time.
  const FitStats fits = RunFits(data, config, options.seconds / 2);
  CheckFits(workload, fits, report);
  const double fit_epoch_s = Median(fits.epoch_s);

  // Phase B: the same step loop with spans and per-layer timers. The first
  // epoch plans the arena and is left out of the medians.
  obs::SetEnabled(true);
  obs::TraceSink::Global().SetCapacity(1 << 17);
  StepLoop loop(data, config);
  std::vector<EpochLayers> epochs;
  const uint64_t traced_ns = obs::MonotonicNowNs();
  loop.RunEpoch(/*profile=*/false);
  do {
    epochs.push_back(loop.RunEpoch(/*profile=*/false));
  } while (SecondsSince(traced_ns) < options.seconds / 4);
  obs::SetEnabled(false);
  const std::string chrome_trace = obs::TraceSink::Global().DumpChromeTrace();

  // Phase C: the loop again under the autograd profiler.
  obs::AutogradProfiler& profiler = obs::AutogradProfiler::Global();
  profiler.Reset();
  int64_t profiled_steps = 0;
  const uint64_t profiled_ns = obs::MonotonicNowNs();
  do {
    profiled_steps += loop.RunEpoch(/*profile=*/true).steps;
  } while (SecondsSince(profiled_ns) < options.seconds / 4);
  report->Check(loop.nonfinite() == 0,
                "no non-finite batches in the traced step loop");

  std::vector<double> layer_sum_s, wall_s, step_allocs, validate_allocs,
      dataset_loss_ms;
  for (const EpochLayers& e : epochs) {
    layer_sum_s.push_back(static_cast<double>(e.layer_sum()) / 1e9);
    wall_s.push_back(static_cast<double>(e.wall) / 1e9);
    step_allocs.push_back(static_cast<double>(e.step_heap_allocs) /
                          static_cast<double>(e.steps));
    validate_allocs.push_back(static_cast<double>(e.validate_heap_allocs));
    dataset_loss_ms.push_back(static_cast<double>(e.dataset_loss) / 1e6);
  }
  report->Metric("data.batch_us", PerStepUs(epochs, &EpochLayers::batch));
  report->Metric("core.forward_us", PerStepUs(epochs, &EpochLayers::forward));
  report->Metric("autograd.validate_us",
                 PerStepUs(epochs, &EpochLayers::validate));
  report->Metric("autograd.backward_us",
                 PerStepUs(epochs, &EpochLayers::backward));
  report->Metric("optim.step_us", PerStepUs(epochs, &EpochLayers::optim));
  report->Metric("train.validate_ms", Median(dataset_loss_ms));
  report->Metric("train.unexplained_share",
                 1.0 - Median(layer_sum_s) / fit_epoch_s);
  report->Metric("tensor.heap_allocs_per_step", Median(step_allocs));
  report->Metric("train.validate_heap_allocs", Median(validate_allocs));
  report->Metric("obs.trace_overhead", Median(wall_s) / fit_epoch_s - 1.0);

  int64_t forward_calls = 0;
  uint64_t activation_ns = 0, gemm_ns = 0;
  int64_t gemm_flops = 0;
  obs::JsonObject ops;
  int listed = 0;
  for (const obs::OpProfile& op : profiler.Snapshot()) {
    forward_calls += op.forward_calls;
    if (op.op == "tanh" || op.op == "sigmoid") activation_ns += op.total_ns();
    if (op.op == "matmul" || op.op == "batch_matmul") {
      gemm_ns += op.total_ns();
      gemm_flops += op.forward_flops + op.backward_flops;
    }
    if (listed++ < 12) {
      obs::JsonObject row;
      row.Add("forward_calls", op.forward_calls);
      row.Add("forward_ms", static_cast<double>(op.forward_ns) / 1e6);
      row.Add("backward_ms", static_cast<double>(op.backward_ns) / 1e6);
      ops.AddRaw(op.op, row.Build());
    }
  }
  const double total_ns = static_cast<double>(profiler.TotalNs());
  report->Metric("autograd.tape_nodes",
                 static_cast<double>(forward_calls) /
                     static_cast<double>(profiled_steps));
  report->Metric("autograd.activation_share",
                 total_ns > 0 ? static_cast<double>(activation_ns) / total_ns
                              : 0.0);
  report->Metric("tensor.gemm_share", profiler.GemmShare());
  report->Metric("tensor.gemm_gflops",
                 gemm_ns > 0 ? static_cast<double>(gemm_flops) /
                                   static_cast<double>(gemm_ns)
                             : 0.0);
  profiler.Reset();
  report->Detail("fit_epoch_s", ExactNumber(fit_epoch_s));
  report->Detail("traced_epochs", std::to_string(epochs.size()));
  report->Detail("profiled_steps", std::to_string(profiled_steps));
  report->Detail("profile_top_ops", ops.Build());

  if (!options.out_dir.empty()) {
    WriteTextFile(options.out_dir,
                  std::string("trace_") + workload.name + ".json",
                  chrome_trace);
  }
}

}  // namespace

bool RunTrainWorkload(const RunOptions& options, Report* report) {
  const TrainWorkload* workload = nullptr;
  for (const TrainWorkload& w : kTrainWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return false;

  // Set-up: cohort generation, split, normalisation and model construction,
  // repeated so its median is steady.
  std::vector<double> setup_s;
  PreparedData data;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const uint64_t t0 = obs::MonotonicNowNs();
    data = Prepare(*workload, options.seed);
    const core::Titv model(data.model);
    setup_s.push_back(SecondsSince(t0));
  }
  const train::TrainConfig config = MakeTrainConfig(*workload, options.seed);
  report->Detail("n_train", std::to_string(data.splits.train.num_samples()));
  report->Detail("n_test", std::to_string(data.splits.test.num_samples()));

  if (options.trace) {
    RunTraced(*workload, data, config, options, report);
    return true;
  }
  const FitStats fits = RunFits(data, config, options.seconds);
  CheckFits(*workload, fits, report);
  report->Metric("throughput_per_s",
                 data.splits.train.num_samples() / Median(fits.epoch_s));
  report->Metric("latency_p50_us", WindowedQuantile(fits.step_us, 0.50));
  report->Metric("latency_p99_us", WindowedQuantile(fits.step_us, 0.99));
  report->Metric("auc", fits.test_auc);
  report->Metric("setup_s", Median(setup_s));
  return true;
}

}  // namespace benchmark
}  // namespace tracer
