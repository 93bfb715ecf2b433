#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/logistic_regression.h"
#include "core/titv.h"
#include "datagen/emr_generator.h"
#include "datagen/temperature_generator.h"
#include "obs/autograd_profiler.h"
#include "obs/obs.h"
#include "train/trainer.h"
#include "tests/json_check.h"

namespace tracer {
namespace train {
namespace {

struct Fixture {
  data::DatasetSplits splits;
  int input_dim;
};

Fixture MakeFixture(int samples = 400) {
  datagen::EmrCohortConfig gen = datagen::NuhAkiDefaultConfig();
  gen.num_samples = samples;
  gen.num_filler_features = 2;
  gen.deteriorating_rate = 0.3;
  gen.seed = 55;
  datagen::EmrCohort cohort = datagen::GenerateNuhAkiCohort(gen);
  Rng rng(3);
  Fixture f;
  f.splits = data::SplitDataset(cohort.dataset, rng);
  data::MinMaxNormalizer norm;
  norm.Fit(f.splits.train);
  norm.Apply(&f.splits.train);
  norm.Apply(&f.splits.val);
  norm.Apply(&f.splits.test);
  f.input_dim = cohort.dataset.num_features();
  return f;
}

TEST(TrainerTest, LossDecreasesOverEpochs) {
  Fixture f = MakeFixture();
  baselines::LogisticRegression model(f.input_dim);
  TrainConfig tc;
  tc.max_epochs = 10;
  tc.patience = 10;
  const TrainResult result = Fit(&model, f.splits.train, f.splits.val, tc);
  ASSERT_EQ(result.train_loss.size(), static_cast<size_t>(result.epochs_run));
  EXPECT_LT(result.train_loss.back(), result.train_loss.front());
}

TEST(TrainerTest, EarlyStoppingHaltsAndRestoresBest) {
  Fixture f = MakeFixture(200);
  baselines::LogisticRegression model(f.input_dim);
  TrainConfig tc;
  tc.max_epochs = 200;
  tc.patience = 3;
  tc.learning_rate = 5e-2f;  // aggressive: will overshoot and trigger stop
  const TrainResult result = Fit(&model, f.splits.train, f.splits.val, tc);
  EXPECT_LT(result.epochs_run, 200);
  // The model must be restored to the best epoch's parameters: its val
  // loss must equal the minimum recorded val loss.
  const double current = DatasetLoss(&model, f.splits.val);
  double best = result.val_loss[0];
  for (double v : result.val_loss) best = std::min(best, v);
  EXPECT_NEAR(current, best, 1e-5);
  EXPECT_EQ(result.val_loss[result.best_epoch - 1], best);
}

TEST(TrainerTest, RegressionTaskUsesMse) {
  datagen::TemperatureConfig gen;
  gen.series_length = 400;
  datagen::TemperatureCohort cohort =
      datagen::GenerateTemperatureTrace(gen);
  Rng rng(4);
  data::DatasetSplits splits = data::SplitDataset(cohort.dataset, rng);
  data::MinMaxNormalizer norm;
  norm.Fit(splits.train);
  norm.Apply(&splits.train);
  norm.Apply(&splits.val);
  norm.Apply(&splits.test);
  baselines::LogisticRegression model(cohort.dataset.num_features());
  TrainConfig tc;
  tc.max_epochs = 30;
  tc.patience = 30;
  tc.learning_rate = 5e-2f;
  Fit(&model, splits.train, splits.val, tc);
  const EvalResult eval = Evaluate(&model, splits.test);
  EXPECT_GT(eval.rmse, 0.0);
  EXPECT_GE(eval.rmse, eval.mae);  // RMSE ≥ MAE always
  EXPECT_EQ(eval.auc, 0.0);        // classification metrics untouched
  // Indoor temperature is highly autocorrelated: the lagged-temperature
  // feature alone makes a linear model quite accurate.
  EXPECT_LT(eval.rmse, 2.0);
}

TEST(TrainerTest, DeterministicGivenSeeds) {
  Fixture f = MakeFixture(200);
  TrainConfig tc;
  tc.max_epochs = 3;
  tc.seed = 11;
  baselines::LogisticRegression m1(f.input_dim, baselines::LrInputMode::kAggregate, 0, 9);
  baselines::LogisticRegression m2(f.input_dim, baselines::LrInputMode::kAggregate, 0, 9);
  const TrainResult r1 = Fit(&m1, f.splits.train, f.splits.val, tc);
  const TrainResult r2 = Fit(&m2, f.splits.train, f.splits.val, tc);
  ASSERT_EQ(r1.train_loss.size(), r2.train_loss.size());
  for (size_t i = 0; i < r1.train_loss.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.train_loss[i], r2.train_loss[i]);
  }
}

TEST(TrainerTest, RepeatFitAfterEvaluateIsBitwiseIdentical) {
  // The benchmark's order within one process: fit a TITV (step arena on),
  // Evaluate it, then fit a fresh TITV from the same seeds. Nothing the
  // first fit or the forward-only evaluation leaves behind (arena blocks,
  // thread-local scopes, freed memory) may leak into the second fit.
  Fixture f = MakeFixture(200);
  core::TitvConfig mc;
  mc.input_dim = f.input_dim;
  mc.rnn_dim = 8;
  mc.film_dim = 8;
  mc.seed = 4;
  TrainConfig tc;
  tc.max_epochs = 3;
  tc.batch_size = 16;
  tc.patience = 0;
  tc.seed = 12;
  core::Titv first(mc);
  const TrainResult r1 = Fit(&first, f.splits.train, f.splits.val, tc);
  const EvalResult eval = Evaluate(&first, f.splits.test);
  EXPECT_GT(eval.auc, 0.0);
  core::Titv second(mc);
  const TrainResult r2 = Fit(&second, f.splits.train, f.splits.val, tc);
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r1.val_loss, r2.val_loss);
  const std::vector<Tensor> s1 = first.StateDict();
  const std::vector<Tensor> s2 = second.StateDict();
  ASSERT_EQ(s1.size(), s2.size());
  for (size_t i = 0; i < s1.size(); ++i) {
    ASSERT_TRUE(s1[i].SameShape(s2[i]));
    EXPECT_EQ(std::memcmp(s1[i].data(), s2[i].data(),
                          sizeof(float) * s1[i].size()),
              0)
        << "parameter " << i << " differs";
  }
}

TEST(TrainerTest, TelemetryEmitsOneValidJsonRecordPerEpoch) {
  Fixture f = MakeFixture(200);
  baselines::LogisticRegression model(f.input_dim);
  TrainConfig tc;
  tc.max_epochs = 4;
  tc.patience = 4;
  tc.telemetry = true;
  const TrainResult result = Fit(&model, f.splits.train, f.splits.val, tc);
  ASSERT_EQ(result.telemetry.size(),
            static_cast<size_t>(result.epochs_run));
  const std::vector<std::string> expected_keys = {
      "event",   "model",          "epoch",         "train_loss",
      "val_loss", "grad_norm",     "examples_per_sec",
      "epoch_seconds", "batches"};
  for (size_t i = 0; i < result.telemetry.size(); ++i) {
    const std::string& line = result.telemetry[i];
    ASSERT_TRUE(testutil::IsValidJson(line)) << line;
    const std::vector<std::string> keys = testutil::JsonObjectKeys(line);
    for (const std::string& key : expected_keys) {
      EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end())
          << "missing key '" << key << "' in: " << line;
    }
    EXPECT_NE(line.find("\"event\":\"epoch\""), std::string::npos) << line;
    // Epochs are 1-based and in order.
    EXPECT_NE(line.find("\"epoch\":" + std::to_string(i + 1)),
              std::string::npos)
        << line;
  }
}

TEST(TrainerTest, TelemetryOffByDefault) {
  // Telemetry is implied by the obs runtime switch; pin it off so the test
  // is deterministic even when run with TRACER_OBS=1 in the environment.
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(false);
  Fixture f = MakeFixture(200);
  baselines::LogisticRegression model(f.input_dim);
  TrainConfig tc;
  tc.max_epochs = 2;
  const TrainResult result = Fit(&model, f.splits.train, f.splits.val, tc);
  EXPECT_TRUE(result.telemetry.empty());
  obs::SetEnabled(was_enabled);
}

TEST(TrainerTest, ProfiledOpTimeIsBoundedByWallTime) {
  Fixture f = MakeFixture(200);
  baselines::LogisticRegression model(f.input_dim);
  TrainConfig tc;
  tc.max_epochs = 3;
  tc.patience = 3;
  obs::AutogradProfiler& profiler = obs::AutogradProfiler::Global();
  profiler.Reset();
  profiler.SetEnabled(true);
  const TrainResult result = Fit(&model, f.splits.train, f.splits.val, tc);
  profiler.SetEnabled(false);
  // Only leaf ops are timed (delegating ops are not), and the trainer is
  // single-threaded, so the per-op total can never exceed the run's wall
  // time.
  EXPECT_GT(profiler.TotalNs(), 0u);
  EXPECT_LE(static_cast<double>(profiler.TotalNs()),
            result.seconds * 1e9);
  profiler.Reset();
}

TEST(TrainerTest, EvaluateClassificationMetrics) {
  Fixture f = MakeFixture();
  baselines::LogisticRegression model(f.input_dim);
  TrainConfig tc;
  tc.max_epochs = 8;
  Fit(&model, f.splits.train, f.splits.val, tc);
  const EvalResult eval = Evaluate(&model, f.splits.test);
  EXPECT_GT(eval.auc, 0.5);
  EXPECT_LE(eval.auc, 1.0);
  EXPECT_GT(eval.cel, 0.0);
  EXPECT_EQ(eval.rmse, 0.0);
}

}  // namespace
}  // namespace train
}  // namespace tracer
