// Tests for explain-on-demand serving (InferenceServer::SubmitExplain):
//  - attributions returned by the serve path are bit-identical to an
//    offline recompute against the same snapshot, for all three methods,
//  - explain batches never coalesce with plain score batches or with
//    explain batches of a different spec,
//  - deadlines are honored (kDeadlineExceeded, never a partial answer),
//  - the interpret.explain fault point converts the batch to kUnavailable
//    and counts a failure,
//  - tracer_interpret_* metrics are exported,
//  - under concurrent hot-swap every response's attributions are exactly
//    the ones its reported model_version produces (snapshot consistency).

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/titv.h"
#include "fault/fault.h"
#include "interpret/adapters.h"
#include "interpret/attribution.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/model_registry.h"
#include "serve/server.h"

namespace tracer {
namespace serve {
namespace {

core::TitvConfig MicroConfig(uint64_t seed = 5, int input_dim = 6) {
  core::TitvConfig config;
  config.input_dim = input_dim;
  config.rnn_dim = 4;
  config.film_dim = 4;
  config.seed = seed;
  return config;
}

uint64_t RegisterFreshModel(ModelRegistry* registry,
                            const core::TitvConfig& config) {
  const core::Titv model(config);
  std::vector<std::pair<std::string, Tensor>> tensors;
  for (const auto& [name, param] : model.NamedParameters()) {
    tensors.emplace_back(name, param.value());
  }
  auto staged = registry->Register(config, std::move(tensors), "<memory>");
  EXPECT_TRUE(staged.ok()) << staged.status().ToString();
  return staged.value();
}

std::vector<std::vector<float>> RandomWindows(int num_windows, int dim,
                                              Rng* rng) {
  std::vector<std::vector<float>> windows(num_windows,
                                          std::vector<float>(dim));
  for (auto& window : windows) {
    for (float& v : window) {
      v = static_cast<float>(rng->Uniform(-1.0, 1.0));
    }
  }
  return windows;
}

// Recomputes the attributions of one request offline, against a fresh
// replica of `version`, with exactly the construction the serve path uses —
// the ground truth a serve explain response must reproduce bit-for-bit.
interpret::AttributionResult OfflineAttribute(
    const ModelRegistry& registry, uint64_t version,
    const std::vector<std::vector<float>>& windows, const ExplainSpec& spec) {
  auto snapshot = registry.Get(version);
  EXPECT_NE(snapshot, nullptr);
  auto replica = snapshot->NewReplica();
  std::vector<Tensor> xs;
  xs.reserve(windows.size());
  for (const auto& window : windows) {
    Tensor x({1, static_cast<int>(window.size())});
    for (size_t j = 0; j < window.size(); ++j) {
      x.at(0, static_cast<int>(j)) = window[j];
    }
    xs.push_back(std::move(x));
  }
  interpret::BaselineBuilder baseline(spec.baseline);
  switch (spec.method) {
    case interpret::Method::kTitvNative: {
      interpret::TitvAttributor attributor(replica.get(),
                                           /*classification=*/true);
      return attributor.Attribute(xs);
    }
    case interpret::Method::kIntegratedGradients: {
      interpret::ModelScorer scorer =
          interpret::WrapSequenceModel(replica.get());
      interpret::IntegratedGradientsOptions ig;
      ig.steps = spec.ig_steps;
      interpret::IntegratedGradients attributor(scorer.tape,
                                                std::move(baseline), ig,
                                                scorer.reset);
      return attributor.Attribute(xs);
    }
    case interpret::Method::kOcclusion: {
      interpret::ModelScorer scorer =
          interpret::WrapSequenceModel(replica.get());
      interpret::Occlusion attributor(scorer.score, std::move(baseline));
      return attributor.Attribute(xs);
    }
  }
  return {};
}

TEST(ServeExplainTest, MatchesOfflineRecomputeForAllMethods) {
  ModelRegistry registry;
  const core::TitvConfig config = MicroConfig(/*seed=*/51);
  const uint64_t version = RegisterFreshModel(&registry, config);
  ASSERT_TRUE(registry.Publish(version).ok());
  InferenceServer server(&registry, ServeOptions{});

  Rng rng(9);
  const auto windows = RandomWindows(/*num_windows=*/4, config.input_dim,
                                     &rng);
  for (const auto& [method, name] :
       {std::pair<interpret::Method, const char*>{
            interpret::Method::kTitvNative, "native"},
        {interpret::Method::kIntegratedGradients, "ig"},
        {interpret::Method::kOcclusion, "occlusion"}}) {
    ExplainSpec spec;
    spec.method = method;
    spec.ig_steps = 6;
    spec.baseline = interpret::BaselineKind::kZero;

    ServeRequest request;
    request.windows = windows;
    const ServeResponse response = server.Explain(std::move(request), spec);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.model_version, version);
    EXPECT_EQ(response.attribution_method, name);

    const interpret::AttributionResult expected =
        OfflineAttribute(registry, version, windows, spec);
    ASSERT_EQ(response.attributions.size(), windows.size());
    for (size_t t = 0; t < windows.size(); ++t) {
      EXPECT_EQ(response.attributions[t], expected.samples[0].fi[t])
          << name << " window " << t
          << " diverged from the offline recompute";
    }
  }
}

TEST(ServeExplainTest, IntegratedGradientsKeepTheTapeAfterScoring) {
  // Scoring runs forward-only (SequenceModel::Score inside a NoGradScope);
  // a later IG pass on the same replica and thread must still record its
  // tape and reproduce the offline attribution bit-for-bit.
  ModelRegistry registry;
  const core::TitvConfig config = MicroConfig(/*seed=*/57);
  const uint64_t version = RegisterFreshModel(&registry, config);
  ASSERT_TRUE(registry.Publish(version).ok());
  Rng rng(17);
  const auto windows = RandomWindows(/*num_windows=*/3, config.input_dim,
                                     &rng);
  ExplainSpec spec;
  spec.method = interpret::Method::kIntegratedGradients;
  spec.ig_steps = 5;
  spec.baseline = interpret::BaselineKind::kZero;
  const interpret::AttributionResult expected =
      OfflineAttribute(registry, version, windows, spec);

  // Directly: Score, then IG, on one replica.
  auto replica = registry.Get(version)->NewReplica();
  std::vector<Tensor> xs;
  std::vector<autograd::Variable> vars;
  for (const auto& window : windows) {
    Tensor x({1, config.input_dim});
    for (int j = 0; j < config.input_dim; ++j) x.at(0, j) = window[j];
    vars.push_back(autograd::Variable::Constant(x));
    xs.push_back(std::move(x));
  }
  const Tensor score = replica->Score(vars, /*classify=*/true);
  EXPECT_TRUE(autograd::GradEnabled());
  interpret::ModelScorer scorer = interpret::WrapSequenceModel(replica.get());
  interpret::IntegratedGradientsOptions ig;
  ig.steps = spec.ig_steps;
  interpret::IntegratedGradients attributor(
      scorer.tape, interpret::BaselineBuilder(spec.baseline), ig,
      scorer.reset);
  const interpret::AttributionResult direct = attributor.Attribute(xs);
  EXPECT_EQ(direct.samples[0].fi, expected.samples[0].fi);

  // Through the server: one worker, so the score batch and the explain
  // batch run on the same thread and the same cached replica.
  ServeOptions options;
  options.num_workers = 1;
  InferenceServer server(&registry, options);
  ServeRequest plain;
  plain.windows = windows;
  const ServeResponse scored = server.Infer(std::move(plain));
  ASSERT_TRUE(scored.status.ok()) << scored.status.ToString();
  EXPECT_EQ(scored.decision.probability, score.at(0, 0));
  ServeRequest request;
  request.windows = windows;
  const ServeResponse response = server.Explain(std::move(request), spec);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.attributions.size(), windows.size());
  for (size_t t = 0; t < windows.size(); ++t) {
    EXPECT_EQ(response.attributions[t], expected.samples[0].fi[t])
        << "window " << t << " diverged from the offline recompute";
  }
}

TEST(ServeExplainTest, RejectsPopulationMeanBaseline) {
  ModelRegistry registry;
  const core::TitvConfig config = MicroConfig();
  ASSERT_TRUE(registry.Publish(RegisterFreshModel(&registry, config)).ok());
  InferenceServer server(&registry, ServeOptions{});

  ExplainSpec spec;
  spec.method = interpret::Method::kOcclusion;
  spec.baseline = interpret::BaselineKind::kPopulationMean;
  ServeRequest request;
  request.windows = {{0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f}};
  const ServeResponse response = server.Explain(std::move(request), spec);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST(ServeExplainTest, PlainScoreResponsesCarryNoAttributions) {
  ModelRegistry registry;
  const core::TitvConfig config = MicroConfig();
  ASSERT_TRUE(registry.Publish(RegisterFreshModel(&registry, config)).ok());
  InferenceServer server(&registry, ServeOptions{});

  Rng rng(3);
  ServeRequest request;
  request.windows = RandomWindows(3, config.input_dim, &rng);
  const ServeResponse response = server.Infer(std::move(request));
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.attributions.empty());
  EXPECT_TRUE(response.attribution_method.empty());
}

// Explain requests only coalesce with identical specs: a window of plain
// scores, native explains and occlusion explains submitted together must
// close as three separate batches of three.
TEST(ServeExplainTest, ExplainBatchesOnlyCoalesceIdenticalSpecs) {
  ModelRegistry registry;
  const core::TitvConfig config = MicroConfig();
  ASSERT_TRUE(registry.Publish(RegisterFreshModel(&registry, config)).ok());

  ServeOptions options;
  options.max_batch_size = 16;
  options.max_queue_delay_us = 30000;
  options.close_on_idle = false;
  InferenceServer server(&registry, options);

  Rng rng(77);
  const auto windows = RandomWindows(3, config.input_dim, &rng);
  ExplainSpec native;
  native.method = interpret::Method::kTitvNative;
  ExplainSpec occlusion;
  occlusion.method = interpret::Method::kOcclusion;

  std::vector<std::future<ServeResponse>> plain;
  std::vector<std::future<ServeResponse>> natives;
  std::vector<std::future<ServeResponse>> occlusions;
  for (int i = 0; i < 3; ++i) {
    ServeRequest request;
    request.windows = windows;
    plain.push_back(server.Submit(std::move(request)));
    ServeRequest native_request;
    native_request.windows = windows;
    natives.push_back(server.SubmitExplain(std::move(native_request),
                                           native));
    ServeRequest occlusion_request;
    occlusion_request.windows = windows;
    occlusions.push_back(
        server.SubmitExplain(std::move(occlusion_request), occlusion));
  }
  for (auto& future : plain) {
    const ServeResponse response = future.get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.batch_size, 3);
    EXPECT_TRUE(response.attributions.empty());
  }
  for (auto& future : natives) {
    const ServeResponse response = future.get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.batch_size, 3);
    EXPECT_EQ(response.attribution_method, "native");
  }
  for (auto& future : occlusions) {
    const ServeResponse response = future.get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.batch_size, 3);
    EXPECT_EQ(response.attribution_method, "occlusion");
  }
  EXPECT_EQ(server.stats().batches, 3);
}

TEST(ServeExplainTest, ExpiredDeadlinesCompleteWithDeadlineExceeded) {
  ModelRegistry registry;
  const core::TitvConfig config = MicroConfig();
  ASSERT_TRUE(registry.Publish(RegisterFreshModel(&registry, config)).ok());

  ServeOptions options;
  options.max_batch_size = 1;
  options.num_workers = 1;
  InferenceServer server(&registry, options);

  Rng rng(7);
  ServeRequest healthy;
  healthy.windows = RandomWindows(4, config.input_dim, &rng);
  auto first = server.SubmitExplain(std::move(healthy), ExplainSpec{});

  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 10; ++i) {
    ServeRequest request;
    request.windows = RandomWindows(4, config.input_dim, &rng);
    request.deadline_ns = obs::MonotonicNowNs() - 1;
    futures.push_back(server.SubmitExplain(std::move(request),
                                           ExplainSpec{}));
  }
  EXPECT_TRUE(first.get().status.ok());
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status.code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(ServeExplainTest, FaultPointFailsExplainWithUnavailable) {
  obs::SetEnabled(true);
  ModelRegistry registry;
  const core::TitvConfig config = MicroConfig();
  ASSERT_TRUE(registry.Publish(RegisterFreshModel(&registry, config)).ok());
  InferenceServer server(&registry, ServeOptions{});

  Rng rng(19);
  auto& faults = fault::FaultRegistry::Global();
  ASSERT_TRUE(faults.Configure("interpret.explain:1:0").ok());
  ServeRequest request;
  request.windows = RandomWindows(3, config.input_dim, &rng);
  const ServeResponse failed = server.Explain(std::move(request),
                                              ExplainSpec{});
  EXPECT_EQ(failed.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(failed.attributions.empty());
  EXPECT_GE(faults.FireCount("interpret.explain"), 1);
  faults.Clear();
  obs::SetEnabled(false);

  // Plain scoring is unaffected by the armed point, and clearing it
  // restores explains.
  ServeRequest scored;
  scored.windows = RandomWindows(3, config.input_dim, &rng);
  EXPECT_TRUE(server.Infer(std::move(scored)).status.ok());
  ServeRequest retried;
  retried.windows = RandomWindows(3, config.input_dim, &rng);
  EXPECT_TRUE(server.Explain(std::move(retried), ExplainSpec{}).status.ok());

  const std::string dump = obs::MetricsRegistry::Global().ExportPrometheus();
  EXPECT_NE(dump.find("tracer_interpret_failures_total"), std::string::npos);
}

TEST(ServeExplainTest, ExplainExportsTracerInterpretMetrics) {
  obs::SetEnabled(true);
  ModelRegistry registry;
  const core::TitvConfig config = MicroConfig();
  ASSERT_TRUE(registry.Publish(RegisterFreshModel(&registry, config)).ok());
  {
    InferenceServer server(&registry, ServeOptions{});
    Rng rng(23);
    for (int i = 0; i < 3; ++i) {
      ServeRequest request;
      request.windows = RandomWindows(3, config.input_dim, &rng);
      EXPECT_TRUE(
          server.Explain(std::move(request), ExplainSpec{}).status.ok());
    }
  }
  obs::SetEnabled(false);

  const std::string dump = obs::MetricsRegistry::Global().ExportPrometheus();
  for (const char* metric :
       {"tracer_interpret_requests_total", "tracer_interpret_latency_ns"}) {
    EXPECT_NE(dump.find(metric), std::string::npos)
        << metric << " missing from export";
  }
}

// Snapshot consistency: while Publish flips the live version under
// concurrent explain traffic, every response's attributions must be
// exactly the ones its reported model_version computes — never a blend of
// the score of one snapshot with the attributions of another.
TEST(ServeExplainTest, HotSwapKeepsAttributionsOnTheScoredSnapshot) {
  ModelRegistry registry;
  const uint64_t v1 = RegisterFreshModel(&registry, MicroConfig(/*seed=*/61));
  const uint64_t v2 = RegisterFreshModel(&registry, MicroConfig(/*seed=*/62));
  ASSERT_TRUE(registry.Publish(v1).ok());

  ExplainSpec spec;
  spec.method = interpret::Method::kIntegratedGradients;
  spec.ig_steps = 4;
  spec.baseline = interpret::BaselineKind::kZero;

  Rng rng(45);
  const auto input = RandomWindows(5, MicroConfig().input_dim, &rng);
  const interpret::AttributionResult expected_v1 =
      OfflineAttribute(registry, v1, input, spec);
  const interpret::AttributionResult expected_v2 =
      OfflineAttribute(registry, v2, input, spec);
  ASSERT_NE(expected_v1.samples[0].fi, expected_v2.samples[0].fi);

  ServeOptions options;
  options.max_batch_size = 8;
  options.num_workers = 2;
  InferenceServer server(&registry, options);

  std::atomic<bool> done{false};
  std::thread swapper([&] {
    int round = 0;
    while (!done.load()) {
      ASSERT_TRUE(registry.Publish(round % 2 == 0 ? v2 : v1).ok());
      ++round;
      std::this_thread::yield();
    }
  });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        ServeRequest request;
        request.windows = input;
        const ServeResponse response = server.Explain(std::move(request),
                                                      spec);
        ASSERT_TRUE(response.status.ok()) << response.status.ToString();
        const interpret::AttributionResult& expected =
            response.model_version == v1 ? expected_v1 : expected_v2;
        if (response.attributions != expected.samples[0].fi) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  done.store(true);
  swapper.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "attributions were computed against a different snapshot than the "
         "one that scored the request";
}

}  // namespace
}  // namespace serve
}  // namespace tracer
