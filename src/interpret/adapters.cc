#include "interpret/adapters.h"

#include <numeric>
#include <vector>

#include "common/macros.h"

namespace tracer {
namespace interpret {

ModelScorer WrapSequenceModel(nn::SequenceModel* model) {
  TRACER_CHECK(model != nullptr);
  ModelScorer scorer;
  scorer.tape = [model](const std::vector<autograd::Variable>& xs) {
    return model->Forward(xs);
  };
  scorer.score = [model](const std::vector<Tensor>& xs) {
    std::vector<autograd::Variable> vars;
    vars.reserve(xs.size());
    for (const Tensor& x : xs) {
      vars.push_back(autograd::Variable::Constant(x));
    }
    return model->ScoreRaw(vars);
  };
  scorer.reset = [model]() {
    std::vector<autograd::Variable> params = model->Parameters();
    for (autograd::Variable& p : params) p.ZeroGrad();
  };
  return scorer;
}

ScoreFn WrapGbdt(const baselines::Gbdt* model) {
  TRACER_CHECK(model != nullptr);
  return [model](const std::vector<Tensor>& xs) {
    TRACER_CHECK(!xs.empty());
    const int T = static_cast<int>(xs.size());
    const int B = xs[0].rows();
    const int D = xs[0].cols();
    // The same over-time averaging the baseline trains on
    // (baselines::AggregateOverTime), applied to the window layout.
    baselines::TabularData data;
    data.num_rows = B;
    data.num_cols = D;
    data.values.resize(static_cast<size_t>(B) * D);
    data.labels.assign(B, 0.0f);
    for (int b = 0; b < B; ++b) {
      for (int d = 0; d < D; ++d) {
        double sum = 0.0;
        for (int t = 0; t < T; ++t) sum += xs[t].at(b, d);
        data.values[static_cast<size_t>(b) * D + d] =
            static_cast<float>(sum / T);
      }
    }
    const std::vector<float> raw = model->PredictRaw(data);
    Tensor out({B, 1});
    for (int b = 0; b < B; ++b) out.at(b, 0) = raw[b];
    return out;
  };
}

TitvAttributor::TitvAttributor(core::Titv* model, bool classification)
    : model_(model), classification_(classification) {
  TRACER_CHECK(model_ != nullptr);
}

AttributionResult TitvAttributor::Attribute(const std::vector<Tensor>& xs) {
  TRACER_CHECK(!xs.empty());
  const int T = static_cast<int>(xs.size());
  const int B = xs[0].rows();
  const int D = xs[0].cols();

  data::Batch batch;
  batch.xs = xs;
  batch.labels = Tensor::Zeros({B, 1});
  batch.sample_indices.resize(B);
  std::iota(batch.sample_indices.begin(), batch.sample_indices.end(), 0);

  const core::FeatureImportanceTrace trace =
      model_->ComputeFeatureImportance(batch, classification_);

  AttributionResult result;
  result.method = Method::kTitvNative;
  result.num_windows = T;
  result.num_features = D;
  result.samples.resize(B);
  for (int b = 0; b < B; ++b) {
    SampleAttribution& sample = result.samples[b];
    sample.score = trace.outputs.at(b, 0);
    sample.baseline_score = 0.0f;
    sample.fi.assign(T, std::vector<float>(D, 0.0f));
    for (int t = 0; t < T; ++t) {
      for (int d = 0; d < D; ++d) sample.fi[t][d] = trace.fi[t].at(b, d);
    }
  }
  return result;
}

}  // namespace interpret
}  // namespace tracer
