#include "core/titv.h"

#include "autograd/ops.h"
#include "common/macros.h"
#include "tensor/tensor_ops.h"

namespace tracer {
namespace core {

using autograd::Variable;

namespace {

bool UsesInvariantModule(TitvAblation ablation) {
  return ablation != TitvAblation::kVariantOnly;
}

bool UsesVariantModule(TitvAblation ablation) {
  return ablation != TitvAblation::kInvariantOnly;
}

bool ModulatesInput(TitvAblation ablation) {
  return UsesInvariantModule(ablation) &&
         UsesVariantModule(ablation) &&
         ablation != TitvAblation::kNoFilmModulation;
}

}  // namespace

Titv::Titv(const TitvConfig& config) : config_(config) {
  TRACER_CHECK_GT(config.input_dim, 0);
  TRACER_CHECK_GT(config.rnn_dim, 0);
  TRACER_CHECK_GT(config.film_dim, 0);
  Rng rng(config.seed);
  const int d = config.input_dim;
  if (UsesInvariantModule(config.ablation)) {
    invariant_rnn_ = std::make_unique<nn::BiGru>(d, config.film_dim, rng);
    film_beta_ = std::make_unique<nn::Linear>(2 * config.film_dim, d, rng);
    film_theta_ = std::make_unique<nn::Linear>(2 * config.film_dim, d, rng);
    // FiLM identity initialisation (standard for conditioning layers):
    // start with β ≈ 1, θ ≈ 0 so the modulated input x̃ = β⊙x + θ begins as
    // x itself and ξ_t = β ⊕ α_t starts near 1 — without this the context
    // vector starts near zero and training stalls for many epochs.
    if (config.film_identity_init) {
      film_beta_->bias().mutable_value().Fill(1.0f);
    }
    AddSubmodule("invariant_rnn", invariant_rnn_.get());
    AddSubmodule("film_beta", film_beta_.get());
    AddSubmodule("film_theta", film_theta_.get());
  }
  if (UsesVariantModule(config.ablation)) {
    variant_rnn_ = std::make_unique<nn::BiGru>(d, config.rnn_dim, rng);
    attention_ = std::make_unique<nn::Linear>(2 * config.rnn_dim, d, rng);
    AddSubmodule("variant_rnn", variant_rnn_.get());
    AddSubmodule("attention", attention_.get());
  }
  output_ = std::make_unique<nn::Linear>(d, 1, rng);
  AddSubmodule("output", output_.get());
}

std::string Titv::name() const {
  switch (config_.ablation) {
    case TitvAblation::kFull:
      return "TRACER";
    case TitvAblation::kInvariantOnly:
      return "TRACERinv";
    case TitvAblation::kVariantOnly:
      return "TRACERvar";
    case TitvAblation::kNoFilmModulation:
      return "TRACER-noFiLM";
    case TitvAblation::kNoBetaInPrediction:
      return "TRACER-noBetaPred";
    case TitvAblation::kMultiplicativeCombine:
      return "TRACER-mulCombine";
    case TitvAblation::kLastStateSummary:
      return "TRACER-lastSummary";
  }
  return "TRACER";
}

Titv::ModulationOutputs Titv::RunTimeInvariant(
    const std::vector<Variable>& xs) const {
  ModulationOutputs out;
  if (!UsesInvariantModule(config_.ablation)) return out;
  // Eq. 1: q_t = BIRNN(x_1..x_T).
  const std::vector<Variable> qs = invariant_rnn_->Run(xs);
  // Eq. 2: s = mean_t q_t (or the last state under the ablation).
  const Variable s = config_.ablation == TitvAblation::kLastStateSummary
                         ? qs.back()
                         : autograd::Average(qs);
  // Eq. 3–4: the FiLM generator.
  out.beta = film_beta_->Forward(s);
  out.theta = film_theta_->Forward(s);
  out.has_value = true;
  return out;
}

Variable Titv::Forward(const std::vector<Variable>& xs) {
  TRACER_CHECK(!xs.empty());
  TRACER_CHECK_EQ(xs[0].value().cols(), config_.input_dim);
  const TitvAblation ablation = config_.ablation;
  const ModulationOutputs mod = RunTimeInvariant(xs);

  // Time-Variant Module (Eq. 5–11).
  std::vector<Variable> alphas;
  if (UsesVariantModule(ablation)) {
    std::vector<Variable> inputs;
    inputs.reserve(xs.size());
    if (ModulatesInput(ablation)) {
      // Eq. 10 applied inside Eq. 6–8: x̃_t = β ⊙ x_t + θ (feature-wise
      // affine transformation of the input, §4.1).
      for (const Variable& x : xs) {
        inputs.push_back(autograd::Add(autograd::Mul(mod.beta, x),
                                       mod.theta));
      }
    } else {
      inputs = xs;
    }
    const std::vector<Variable> hs = variant_rnn_->Run(inputs);
    // Eq. 11: α_t = tanh(W_α h_t + b_α), with all timesteps stacked into
    // one attention GEMM. Row stacking keeps every output element's
    // accumulation chain, so each slice equals the per-t projection.
    const int rows = hs[0].value().rows();
    const Variable a_all =
        autograd::Tanh(attention_->Forward(autograd::ConcatRows(hs)));
    alphas.reserve(hs.size());
    for (size_t t = 0; t < hs.size(); ++t) {
      alphas.push_back(autograd::SliceRows(
          a_all, static_cast<int>(t) * rows,
          static_cast<int>(t + 1) * rows));
    }
  }

  // Prediction Module (Eq. 12–14).
  Variable context;
  for (size_t t = 0; t < xs.size(); ++t) {
    Variable xi;  // ξ_t
    switch (ablation) {
      case TitvAblation::kInvariantOnly:
        xi = mod.beta;
        break;
      case TitvAblation::kVariantOnly:
      case TitvAblation::kNoBetaInPrediction:
        xi = alphas[t];
        break;
      case TitvAblation::kMultiplicativeCombine:
        xi = autograd::Mul(mod.beta, alphas[t]);
        break;
      default:
        xi = autograd::Add(mod.beta, alphas[t]);  // Eq. 12: ξ_t = β ⊕ α_t
    }
    const Variable term = autograd::Mul(xi, xs[t]);  // ξ_t ⊙ x_t
    context = t == 0 ? term : autograd::Add(context, term);  // Eq. 13
  }
  // Eq. 14 pre-activation: ⟨w, c⟩ + b. The sigmoid (classification) is
  // applied by the loss / Predict for numerical stability.
  return output_->Forward(context);
}

FeatureImportanceTrace Titv::ComputeFeatureImportance(
    const data::Batch& batch, bool classification) {
  // Reads values only, so it records no tape.
  const autograd::NoGradScope no_grad;
  const std::vector<Variable> xs = nn::SequenceModel::ToVariables(batch);
  const int batch_size = batch.batch_size();
  const int num_windows = static_cast<int>(xs.size());
  const int d = config_.input_dim;

  const ModulationOutputs mod = RunTimeInvariant(xs);

  FeatureImportanceTrace trace;
  trace.beta = mod.has_value ? mod.beta.value()
                             : Tensor::Zeros({batch_size, d});
  trace.w = output_->weight().value();  // D×1

  // Recompute α_t exactly as Forward does.
  std::vector<Tensor> alphas;
  if (UsesVariantModule(config_.ablation)) {
    std::vector<Variable> inputs;
    if (ModulatesInput(config_.ablation)) {
      for (const Variable& x : xs) {
        inputs.push_back(autograd::Add(autograd::Mul(mod.beta, x),
                                       mod.theta));
      }
    } else {
      inputs = xs;
    }
    const std::vector<Variable> hs = variant_rnn_->Run(inputs);
    const int rows = hs[0].value().rows();
    const Variable a_all =
        autograd::Tanh(attention_->Forward(autograd::ConcatRows(hs)));
    for (size_t t = 0; t < hs.size(); ++t) {
      alphas.push_back(tracer::SliceRows(a_all.value(),
                                         static_cast<int>(t) * rows,
                                         static_cast<int>(t + 1) * rows));
    }
  } else {
    alphas.assign(num_windows, Tensor::Zeros({batch_size, d}));
  }
  trace.alpha = alphas;

  // Eq. 17: FI(ŷ, x_{t,d}) = ξ_{t,d} · w_d, with ξ matching the active
  // ablation (β + α, β, α or β ⊙ α).
  trace.fi.reserve(num_windows);
  Tensor context({batch_size, d});
  // For regression the effective prediction is scale·raw + offset, so each
  // feature's contribution carries the scale factor.
  const float fi_scale = classification ? 1.0f : output_scale();
  for (int t = 0; t < num_windows; ++t) {
    Tensor fi({batch_size, d});
    for (int b = 0; b < batch_size; ++b) {
      for (int j = 0; j < d; ++j) {
        float xi;
        switch (config_.ablation) {
          case TitvAblation::kInvariantOnly:
            xi = trace.beta.at(b, j);
            break;
          case TitvAblation::kVariantOnly:
          case TitvAblation::kNoBetaInPrediction:
            xi = alphas[t].at(b, j);
            break;
          case TitvAblation::kMultiplicativeCombine:
            xi = trace.beta.at(b, j) * alphas[t].at(b, j);
            break;
          default:
            xi = trace.beta.at(b, j) + alphas[t].at(b, j);
        }
        fi.at(b, j) = xi * trace.w.at(j, 0) * fi_scale;
        context.at(b, j) += xi * batch.xs[t].at(b, j);
      }
    }
    trace.fi.push_back(std::move(fi));
  }

  // Eq. 18: ŷ = σ(Σ_t Σ_d FI·x + b); reuse the context to produce outputs.
  Tensor logits = tracer::MatMul(context, trace.w);
  const Tensor& bias = output_->bias().value();
  for (int b = 0; b < batch_size; ++b) logits.at(b, 0) += bias.at(0, 0);
  trace.outputs =
      classification
          ? tracer::Sigmoid(logits)
          : tracer::AddScalar(tracer::Scale(logits, output_scale()),
                              output_offset());
  return trace;
}

}  // namespace core
}  // namespace tracer
