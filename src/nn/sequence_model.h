#ifndef TRACER_NN_SEQUENCE_MODEL_H_
#define TRACER_NN_SEQUENCE_MODEL_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/module.h"

namespace tracer {
namespace nn {

/// Common interface of every trainable time-series model in this repo (TITV
/// and the gradient-trained baselines). A model maps the T input windows to
/// one raw output per sample: a logit for binary classification, a real
/// prediction for regression. The trainer applies the task-appropriate loss
/// and output activation.
class SequenceModel : public Module {
 public:
  /// xs[t] is the B×D matrix of time window t. Returns B×1 raw outputs.
  virtual autograd::Variable Forward(
      const std::vector<autograd::Variable>& xs) = 0;

  /// Display name used in result tables ("TRACER", "RETAIN", ...).
  virtual std::string name() const = 0;

  /// Wraps a batch's windows as constant variables.
  static std::vector<autograd::Variable> ToVariables(const data::Batch& batch);

  /// Forward-only evaluation: Forward inside an autograd::NoGradScope, so
  /// no tape is recorded and each intermediate is freed as soon as it is
  /// consumed. Returns the B×1 raw outputs (logits for classification),
  /// bitwise equal to Forward(xs).value().
  Tensor ScoreRaw(const std::vector<autograd::Variable>& xs);

  /// The one forward-only scoring path (Predict, the server, occlusion):
  /// ScoreRaw passed through a sigmoid when `classify`, else through the
  /// affine output transform (see SetOutputTransform).
  Tensor Score(const std::vector<autograd::Variable>& xs, bool classify);

  /// Model outputs over a whole dataset, in sample order, scored (see
  /// Score) in minibatches: probabilities for classification, transformed
  /// predictions for regression.
  std::vector<float> Predict(const data::TimeSeriesDataset& dataset,
                             int batch_size = 256);

  /// Affine output calibration for regression: the effective prediction is
  /// scale·raw + offset. The trainer standardises regression targets and
  /// stores (σ, μ) here so the network itself learns a zero-mean,
  /// unit-variance quantity — without this, targets far from zero (e.g.
  /// indoor temperatures around 21 °C) cost thousands of optimizer steps
  /// just to move the output bias. Identity by default; ignored by
  /// classification.
  void SetOutputTransform(float scale, float offset) {
    output_scale_ = scale;
    output_offset_ = offset;
  }
  float output_scale() const { return output_scale_; }
  float output_offset() const { return output_offset_; }

 private:
  float output_scale_ = 1.0f;
  float output_offset_ = 0.0f;
};

}  // namespace nn
}  // namespace tracer

#endif  // TRACER_NN_SEQUENCE_MODEL_H_
