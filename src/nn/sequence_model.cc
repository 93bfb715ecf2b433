#include "nn/sequence_model.h"

#include <numeric>
#include <utility>

#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace tracer {
namespace nn {

std::vector<autograd::Variable> SequenceModel::ToVariables(
    const data::Batch& batch) {
  std::vector<autograd::Variable> xs;
  xs.reserve(batch.xs.size());
  for (const Tensor& x : batch.xs) {
    xs.push_back(autograd::Variable::Constant(x));
  }
  return xs;
}

Tensor SequenceModel::ScoreRaw(const std::vector<autograd::Variable>& xs) {
  const autograd::NoGradScope no_grad;
  autograd::Variable raw = Forward(xs);
  return std::move(raw.mutable_value());
}

Tensor SequenceModel::Score(const std::vector<autograd::Variable>& xs,
                            bool classify) {
  const Tensor raw = ScoreRaw(xs);
  return classify ? tracer::Sigmoid(raw)
                  : tracer::AddScalar(tracer::Scale(raw, output_scale_),
                                      output_offset_);
}

std::vector<float> SequenceModel::Predict(
    const data::TimeSeriesDataset& dataset, int batch_size) {
  std::vector<float> out;
  out.reserve(dataset.num_samples());
  std::vector<int> indices(dataset.num_samples());
  std::iota(indices.begin(), indices.end(), 0);
  const bool classify =
      dataset.task() == data::TaskType::kBinaryClassification;
  for (size_t begin = 0; begin < indices.size();
       begin += static_cast<size_t>(batch_size)) {
    const size_t end = std::min(indices.size(),
                                begin + static_cast<size_t>(batch_size));
    const std::vector<int> batch_idx(indices.begin() + begin,
                                     indices.begin() + end);
    const data::Batch batch = data::MakeBatch(dataset, batch_idx);
    const Tensor scores = Score(ToVariables(batch), classify);
    for (int b = 0; b < scores.rows(); ++b) out.push_back(scores.at(b, 0));
  }
  return out;
}

}  // namespace nn
}  // namespace tracer
