// Property-based stress tests for the autograd engine: random expression
// DAGs built from the op library must match finite differences, regardless
// of shape, depth and sharing. Also the NoGradScope contract: forward-only
// regions record no tape, yet produce the taped values bitwise.

#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "baselines/birnn_model.h"
#include "baselines/dipole.h"
#include "baselines/retain.h"
#include "common/rng.h"
#include "core/titv.h"
#include "tensor/tensor_ops.h"

namespace tracer {
namespace autograd {
namespace {

// Builds a random scalar-valued expression over `leaves` (all same shape)
// by repeatedly combining intermediate values with random ops. Reuses
// intermediates, so the graph is a DAG with sharing, not a tree.
Variable RandomExpression(const std::vector<Variable>& leaves, Rng& rng,
                          int ops) {
  std::vector<Variable> pool = leaves;
  for (int k = 0; k < ops; ++k) {
    const Variable& a = pool[rng.UniformInt(pool.size())];
    const Variable& b = pool[rng.UniformInt(pool.size())];
    Variable next;
    switch (rng.UniformInt(7)) {
      case 0:
        next = Add(a, b);
        break;
      case 1:
        next = Sub(a, b);
        break;
      case 2:
        next = Mul(a, b);
        break;
      case 3:
        next = Tanh(a);
        break;
      case 4:
        next = Sigmoid(a);
        break;
      case 5:
        next = Scale(a, static_cast<float>(rng.Uniform(-2.0, 2.0)));
        break;
      default:
        next = AddScalar(a, static_cast<float>(rng.Uniform(-1.0, 1.0)));
    }
    pool.push_back(next);
  }
  // Always mix in the first leaf so the output depends on a trainable
  // parameter even when the random walk ends on a constant-only branch.
  return MeanAll(Add(pool.back(), Scale(leaves[0], 0.5f)));
}

class RandomGraphTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGraphTest, MatchesFiniteDifferences) {
  Rng rng(GetParam());
  Variable p0 = Variable::Parameter(Tensor::Randn({2, 3}, rng, 0.4f));
  Variable p1 = Variable::Parameter(Tensor::Randn({2, 3}, rng, 0.4f));
  Variable c = Variable::Constant(Tensor::Randn({2, 3}, rng, 0.4f));
  Rng graph_rng(GetParam() + 1000);
  // The same graph must be rebuilt identically inside the checker, so
  // capture the construction in a deterministic closure.
  auto forward = [&]() {
    Rng local(GetParam() + 2000);
    return RandomExpression({p0, p1, c}, local, 12);
  };
  EXPECT_LT(MaxGradError(forward, p0), 5e-2f);
  EXPECT_LT(MaxGradError(forward, p1), 5e-2f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(AutogradStressTest, DeepChainGradientIsStable) {
  // 100 tanh compositions: gradients must stay finite (saturating but not
  // NaN/inf).
  Variable x = Variable::Parameter(Tensor::Full({1, 4}, 0.3f));
  Variable y = x;
  for (int i = 0; i < 100; ++i) y = Tanh(y);
  MeanAll(y).Backward();
  for (int64_t i = 0; i < x.grad().size(); ++i) {
    EXPECT_TRUE(std::isfinite(x.grad()[i]));
  }
}

TEST(AutogradStressTest, WideFanOutAccumulates) {
  // One parameter consumed by 64 branches: gradient = sum over branches.
  Variable x = Variable::Parameter(Tensor::Full({1, 1}, 2.0f));
  Variable acc;
  for (int i = 0; i < 64; ++i) {
    const Variable branch = Scale(x, 1.0f);
    acc = i == 0 ? branch : Add(acc, branch);
  }
  SumAll(acc).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 64.0f);
}

// --- Per-op finite-difference coverage -------------------------------------
//
// Every differentiable op in autograd/ops.h appears below exactly once, so
// a new op cannot ship without finite-difference verification: add a case
// here when adding an op (the graph validator's shape rules in
// graph_check.cc should gain a matching entry too).

struct OpGradCase {
  const char* name;
  std::vector<int> shape_a;
  std::vector<int> shape_b;
  /// Builds a scalar expression exercising the op from two parameters.
  Variable (*build)(const Variable& a, const Variable& b);
};

// Fixed targets for the loss ops (shapes match BuildBce/BuildMse below).
Tensor BceTargets() { return Tensor({4, 1}, {0.0f, 1.0f, 1.0f, 0.0f}); }
Tensor MseTargets() { return Tensor({4, 1}, {0.2f, -0.5f, 1.3f, 0.0f}); }

std::vector<OpGradCase> AllOpCases() {
  return {
      {"MatMul", {2, 3}, {3, 4},
       [](const Variable& a, const Variable& b) {
         return MeanAll(MatMul(a, b));
       }},
      {"BatchMatMul", {2, 3, 4}, {2, 4, 5},
       [](const Variable& a, const Variable& b) {
         return MeanAll(BatchMatMul(a, b));
       }},
      {"BatchMatMulBroadcastB", {3, 2, 4}, {4, 5},
       [](const Variable& a, const Variable& b) {
         // Rank-2 B shared by every slice: its gradient reduces over the
         // batch in ascending slice order.
         return MeanAll(BatchMatMul(a, b));
       }},
      {"BatchMatMulBatch1", {1, 3, 4}, {1, 4, 5},
       [](const Variable& a, const Variable& b) {
         return MeanAll(BatchMatMul(a, b));
       }},
      {"ConcatRows", {3, 4}, {2, 4},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Tanh(ConcatRows({a, b, a})));
       }},
      {"SliceRows", {5, 3}, {5, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(SliceRows(Mul(a, b), 1, 4));
       }},
      {"Reshape", {2, 6}, {2, 6},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Tanh(Reshape(Mul(a, b), {3, 4})));
       }},
      {"Add", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Add(a, b));
       }},
      {"Sub", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Sub(a, b));
       }},
      {"Mul", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Mul(a, b));
       }},
      {"AddRows", {3, 4}, {1, 4},
       [](const Variable& a, const Variable& b) {
         return MeanAll(AddRows(Tanh(a), b));
       }},
      {"MulColBroadcast", {3, 4}, {3, 1},
       [](const Variable& a, const Variable& b) {
         return MeanAll(MulColBroadcast(a, b));
       }},
      {"Scale", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Scale(Mul(a, b), 1.7f));
       }},
      {"AddScalar", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(AddScalar(Mul(a, b), -0.4f));
       }},
      {"Neg", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Neg(Mul(a, b)));
       }},
      {"OneMinus", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(OneMinus(Mul(a, b)));
       }},
      {"Sigmoid", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Sigmoid(Mul(a, b)));
       }},
      {"Tanh", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Tanh(Mul(a, b)));
       }},
      {"Relu", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         // Shifted away from the kink at 0: central differences straddling
         // it would disagree with the subgradient.
         return MeanAll(Relu(AddScalar(Mul(a, b), 1.5f)));
       }},
      {"ConcatCols", {3, 2}, {3, 4},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Tanh(ConcatCols(a, b)));
       }},
      {"ConcatColsMany", {3, 2}, {3, 2},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Sigmoid(ConcatColsMany({a, b, a})));
       }},
      {"SliceCols", {3, 5}, {3, 5},
       [](const Variable& a, const Variable& b) {
         return MeanAll(SliceCols(Mul(a, b), 1, 4));
       }},
      {"SoftmaxRows", {3, 4}, {3, 4},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Mul(SoftmaxRows(a), b));
       }},
      {"RowSums", {3, 4}, {3, 4},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Tanh(RowSums(Mul(a, b))));
       }},
      {"MeanAll", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Mul(a, b));
       }},
      {"SumAll", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return SumAll(Scale(Mul(a, b), 0.1f));
       }},
      {"Average", {2, 3}, {2, 3},
       [](const Variable& a, const Variable& b) {
         return MeanAll(Average({a, b, Mul(a, b)}));
       }},
      {"BinaryCrossEntropyWithLogits", {4, 1}, {4, 1},
       [](const Variable& a, const Variable& b) {
         return BinaryCrossEntropyWithLogits(Mul(a, b), BceTargets());
       }},
      {"MeanSquaredError", {4, 1}, {4, 1},
       [](const Variable& a, const Variable& b) {
         return MeanSquaredError(Mul(a, b), MseTargets());
       }},
  };
}

class OpGradCheckTest : public ::testing::TestWithParam<OpGradCase> {};

TEST_P(OpGradCheckTest, MatchesFiniteDifferences) {
  const OpGradCase& op_case = GetParam();
  Rng rng(99);
  Variable a =
      Variable::Parameter(Tensor::Randn(op_case.shape_a, rng, 0.5f));
  Variable b =
      Variable::Parameter(Tensor::Randn(op_case.shape_b, rng, 0.5f));
  auto forward = [&] { return op_case.build(a, b); };
  EXPECT_LT(MaxGradError(forward, a), 5e-2f) << op_case.name << " d/da";
  EXPECT_LT(MaxGradError(forward, b), 5e-2f) << op_case.name << " d/db";
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradCheckTest, ::testing::ValuesIn(AllOpCases()),
    [](const ::testing::TestParamInfo<OpGradCase>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(AutogradStressTest, RepeatedBackwardWithZeroGradIsIdempotent) {
  Rng rng(11);
  Variable x = Variable::Parameter(Tensor::Randn({3, 3}, rng));
  for (int round = 0; round < 3; ++round) {
    x.ZeroGrad();
    Variable y = MeanAll(Mul(x, x));
    y.Backward();
  }
  // After the final round the gradient equals 2x/9 exactly once.
  for (int64_t i = 0; i < x.grad().size(); ++i) {
    EXPECT_NEAR(x.grad()[i], 2.0f * x.value()[i] / 9.0f, 1e-5f);
  }
}

TEST(NoGradScopeTest, OpsInsideRecordNoParentsOrClosure) {
  Rng rng(3);
  Variable w = Variable::Parameter(Tensor::Randn({3, 3}, rng));
  EXPECT_TRUE(GradEnabled());
  {
    const NoGradScope no_grad;
    EXPECT_FALSE(GradEnabled());
    const Variable y = Tanh(MatMul(w, w));
    EXPECT_FALSE(y.requires_grad());
    EXPECT_TRUE(y.node()->forward_only);
    EXPECT_TRUE(y.node()->parents.empty());
    EXPECT_FALSE(y.node()->backward_fn);
  }
  EXPECT_TRUE(GradEnabled());
  const Variable taped = Tanh(MatMul(w, w));
  EXPECT_TRUE(taped.requires_grad());
  EXPECT_FALSE(taped.node()->forward_only);
  EXPECT_EQ(taped.node()->parents.size(), 1u);
  EXPECT_TRUE(taped.node()->backward_fn);
}

TEST(NoGradScopeTest, NestedScopesRestoreTheOuterState) {
  EXPECT_TRUE(GradEnabled());
  {
    const NoGradScope outer;
    {
      const NoGradScope inner;
      EXPECT_FALSE(GradEnabled());
    }
    EXPECT_FALSE(GradEnabled());
  }
  EXPECT_TRUE(GradEnabled());
}

TEST(NoGradScopeTest, OtherThreadsStillRecordTheTape) {
  Rng rng(4);
  Variable w = Variable::Parameter(Tensor::Randn({2, 2}, rng));
  const NoGradScope no_grad;
  bool enabled = false;
  bool taped = false;
  std::thread other([&] {
    enabled = GradEnabled();
    const Variable y = Tanh(w);
    taped = y.requires_grad() && !y.node()->parents.empty();
  });
  other.join();
  EXPECT_TRUE(enabled);
  EXPECT_TRUE(taped);
  EXPECT_FALSE(GradEnabled());
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

TEST(NoGradScopeTest, ForwardInsideScopeIsBitwiseTheTapedValue) {
  constexpr int kWindows = 4, kBatch = 3, kDim = 5, kHidden = 6;
  Rng rng(9);
  std::vector<Variable> xs;
  for (int t = 0; t < kWindows; ++t) {
    xs.push_back(Variable::Constant(Tensor::Randn({kBatch, kDim}, rng)));
  }
  core::TitvConfig titv_config;
  titv_config.input_dim = kDim;
  titv_config.rnn_dim = kHidden;
  titv_config.film_dim = kHidden;
  std::vector<std::unique_ptr<nn::SequenceModel>> models;
  models.push_back(std::make_unique<core::Titv>(titv_config));
  models.push_back(std::make_unique<baselines::BirnnModel>(
      kDim, kHidden, 3, baselines::RnnKind::kGru));
  models.push_back(std::make_unique<baselines::BirnnModel>(
      kDim, kHidden, 3, baselines::RnnKind::kLstm));
  models.push_back(std::make_unique<baselines::Retain>(kDim, kHidden,
                                                       kHidden));
  models.push_back(std::make_unique<baselines::Dipole>(
      kDim, kHidden, baselines::DipoleAttention::kConcat));
  for (const auto& model : models) {
    SCOPED_TRACE(model->name());
    const Variable taped = model->Forward(xs);
    ASSERT_TRUE(taped.requires_grad());
    Tensor untaped;
    {
      const NoGradScope no_grad;
      const Variable out = model->Forward(xs);
      EXPECT_FALSE(out.requires_grad());
      untaped = out.value();
    }
    EXPECT_TRUE(BitwiseEqual(taped.value(), untaped));
    EXPECT_TRUE(BitwiseEqual(taped.value(), model->ScoreRaw(xs)));
    EXPECT_TRUE(BitwiseEqual(tracer::Sigmoid(taped.value()),
                             model->Score(xs, /*classify=*/true)));
    EXPECT_TRUE(GradEnabled());
  }
}

TEST(NoGradScopeDeathTest, BackwardFromRootBuiltInsideScopeDies) {
  EXPECT_DEATH(
      {
        Rng rng(5);
        Variable w = Variable::Parameter(Tensor::Randn({2, 2}, rng));
        Variable loss;
        {
          const NoGradScope no_grad;
          loss = MeanAll(Mul(w, w));
        }
        loss.Backward();
      },
      "NoGradScope");
}

}  // namespace
}  // namespace autograd
}  // namespace tracer
