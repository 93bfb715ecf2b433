#include "autograd/variable.h"

#include <unordered_set>

#include "common/macros.h"
#include "obs/autograd_profiler.h"
#include "tensor/tensor_ops.h"

namespace tracer {
namespace autograd {

namespace {
thread_local bool g_grad_enabled = true;
}  // namespace

NoGradScope::NoGradScope() : prev_(g_grad_enabled) { g_grad_enabled = false; }

NoGradScope::~NoGradScope() { g_grad_enabled = prev_; }

bool GradEnabled() { return g_grad_enabled; }

Tensor& Node::EnsureGrad() {
  if (!grad_allocated) {
    grad = Tensor::Zeros(value.shape());
    grad_allocated = true;
  }
  return grad;
}

Variable Variable::Parameter(Tensor value) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = true;
  return Variable(std::move(node));
}

Variable Variable::Constant(Tensor value) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = false;
  return Variable(std::move(node));
}

void Variable::ZeroGrad() {
  TRACER_CHECK(defined());
  if (node_->grad_allocated) node_->grad.SetZero();
  node_->backward_runs = 0;
}

Tensor Variable::TakeGrad() {
  TRACER_CHECK(defined());
  node_->backward_runs = 0;
  if (!node_->grad_allocated) return Tensor::Zeros(node_->value.shape());
  node_->grad_allocated = false;
  return std::move(node_->grad);
}

namespace {

void TopoSort(const NodePtr& root, std::vector<Node*>* order) {
  // Iterative post-order DFS; nodes appear after all their parents'
  // consumers, i.e. reverse(order) is a valid backward schedule.
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root.get(), 0});
  visited.insert(root.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      Node* parent = frame.node->parents[frame.next_parent++].get();
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      order->push_back(frame.node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Variable::Backward() {
  TRACER_CHECK(defined());
  TRACER_CHECK_EQ(node_->value.size(), 1)
      << "Backward() without output_grad requires a scalar root";
  Backward(Tensor::Ones(node_->value.shape()));
}

void Variable::Backward(const Tensor& output_grad) {
  TRACER_CHECK(defined());
  TRACER_CHECK(!node_->forward_only)
      << "Backward on a value computed inside autograd::NoGradScope: "
         "forward-only evaluation records no tape";
  TRACER_CHECK(node_->requires_grad)
      << "Backward on a graph with no trainable inputs";
  TRACER_CHECK(output_grad.SameShape(node_->value));
  std::vector<Node*> order;
  TopoSort(node_, &order);
  AddInPlace(&node_->EnsureGrad(), output_grad);
  // Post-order puts the root last; walk in reverse so each node's gradient
  // is complete before it is pushed to its parents.
  obs::AutogradProfiler& profiler = obs::AutogradProfiler::Global();
  const bool profile = profiler.enabled();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    ++node->backward_runs;
    if (node->backward_fn && node->grad_allocated) {
      if (profile) {
        const uint64_t start = obs::MonotonicNowNs();
        const int64_t start_allocs = ThreadAllocCounters().heap_allocs;
        node->backward_fn(*node);
        profiler.RecordBackward(node->op, obs::MonotonicNowNs() - start,
                                ThreadAllocCounters().heap_allocs -
                                    start_allocs);
      } else {
        node->backward_fn(*node);
      }
    }
  }
}

Variable MakeOpNode(const char* op, Tensor value, std::vector<NodePtr> parents,
                    std::function<void(Node&)> backward_fn) {
  auto node = std::make_shared<Node>();
  node->op = op;
  node->value = std::move(value);
  if (!g_grad_enabled) {
    node->forward_only = true;
    return Variable(std::move(node));
  }
  for (const NodePtr& p : parents) {
    if (p->requires_grad) {
      node->requires_grad = true;
      break;
    }
  }
  if (node->requires_grad) {
    node->parents = std::move(parents);
    node->backward_fn = std::move(backward_fn);
  }
  return Variable(std::move(node));
}

}  // namespace autograd
}  // namespace tracer
