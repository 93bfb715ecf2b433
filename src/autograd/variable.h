#ifndef TRACER_AUTOGRAD_VARIABLE_H_
#define TRACER_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace tracer {
namespace autograd {

struct Node;
using NodePtr = std::shared_ptr<Node>;

/// One entry of the autograd tape: a value, its (lazily-allocated) gradient,
/// the parents it was computed from and the closure that pushes the gradient
/// back to those parents.
struct Node {
  Tensor value;
  Tensor grad;            // allocated on demand; same shape as value
  bool requires_grad = false;
  bool grad_allocated = false;
  /// True for interior nodes recorded inside a NoGradScope: they carry a
  /// value but no parents and no closure, so Backward from them is refused.
  bool forward_only = false;
  /// Name of the op that recorded this node ("leaf" for parameters and
  /// constants). Keys the per-op shape rules in graph_check.cc; must point
  /// at a string literal (never freed).
  const char* op = "leaf";
  /// How many Backward() passes have deposited gradient into this node since
  /// the last ZeroGrad. Interior nodes are recreated on every forward pass,
  /// so a count > 1 there means Backward ran twice over one tape — the
  /// double-backward misuse ValidateGraph reports.
  int backward_runs = 0;
  std::vector<NodePtr> parents;
  /// Propagates this->grad into the parents' grads. Null for leaves.
  std::function<void(Node&)> backward_fn;

  /// Gradient accessor; allocates a zero tensor of matching shape on first
  /// use.
  Tensor& EnsureGrad();
};

/// Handle to a tape node. Copying a Variable aliases the same node, so a
/// parameter stored both in a module and in an optimizer sees one gradient.
class Variable {
 public:
  Variable() = default;
  explicit Variable(NodePtr node) : node_(std::move(node)) {}

  /// Trainable leaf (gradient will be accumulated).
  static Variable Parameter(Tensor value);
  /// Non-trainable leaf (inputs, constants).
  static Variable Constant(Tensor value);

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const { return node_->value; }
  Tensor& mutable_value() { return node_->value; }
  /// Gradient of the most recent Backward() through this node.
  Tensor& grad() { return node_->EnsureGrad(); }
  bool requires_grad() const { return node_->requires_grad; }
  const NodePtr& node() const { return node_; }

  /// Zeroes the accumulated gradient (no-op if never allocated).
  void ZeroGrad();

  /// Moves the accumulated gradient out of this node and resets it to the
  /// unallocated state (the next Backward starts from zero). Returns a zero
  /// tensor when no gradient was ever deposited. The bulk-consume
  /// counterpart of grad() for callers that harvest input gradients once per
  /// pass — e.g. integrated gradients over input leaves — without paying a
  /// copy plus ZeroGrad.
  Tensor TakeGrad();

  /// Runs reverse-mode differentiation from this (scalar, 1×1) variable:
  /// seeds d(this)/d(this) = 1 and accumulates gradients into every
  /// reachable node with requires_grad. Gradients of parameters are
  /// *accumulated*, so call ZeroGrad between steps.
  void Backward();

  /// Same but with an explicit output gradient (for non-scalar roots).
  void Backward(const Tensor& output_grad);

 private:
  NodePtr node_;
};

/// Builds an interior node from parents. `requires_grad` is inferred. `op`
/// names the recording operation for diagnostics and graph validation; it
/// must be a string literal (the node stores the pointer, not a copy).
/// Inside a NoGradScope the node keeps neither parents nor closure.
Variable MakeOpNode(const char* op, Tensor value, std::vector<NodePtr> parents,
                    std::function<void(Node&)> backward_fn);

/// RAII forward-only region for the calling thread: while one is alive,
/// MakeOpNode records no tape — every op result is a value-only node with
/// requires_grad false, so each intermediate dies as soon as its last
/// Variable handle does instead of living until the root is dropped. The
/// values are bitwise the taped ones (only the bookkeeping is skipped).
/// Scopes nest; the destructor restores the enclosing state. Other threads
/// are unaffected. Anything that calls Backward (the training step,
/// integrated gradients) must run outside every scope.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

 private:
  bool prev_;
};

/// False while a NoGradScope is alive on the calling thread.
bool GradEnabled();

}  // namespace autograd
}  // namespace tracer

#endif  // TRACER_AUTOGRAD_VARIABLE_H_
