// Reference interpreter: evaluates Relay expressions by binding each op call
// to its kernel (BindOp) and invoking it on freshly allocated outputs. The
// tree walk of EvalExpr — no arena, no plan, no prepacked weights — is the
// numerical oracle the executors are tested against; relay::Build binds its
// kCallOp instructions through the same BindOp.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "kernels/call.h"
#include "relay/expr.h"
#include "tensor/ndarray.h"

namespace tnp {
namespace relay {

/// Runtime value: a tensor or a tuple of values.
class Value {
 public:
  Value() = default;
  Value(NDArray tensor) : tensor_(std::move(tensor)) {}  // NOLINT
  explicit Value(std::vector<Value> fields) : fields_(std::move(fields)), is_tuple_(true) {}

  bool is_tuple() const noexcept { return is_tuple_; }
  bool defined() const noexcept { return is_tuple_ || tensor_.defined(); }

  const NDArray& AsTensor() const {
    TNP_CHECK(!is_tuple_ && tensor_.defined()) << "value is not a tensor";
    return tensor_;
  }
  const std::vector<Value>& AsTuple() const {
    TNP_CHECK(is_tuple_) << "value is not a tuple";
    return fields_;
  }

  Type GetType() const;

 private:
  NDArray tensor_;
  std::vector<Value> fields_;
  bool is_tuple_ = false;
};

/// Bind a Relay operator to its kernel: pick the kernel from the op name and
/// dtypes and decode `attrs` into typed params once. `arg_types` are the
/// call's argument types (a tuple for concatenate) and `out_type` its
/// inferred result. Throws kCompileError for ops without a kernel.
kernels::KernelCall BindOp(const std::string& op_name, const Attrs& attrs,
                           const std::vector<Type>& arg_types, const Type& out_type);

/// Evaluate one operator call on already-computed argument values into a
/// freshly allocated output (constant folding and EvalExpr).
Value EvalOpCall(const std::string& op_name, const Attrs& attrs, const Call& call,
                 const std::vector<Value>& args);

/// Environment mapping Vars (by identity) to values.
using Environment = std::map<const Expr*, Value>;

/// Evaluate a whole expression tree under `env`. Handles every node kind
/// including calls to embedded (fused) functions.
Value EvalExpr(const ExprPtr& expr, const Environment& env);

}  // namespace relay
}  // namespace tnp
