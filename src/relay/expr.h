// Relay-style expression AST.
//
// The graph-level IR mirrors TVM Relay's node kinds: Var, Constant, Call,
// Tuple, TupleGetItem and Function. Expressions are immutable by convention
// after construction (passes rewrite by building new nodes); the only
// mutable field is the cached checked_type written by the InferType pass.
// Modules are shallow copies that share nodes across threads (racing
// CompileFlow calls, serve session pools), so a node whose type is already
// the inferred one is never written again: re-inference is read-only.
// Shared subexpressions are real sharing (a DAG), which the visitors
// preserve via memoization.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "relay/attrs.h"
#include "relay/type.h"
#include "tensor/ndarray.h"

namespace tnp {
namespace relay {

class Expr;
class Function;
using ExprPtr = std::shared_ptr<Expr>;
using FunctionPtr = std::shared_ptr<Function>;

enum class ExprKind : std::uint8_t {
  kVar,
  kConstant,
  kCall,
  kTuple,
  kTupleGetItem,
  kFunction,
};

class Expr {
 public:
  virtual ~Expr() = default;

  ExprKind kind() const noexcept { return kind_; }

  /// Type assigned by InferType; Type::defined() is false before that.
  const Type& checked_type() const noexcept { return checked_type_; }
  /// No-op when `type` equals the current checked type (see file comment).
  void set_checked_type(Type type) {
    if (checked_type_ != type) checked_type_ = std::move(type);
  }

  /// Convenience: checked type as tensor type (throws if not inferred/tensor).
  const TensorType& tensor_type() const {
    TNP_CHECK(checked_type_.defined()) << "expression has no checked type (run InferType)";
    return checked_type_.AsTensor();
  }

 protected:
  explicit Expr(ExprKind kind) : kind_(kind) {}

 private:
  ExprKind kind_;
  Type checked_type_;
};

/// Named graph input (or function parameter).
class Var : public Expr {
 public:
  Var(std::string name, Type type_annotation)
      : Expr(ExprKind::kVar), name_(std::move(name)), type_annotation_(std::move(type_annotation)) {}

  const std::string& name() const noexcept { return name_; }
  const Type& type_annotation() const noexcept { return type_annotation_; }

 private:
  std::string name_;
  Type type_annotation_;
};
using VarPtr = std::shared_ptr<Var>;

/// Embedded tensor literal (weights, biases, scalar constants).
class Constant : public Expr {
 public:
  explicit Constant(NDArray data) : Expr(ExprKind::kConstant), data_(std::move(data)) {}

  const NDArray& data() const noexcept { return data_; }

 private:
  NDArray data_;
};
using ConstantPtr = std::shared_ptr<Constant>;

/// What a Call invokes: a registered operator (by name), a locally embedded
/// function (fused primitive), or a module-level global function (the result
/// of BYOC partitioning).
enum class CalleeKind : std::uint8_t { kOp, kFunction, kGlobal };

class Call : public Expr {
 public:
  /// Call a registered operator.
  Call(std::string op_name, std::vector<ExprPtr> args, Attrs attrs)
      : Expr(ExprKind::kCall),
        callee_kind_(CalleeKind::kOp),
        op_name_(std::move(op_name)),
        args_(std::move(args)),
        attrs_(std::move(attrs)) {}

  /// Call an embedded function (fusion result).
  Call(FunctionPtr fn, std::vector<ExprPtr> args);

  /// Call a module-level global function by name (partition result).
  struct GlobalTag {};
  Call(GlobalTag, std::string global_name, std::vector<ExprPtr> args)
      : Expr(ExprKind::kCall),
        callee_kind_(CalleeKind::kGlobal),
        op_name_(std::move(global_name)),
        args_(std::move(args)) {}

  CalleeKind callee_kind() const noexcept { return callee_kind_; }

  /// Operator name (kOp) or global function name (kGlobal).
  const std::string& op_name() const {
    TNP_CHECK(callee_kind_ != CalleeKind::kFunction);
    return op_name_;
  }
  const FunctionPtr& fn() const {
    TNP_CHECK(callee_kind_ == CalleeKind::kFunction);
    return fn_;
  }

  const std::vector<ExprPtr>& args() const noexcept { return args_; }
  const Attrs& attrs() const noexcept { return attrs_; }

 private:
  CalleeKind callee_kind_;
  std::string op_name_;
  FunctionPtr fn_;
  std::vector<ExprPtr> args_;
  Attrs attrs_;
};
using CallPtr = std::shared_ptr<Call>;

class Tuple : public Expr {
 public:
  explicit Tuple(std::vector<ExprPtr> fields)
      : Expr(ExprKind::kTuple), fields_(std::move(fields)) {}

  const std::vector<ExprPtr>& fields() const noexcept { return fields_; }

 private:
  std::vector<ExprPtr> fields_;
};
using TuplePtr = std::shared_ptr<Tuple>;

class TupleGetItem : public Expr {
 public:
  TupleGetItem(ExprPtr tuple, int index)
      : Expr(ExprKind::kTupleGetItem), tuple_(std::move(tuple)), index_(index) {}

  const ExprPtr& tuple() const noexcept { return tuple_; }
  int index() const noexcept { return index_; }

 private:
  ExprPtr tuple_;
  int index_;
};
using TupleGetItemPtr = std::shared_ptr<TupleGetItem>;

/// Function attribute keys used by the BYOC flow (TVM-compatible names).
inline constexpr const char* kAttrCompiler = "Compiler";        ///< external codegen id
inline constexpr const char* kAttrGlobalSymbol = "global_symbol";
inline constexpr const char* kAttrPrimitive = "Primitive";      ///< fused group

class Function : public Expr {
 public:
  Function(std::vector<VarPtr> params, ExprPtr body, Attrs attrs = Attrs())
      : Expr(ExprKind::kFunction),
        params_(std::move(params)),
        body_(std::move(body)),
        attrs_(std::move(attrs)) {}

  const std::vector<VarPtr>& params() const noexcept { return params_; }
  const ExprPtr& body() const noexcept { return body_; }
  const Attrs& attrs() const noexcept { return attrs_; }

  bool IsPrimitive() const { return attrs_.GetInt(kAttrPrimitive, 0) != 0; }
  std::string compiler() const { return attrs_.GetString(kAttrCompiler, ""); }

 private:
  std::vector<VarPtr> params_;
  ExprPtr body_;
  Attrs attrs_;
};

// ---- factory helpers ----

inline VarPtr MakeVar(std::string name, Type type) {
  return std::make_shared<Var>(std::move(name), std::move(type));
}
inline ConstantPtr MakeConstant(NDArray data) {
  return std::make_shared<Constant>(std::move(data));
}
inline CallPtr MakeCall(std::string op_name, std::vector<ExprPtr> args, Attrs attrs = Attrs()) {
  return std::make_shared<Call>(std::move(op_name), std::move(args), std::move(attrs));
}
CallPtr MakeFunctionCall(FunctionPtr fn, std::vector<ExprPtr> args);
inline CallPtr MakeGlobalCall(std::string global_name, std::vector<ExprPtr> args) {
  return std::make_shared<Call>(Call::GlobalTag{}, std::move(global_name), std::move(args));
}
inline TuplePtr MakeTuple(std::vector<ExprPtr> fields) {
  return std::make_shared<Tuple>(std::move(fields));
}
inline TupleGetItemPtr MakeTupleGetItem(ExprPtr tuple, int index) {
  return std::make_shared<TupleGetItem>(std::move(tuple), index);
}
inline FunctionPtr MakeFunction(std::vector<VarPtr> params, ExprPtr body, Attrs attrs = Attrs()) {
  return std::make_shared<Function>(std::move(params), std::move(body), std::move(attrs));
}

/// Downcast helpers (checked).
template <typename T>
std::shared_ptr<T> As(const ExprPtr& expr);

template <> inline std::shared_ptr<Var> As<Var>(const ExprPtr& expr) {
  TNP_CHECK(expr && expr->kind() == ExprKind::kVar);
  return std::static_pointer_cast<Var>(expr);
}
template <> inline std::shared_ptr<Constant> As<Constant>(const ExprPtr& expr) {
  TNP_CHECK(expr && expr->kind() == ExprKind::kConstant);
  return std::static_pointer_cast<Constant>(expr);
}
template <> inline std::shared_ptr<Call> As<Call>(const ExprPtr& expr) {
  TNP_CHECK(expr && expr->kind() == ExprKind::kCall);
  return std::static_pointer_cast<Call>(expr);
}
template <> inline std::shared_ptr<Tuple> As<Tuple>(const ExprPtr& expr) {
  TNP_CHECK(expr && expr->kind() == ExprKind::kTuple);
  return std::static_pointer_cast<Tuple>(expr);
}
template <> inline std::shared_ptr<TupleGetItem> As<TupleGetItem>(const ExprPtr& expr) {
  TNP_CHECK(expr && expr->kind() == ExprKind::kTupleGetItem);
  return std::static_pointer_cast<TupleGetItem>(expr);
}
template <> inline std::shared_ptr<Function> As<Function>(const ExprPtr& expr) {
  TNP_CHECK(expr && expr->kind() == ExprKind::kFunction);
  return std::static_pointer_cast<Function>(expr);
}

/// Unchecked "is a call to op X" test.
bool IsCallTo(const ExprPtr& expr, const std::string& op_name);

}  // namespace relay
}  // namespace tnp
