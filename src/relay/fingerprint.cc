#include "relay/fingerprint.h"

#include <bit>
#include <unordered_map>

#include "relay/visitor.h"
#include "support/hash.h"
#include "support/logging.h"

namespace tnp {
namespace relay {

namespace {

// ------------------------------------------------------------------ hasher

/// Streaming 64-bit hash folded one word at a time (the xxHash64 round and
/// final avalanche). Each round is a bijection of the running state, so two
/// structures that differ in a single word always hash differently. Byte
/// runs (tensor payloads, names) enter as two words, their length and their
/// support::Hash64, which keeps field boundaries unambiguous and runs the
/// bulk bytes at memory speed; two different runs of one length collide
/// with probability about 2^-64.
class Hasher {
 public:
  void Word(std::uint64_t word) { state_ = support::hash_detail::Round(state_, word); }

  void U32(std::uint32_t value) { Word(value); }
  void I64(std::int64_t value) { Word(static_cast<std::uint64_t>(value)); }
  void F64(double value) { Word(std::bit_cast<std::uint64_t>(value)); }

  void Bytes(const void* data, std::size_t size) {
    Word(size);
    Word(support::Hash64(data, size));
  }

  void String(const std::string& text) { Bytes(text.data(), text.size()); }

  std::uint64_t Finish() const { return support::hash_detail::Avalanche(state_); }

 private:
  std::uint64_t state_ = support::hash_detail::kPrime1;
};

// ------------------------------------------------------------------ attrs

enum class AttrTag : std::uint32_t {
  kInt = 0,
  kDouble = 1,
  kString = 2,
  kInts = 3,
  kDoubles = 4,
};

void HashAttrs(Hasher& h, const Attrs& attrs) {
  h.U32(static_cast<std::uint32_t>(attrs.values().size()));
  for (const auto& [key, value] : attrs.values()) {
    h.String(key);
    if (const auto* v = std::get_if<std::int64_t>(&value)) {
      h.U32(static_cast<std::uint32_t>(AttrTag::kInt));
      h.I64(*v);
    } else if (const auto* v = std::get_if<double>(&value)) {
      h.U32(static_cast<std::uint32_t>(AttrTag::kDouble));
      h.F64(*v);
    } else if (const auto* v = std::get_if<std::string>(&value)) {
      h.U32(static_cast<std::uint32_t>(AttrTag::kString));
      h.String(*v);
    } else if (const auto* v = std::get_if<std::vector<std::int64_t>>(&value)) {
      h.U32(static_cast<std::uint32_t>(AttrTag::kInts));
      h.U32(static_cast<std::uint32_t>(v->size()));
      for (const std::int64_t x : *v) h.I64(x);
    } else if (const auto* v = std::get_if<std::vector<double>>(&value)) {
      h.U32(static_cast<std::uint32_t>(AttrTag::kDoubles));
      h.U32(static_cast<std::uint32_t>(v->size()));
      for (const double x : *v) h.F64(x);
    } else {
      TNP_CHECK(false) << "unhandled attr variant";
    }
  }
}

// ------------------------------------------------------------ types/arrays

void HashType(Hasher& h, const Type& type) {
  h.U32(static_cast<std::uint32_t>(type.kind()));
  if (type.IsTensor()) {
    const TensorType& tensor = type.AsTensor();
    h.U32(static_cast<std::uint32_t>(tensor.shape.rank()));
    for (const std::int64_t dim : tensor.shape.dims()) h.I64(dim);
    h.U32(static_cast<std::uint32_t>(tensor.dtype));
  } else if (type.IsTuple()) {
    h.U32(static_cast<std::uint32_t>(type.AsTuple().size()));
    for (const Type& field : type.AsTuple()) HashType(h, field);
  }
}

void HashNDArray(Hasher& h, const NDArray& array) {
  h.U32(static_cast<std::uint32_t>(array.shape().rank()));
  for (const std::int64_t dim : array.shape().dims()) h.I64(dim);
  h.U32(static_cast<std::uint32_t>(array.dtype()));
  h.U32(array.quant().valid ? 1 : 0);
  if (array.quant().valid) {
    h.F64(array.quant().scale);
    h.I64(array.quant().zero_point);
  }
  h.Bytes(array.RawData(), array.SizeBytes());
}

// ------------------------------------------------------------- expressions

enum class NodeTag : std::uint32_t {
  kVar = 0,
  kConstant = 1,
  kCallOp = 2,
  kCallFunction = 3,
  kCallGlobal = 4,
  kTuple = 5,
  kTupleGetItem = 6,
  kFunction = 7,
};

/// Hash one function's expression DAG as a post-order node list where
/// children precede parents and edges are node indices, so structural
/// sharing is part of the hash and node addresses are not.
void HashFunction(Hasher& h, const FunctionPtr& fn) {
  // Params may be unreferenced by the body; force them into the node order.
  std::unordered_map<const Expr*, std::uint32_t> index_of;
  std::vector<ExprPtr> nodes;
  {
    struct Collector : ExprVisitor {
      std::vector<ExprPtr>* nodes;
      void VisitVar(const VarPtr& v) override { nodes->push_back(v); }
      void VisitConstant(const ConstantPtr& c) override { nodes->push_back(c); }
      void VisitCall(const CallPtr& c) override { nodes->push_back(c); }
      void VisitTuple(const TuplePtr& t) override { nodes->push_back(t); }
      void VisitTupleGetItem(const TupleGetItemPtr& g) override { nodes->push_back(g); }
      void VisitFunction(const FunctionPtr& f) override { nodes->push_back(f); }
    };
    Collector collector;
    collector.nodes = &nodes;
    for (const auto& param : fn->params()) collector.Visit(param);
    collector.Visit(fn->body());
  }
  for (std::uint32_t i = 0; i < nodes.size(); ++i) index_of[nodes[i].get()] = i;

  const auto ref = [&](const ExprPtr& expr) {
    const auto it = index_of.find(expr.get());
    TNP_CHECK(it != index_of.end()) << "expression not in fingerprint order";
    h.U32(it->second);
  };

  h.U32(static_cast<std::uint32_t>(nodes.size()));
  for (const auto& node : nodes) {
    switch (node->kind()) {
      case ExprKind::kVar: {
        const auto var = As<Var>(node);
        h.U32(static_cast<std::uint32_t>(NodeTag::kVar));
        h.String(var->name());
        HashType(h, var->type_annotation());
        break;
      }
      case ExprKind::kConstant: {
        h.U32(static_cast<std::uint32_t>(NodeTag::kConstant));
        HashNDArray(h, As<Constant>(node)->data());
        break;
      }
      case ExprKind::kCall: {
        const auto call = As<Call>(node);
        switch (call->callee_kind()) {
          case CalleeKind::kOp:
            h.U32(static_cast<std::uint32_t>(NodeTag::kCallOp));
            h.String(call->op_name());
            HashAttrs(h, call->attrs());
            break;
          case CalleeKind::kFunction:
            h.U32(static_cast<std::uint32_t>(NodeTag::kCallFunction));
            ref(call->fn());
            break;
          case CalleeKind::kGlobal:
            h.U32(static_cast<std::uint32_t>(NodeTag::kCallGlobal));
            h.String(call->op_name());
            break;
        }
        h.U32(static_cast<std::uint32_t>(call->args().size()));
        for (const auto& arg : call->args()) ref(arg);
        break;
      }
      case ExprKind::kTuple: {
        const auto tuple = As<Tuple>(node);
        h.U32(static_cast<std::uint32_t>(NodeTag::kTuple));
        h.U32(static_cast<std::uint32_t>(tuple->fields().size()));
        for (const auto& field : tuple->fields()) ref(field);
        break;
      }
      case ExprKind::kTupleGetItem: {
        const auto get = As<TupleGetItem>(node);
        h.U32(static_cast<std::uint32_t>(NodeTag::kTupleGetItem));
        ref(get->tuple());
        h.I64(get->index());
        break;
      }
      case ExprKind::kFunction: {
        const auto inner = As<Function>(node);
        h.U32(static_cast<std::uint32_t>(NodeTag::kFunction));
        h.U32(static_cast<std::uint32_t>(inner->params().size()));
        for (const auto& param : inner->params()) ref(param);
        ref(inner->body());
        HashAttrs(h, inner->attrs());
        break;
      }
    }
  }

  // The function itself: param refs, body ref, attrs.
  h.U32(static_cast<std::uint32_t>(fn->params().size()));
  for (const auto& param : fn->params()) ref(param);
  ref(fn->body());
  HashAttrs(h, fn->attrs());
}

}  // namespace

std::uint64_t ModuleFingerprint(const Module& module) {
  Hasher h;
  h.U32(static_cast<std::uint32_t>(module.functions().size()));
  for (const auto& [name, fn] : module.functions()) {
    h.String(name);
    HashFunction(h, fn);
  }
  return h.Finish();
}

}  // namespace relay
}  // namespace tnp
