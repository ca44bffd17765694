// Relay IR structure: expressions, attrs, visitors, mutators, printer, and
// the module fingerprint that keys the artifact cache.
#include <gtest/gtest.h>

#include "relay/expr.h"
#include "relay/fingerprint.h"
#include "relay/pass.h"
#include "relay/printer.h"
#include "relay/visitor.h"
#include "zoo/zoo.h"

namespace tnp {
namespace relay {
namespace {

TEST(Attrs, TypedAccess) {
  Attrs attrs;
  attrs.SetInt("k", 3).SetDouble("alpha", 0.5).SetString("mode", "same");
  attrs.SetInts("strides", {2, 2}).SetDoubles("scales", {0.1, 0.2});
  EXPECT_EQ(attrs.GetInt("k", 0), 3);
  EXPECT_DOUBLE_EQ(attrs.GetDouble("alpha", 0), 0.5);
  EXPECT_EQ(attrs.GetString("mode", ""), "same");
  EXPECT_EQ(attrs.GetInts("strides", {}), (std::vector<std::int64_t>{2, 2}));
  EXPECT_EQ(attrs.GetDoubles("scales", {}).size(), 2u);
}

TEST(Attrs, DefaultsWhenMissing) {
  Attrs attrs;
  EXPECT_EQ(attrs.GetInt("missing", 42), 42);
  EXPECT_FALSE(attrs.Has("missing"));
}

TEST(Attrs, IntPromotesToDouble) {
  Attrs attrs;
  attrs.SetInt("eps", 1);
  EXPECT_DOUBLE_EQ(attrs.GetDouble("eps", 0.0), 1.0);
}

TEST(Attrs, WrongKindThrows) {
  Attrs attrs;
  attrs.SetString("k", "three");
  EXPECT_THROW(attrs.GetInt("k", 0), Error);
}

TEST(Attrs, RequireThrowsWhenMissing) {
  Attrs attrs;
  EXPECT_THROW(attrs.RequireInt("absent"), Error);
  EXPECT_THROW(attrs.RequireInts("absent"), Error);
}

TEST(Expr, NodeKinds) {
  auto var = MakeVar("x", Type::Tensor(Shape({1}), DType::kFloat32));
  auto constant = MakeConstant(NDArray::Zeros(Shape({1}), DType::kFloat32));
  auto call = MakeCall("nn.relu", {var});
  auto tuple = MakeTuple({var, constant});
  auto get = MakeTupleGetItem(tuple, 1);
  auto fn = MakeFunction({var}, call);
  EXPECT_EQ(var->kind(), ExprKind::kVar);
  EXPECT_EQ(constant->kind(), ExprKind::kConstant);
  EXPECT_EQ(call->kind(), ExprKind::kCall);
  EXPECT_EQ(tuple->kind(), ExprKind::kTuple);
  EXPECT_EQ(get->kind(), ExprKind::kTupleGetItem);
  EXPECT_EQ(fn->kind(), ExprKind::kFunction);
  EXPECT_EQ(call->callee_kind(), CalleeKind::kOp);
  EXPECT_TRUE(IsCallTo(call, "nn.relu"));
  EXPECT_FALSE(IsCallTo(call, "nn.conv2d"));
  EXPECT_FALSE(IsCallTo(var, "nn.relu"));
}

TEST(Expr, FunctionAttrs) {
  Attrs attrs;
  attrs.SetString(kAttrCompiler, "nir").SetInt(kAttrPrimitive, 1);
  auto fn = MakeFunction({}, MakeConstant(NDArray::Zeros(Shape({1}), DType::kFloat32)), attrs);
  EXPECT_EQ(fn->compiler(), "nir");
  EXPECT_TRUE(fn->IsPrimitive());
}

TEST(Visitor, PostOrderChildrenFirst) {
  auto x = MakeVar("x", Type::Tensor(Shape({1}), DType::kFloat32));
  auto a = MakeCall("nn.relu", {x});
  auto b = MakeCall("sigmoid", {a});
  const auto order = PostOrder(b);
  // x before a before b.
  auto index_of = [&](const ExprPtr& e) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == e) return static_cast<int>(i);
    }
    return -1;
  };
  EXPECT_LT(index_of(x), index_of(a));
  EXPECT_LT(index_of(a), index_of(b));
}

TEST(Visitor, DagVisitedOnce) {
  auto x = MakeVar("x", Type::Tensor(Shape({1}), DType::kFloat32));
  auto shared = MakeCall("nn.relu", {x});
  auto sum = MakeCall("add", {shared, shared});  // diamond
  struct Counter : ExprVisitor {
    int calls = 0;
    void VisitCall(const CallPtr&) override { ++calls; }
  };
  Counter counter;
  counter.Visit(sum);
  EXPECT_EQ(counter.calls, 2);  // relu once, add once
}

TEST(Visitor, CountCalls) {
  auto x = MakeVar("x", Type::Tensor(Shape({1}), DType::kFloat32));
  auto a = MakeCall("nn.relu", {x});
  auto b = MakeCall("nn.relu", {a});
  auto c = MakeCall("sigmoid", {b});
  EXPECT_EQ(CountCalls(c), 3);
  EXPECT_EQ(CountCalls(c, "nn.relu"), 2);
  EXPECT_EQ(CountCalls(c, "exp"), 0);
}

TEST(Visitor, FreeVarsFirstUseOrder) {
  auto x = MakeVar("x", Type::Tensor(Shape({1}), DType::kFloat32));
  auto y = MakeVar("y", Type::Tensor(Shape({1}), DType::kFloat32));
  auto sum = MakeCall("add", {y, x});
  const auto free_vars = FreeVars(sum);
  ASSERT_EQ(free_vars.size(), 2u);
  EXPECT_EQ(free_vars[0]->name(), "y");
  EXPECT_EQ(free_vars[1]->name(), "x");
}

TEST(Mutator, IdentityPreservesSharing) {
  auto x = MakeVar("x", Type::Tensor(Shape({1}), DType::kFloat32));
  auto a = MakeCall("nn.relu", {x});
  auto b = MakeCall("sigmoid", {a});
  ExprMutator identity;
  EXPECT_EQ(identity.Mutate(b), b);  // no rebuild when nothing changes
}

TEST(Mutator, RewriteReplacesAndReusesMemo) {
  // Replace relu with sigmoid; the shared subtree must be rebuilt once.
  struct ReluToSigmoid : ExprMutator {
    int rewrites = 0;
    ExprPtr RewriteCall(const CallPtr& call) override {
      if (call->callee_kind() == CalleeKind::kOp && call->op_name() == "nn.relu") {
        ++rewrites;
        return MakeCall("sigmoid", call->args());
      }
      return call;
    }
  };
  auto x = MakeVar("x", Type::Tensor(Shape({1}), DType::kFloat32));
  auto shared = MakeCall("nn.relu", {x});
  auto sum = MakeCall("add", {shared, shared});
  ReluToSigmoid mutator;
  const ExprPtr result = mutator.Mutate(sum);
  EXPECT_EQ(mutator.rewrites, 1);
  const auto new_sum = As<Call>(result);
  EXPECT_EQ(new_sum->args()[0], new_sum->args()[1]);  // sharing preserved
  EXPECT_TRUE(IsCallTo(new_sum->args()[0], "sigmoid"));
}

TEST(Printer, ShowsStructure) {
  auto x = MakeVar("x", Type::Tensor(Shape({1, 3}), DType::kFloat32));
  auto relu = MakeCall("nn.relu", {x});
  auto fn = MakeFunction({x}, relu);
  const std::string text = PrintFunction(fn);
  EXPECT_NE(text.find("nn.relu"), std::string::npos);
  EXPECT_NE(text.find("%x"), std::string::npos);
  EXPECT_NE(text.find("return"), std::string::npos);
}

TEST(Printer, GlobalCallsAndTuples) {
  auto x = MakeVar("x", Type::Tensor(Shape({1}), DType::kFloat32));
  auto call = MakeGlobalCall("nir_0", {x});
  auto tuple = MakeTuple({call, x});
  auto get = MakeTupleGetItem(tuple, 0);
  const std::string text = PrintExpr(get);
  EXPECT_NE(text.find("@nir_0"), std::string::npos);
  EXPECT_NE(text.find(".0"), std::string::npos);
}

TEST(Downcast, CheckedAs) {
  auto x = MakeVar("x", Type::Tensor(Shape({1}), DType::kFloat32));
  ExprPtr e = x;
  EXPECT_EQ(As<Var>(e)->name(), "x");
  EXPECT_THROW(As<Call>(e), InternalError);
}

// Every field of a model that changes its compiled artifact must change the
// fingerprint; the defaults below are the baseline model.
struct TinyModel {
  bool flip_weight_bit = false;
  std::int64_t padding = 1;
  float weight_scale = 0.5f;
  bool external = false;
  DType input_dtype = DType::kFloat32;
};

Module BuildTiny(const TinyModel& m) {
  NDArray weight = NDArray::RandomInt8(Shape({4, 3, 3, 3}), 7);
  if (m.flip_weight_bit) static_cast<std::uint8_t*>(weight.RawData())[5] ^= 0x10;
  weight.set_quant(QuantParams(m.weight_scale, 0));
  auto x = MakeVar("x", Type::Tensor(Shape({1, 3, 8, 8}), m.input_dtype));
  auto conv = MakeCall("nn.conv2d", {x, MakeConstant(weight)},
                       Attrs().SetInts("padding", {m.padding, m.padding}));
  Attrs fn_attrs;
  if (m.external) fn_attrs.SetString(kAttrCompiler, "nir");
  return Module(MakeFunction({x}, conv, fn_attrs));
}

TEST(Fingerprint, IndependentImportsOfAZooModelAgree) {
  zoo::ZooOptions options;
  options.image_size = 32;
  options.width = 0.25;
  options.depth = 0.3;
  const Module a = zoo::Build("mobilenet_v2_quant", options);
  const Module b = zoo::Build("mobilenet_v2_quant", options);
  ASSERT_NE(a.main(), b.main());  // two separate node graphs
  EXPECT_EQ(ModuleFingerprint(a), ModuleFingerprint(b));
  // Checked types are derived, not content: typing leaves the hash alone.
  EXPECT_EQ(ModuleFingerprint(InferType().Run(a)), ModuleFingerprint(a));
  EXPECT_NE(ModuleFingerprint(zoo::Build("mobilenet_v2", options)), ModuleFingerprint(a));
}

TEST(Fingerprint, EveryArtifactRelevantChangeMovesTheHash) {
  const std::uint64_t base = ModuleFingerprint(BuildTiny({}));
  EXPECT_EQ(ModuleFingerprint(BuildTiny({})), base);

  TinyModel flipped;
  flipped.flip_weight_bit = true;
  TinyModel attr;
  attr.padding = 0;
  TinyModel quant;
  quant.weight_scale = 0.25f;
  TinyModel external;
  external.external = true;
  TinyModel dtype;
  dtype.input_dtype = DType::kInt8;
  EXPECT_NE(ModuleFingerprint(BuildTiny(flipped)), base) << "weight bit";
  EXPECT_NE(ModuleFingerprint(BuildTiny(attr)), base) << "op attr";
  EXPECT_NE(ModuleFingerprint(BuildTiny(quant)), base) << "quant param";
  EXPECT_NE(ModuleFingerprint(BuildTiny(external)), base) << "Compiler= attr";
  EXPECT_NE(ModuleFingerprint(BuildTiny(dtype)), base) << "dtype";
}

}  // namespace
}  // namespace relay
}  // namespace tnp
