// Reference outputs for executor differentials: relay::EvalExpr — a tree
// walk with no arena, no memory plan and no packed weights — on the module
// after the passes relay::Build runs, so executors are compared bitwise
// against the same graph they execute.
#pragma once

#include <vector>

#include "relay/interpreter.h"
#include "relay/module.h"
#include "relay/pass.h"

namespace tnp {

/// Oracle outputs of `module` with `input` bound to main's first parameter.
inline std::vector<NDArray> OracleOutputs(const relay::Module& module, const NDArray& input) {
  const relay::Module optimized =
      relay::Sequential({relay::InferType(), relay::SimplifyExpr(), relay::FoldConstant(),
                         relay::InferType(), relay::FuseOps(), relay::InferType()})
          .Run(module);
  relay::Environment env;
  env[optimized.main()->params().at(0).get()] = relay::Value(input);
  const relay::Value out = relay::EvalExpr(optimized.main()->body(), env);
  if (!out.is_tuple()) return {out.AsTensor()};
  std::vector<NDArray> outputs;
  for (const auto& field : out.AsTuple()) outputs.push_back(field.AsTensor());
  return outputs;
}

}  // namespace tnp
