/// \file
/// Executing a compiled artifact the way the service does, and checking
/// its output against the independent ir::Evaluator.
#pragma once

#include <cstdint>
#include <vector>

#include "compiler/pipeline.h"
#include "compiler/runtime.h"
#include "ir/evaluator.h"

namespace chehab::perfbench {

/// Run \p compiled on \p runtime under its key plan when it carries one,
/// else with one key per distinct rotation step.
compiler::RunResult runCompiled(compiler::FheRuntime& runtime,
                                const compiler::Compiled& compiled,
                                const ir::Env& inputs);

/// True when \p got equals the evaluator's value of \p source on
/// \p inputs, slot for slot, modulo \p plain_modulus, over the source's
/// output width (rewrites may widen a program; the extra slots are
/// junk by the prefix-equivalence contract of ir/evaluator.h).
bool outputMatches(const ir::ExprPtr& source, const ir::Env& inputs,
                   const std::vector<std::int64_t>& got,
                   std::uint64_t plain_modulus);

} // namespace chehab::perfbench
