#include "run_check.h"

#include <exception>

namespace chehab::perfbench {

compiler::RunResult
runCompiled(compiler::FheRuntime& runtime, const compiler::Compiled& compiled,
            const ir::Env& inputs)
{
    if (compiled.key_planned) {
        return runtime.run(compiled.program, inputs, compiled.key_plan);
    }
    return runtime.run(compiled.program, inputs, 0);
}

bool
outputMatches(const ir::ExprPtr& source, const ir::Env& inputs,
              const std::vector<std::int64_t>& got,
              std::uint64_t plain_modulus)
{
    const auto t = static_cast<std::int64_t>(plain_modulus);
    const auto norm = [t](std::int64_t v) { return ((v % t) + t) % t; };
    ir::Value expected;
    try {
        expected = ir::Evaluator(t).evaluate(source, inputs);
    } catch (const std::exception&) {
        return false;
    }
    if (got.size() < expected.slots.size()) return false;
    for (std::size_t i = 0; i < expected.slots.size(); ++i) {
        if (norm(got[i]) != norm(expected.slots[i])) return false;
    }
    return true;
}

} // namespace chehab::perfbench
