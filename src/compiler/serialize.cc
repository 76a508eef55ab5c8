#include "compiler/serialize.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "support/binary_io.h"

namespace chehab::compiler {

namespace {

/// Bound on nesting when rebuilding IR trees: real kernels are a few
/// dozen levels deep; a malformed length field must not be able to
/// recurse the stack away before the byte reader notices truncation.
constexpr int kMaxExprDepth = 4096;

/// Highest valid ir::Op tag (the enum is contiguous from Var).
constexpr std::uint8_t kMaxOpTag = static_cast<std::uint8_t>(ir::Op::VecNeg);

constexpr std::uint8_t kMaxOpcodeTag =
    static_cast<std::uint8_t>(FheOpcode::Rotate);

constexpr std::uint8_t kMaxSlotKindTag =
    static_cast<std::uint8_t>(PackSlot::Kind::PlainExpr);

void
writeExpr(ByteWriter& out, const ir::ExprPtr& expr)
{
    if (expr == nullptr) {
        // Tag 0xff marks "no expression" (nullptr optimized trees or
        // PackSlot::expr on non-PlainExpr slots).
        out.u8(0xff);
        return;
    }
    out.u8(static_cast<std::uint8_t>(expr->op()));
    out.str(expr->name());
    out.i64(expr->value());
    out.i32(expr->step());
    out.u32(static_cast<std::uint32_t>(expr->arity()));
    for (const ir::ExprPtr& child : expr->children()) {
        writeExpr(out, child);
    }
}

ir::ExprPtr
readExpr(ByteReader& in, int depth)
{
    if (depth > kMaxExprDepth) {
        throw std::runtime_error("expression nesting exceeds limit");
    }
    const std::uint8_t tag = in.u8();
    if (tag == 0xff) return nullptr;
    if (tag > kMaxOpTag) {
        throw std::runtime_error("invalid IR op tag " + std::to_string(tag));
    }
    const ir::Op op = static_cast<ir::Op>(tag);
    std::string name = in.str();
    const std::int64_t value = in.i64();
    const int step = in.i32();
    const std::uint32_t arity = in.u32();
    // Every child needs at least its own header bytes; this rejects
    // absurd counts before they turn into a giant allocation.
    if (arity > in.remaining()) {
        throw std::runtime_error("expression arity exceeds stream size");
    }
    std::vector<ir::ExprPtr> children;
    children.reserve(arity);
    for (std::uint32_t i = 0; i < arity; ++i) {
        ir::ExprPtr child = readExpr(in, depth + 1);
        if (child == nullptr) {
            throw std::runtime_error("null child inside expression");
        }
        children.push_back(std::move(child));
    }
    return ir::makeNode(op, std::move(children), std::move(name), value,
                        step);
}

void
writeProgram(ByteWriter& out, const FheProgram& program)
{
    out.u32(static_cast<std::uint32_t>(program.instrs.size()));
    for (const FheInstr& instr : program.instrs) {
        out.u8(static_cast<std::uint8_t>(instr.op));
        out.i32(instr.dst);
        out.i32(instr.a);
        out.i32(instr.b);
        out.i32(instr.step);
        out.u8(instr.replicate ? 1 : 0);
        out.u32(static_cast<std::uint32_t>(instr.slots.size()));
        for (const PackSlot& slot : instr.slots) {
            out.u8(static_cast<std::uint8_t>(slot.kind));
            out.str(slot.name);
            out.i64(slot.value);
            writeExpr(out, slot.expr);
        }
    }
    out.i32(program.num_regs);
    out.i32(program.output_reg);
    out.i32(program.output_width);
    out.u32(static_cast<std::uint32_t>(program.mod_switch.points.size()));
    for (const int point : program.mod_switch.points) out.i32(point);
    out.i32(program.mod_switch.margin_bits);
    out.i32(program.mod_switch.min_level);
}

FheProgram
readProgram(ByteReader& in)
{
    FheProgram program;
    const std::uint32_t num_instrs = in.u32();
    if (num_instrs > in.remaining()) {
        throw std::runtime_error("instruction count exceeds stream size");
    }
    program.instrs.reserve(num_instrs);
    for (std::uint32_t i = 0; i < num_instrs; ++i) {
        FheInstr instr;
        const std::uint8_t op_tag = in.u8();
        if (op_tag > kMaxOpcodeTag) {
            throw std::runtime_error("invalid opcode tag " +
                                     std::to_string(op_tag));
        }
        instr.op = static_cast<FheOpcode>(op_tag);
        instr.dst = in.i32();
        instr.a = in.i32();
        instr.b = in.i32();
        instr.step = in.i32();
        instr.replicate = in.u8() != 0;
        const std::uint32_t num_slots = in.u32();
        if (num_slots > in.remaining()) {
            throw std::runtime_error("slot count exceeds stream size");
        }
        instr.slots.reserve(num_slots);
        for (std::uint32_t s = 0; s < num_slots; ++s) {
            PackSlot slot;
            const std::uint8_t kind_tag = in.u8();
            if (kind_tag > kMaxSlotKindTag) {
                throw std::runtime_error("invalid pack-slot kind " +
                                         std::to_string(kind_tag));
            }
            slot.kind = static_cast<PackSlot::Kind>(kind_tag);
            slot.name = in.str();
            slot.value = in.i64();
            slot.expr = readExpr(in, 0);
            instr.slots.push_back(std::move(slot));
        }
        program.instrs.push_back(std::move(instr));
    }
    program.num_regs = in.i32();
    // The scheduler allocates one register per instruction, and tables
    // sized by num_regs (lane-fit analysis, the noise model, composite
    // renaming) must not be able to ask for gigabytes.
    if (program.num_regs < 0 ||
        static_cast<std::size_t>(program.num_regs) > program.instrs.size()) {
        throw std::runtime_error("register count " +
                                 std::to_string(program.num_regs) +
                                 " outside [0, " +
                                 std::to_string(program.instrs.size()) + "]");
    }
    program.output_reg = in.i32();
    program.output_width = in.i32();
    const std::uint32_t num_points = in.u32();
    if (num_points > in.remaining()) {
        throw std::runtime_error("mod-switch point count exceeds stream size");
    }
    program.mod_switch.points.reserve(num_points);
    for (std::uint32_t i = 0; i < num_points; ++i) {
        program.mod_switch.points.push_back(in.i32());
    }
    program.mod_switch.margin_bits = in.i32();
    program.mod_switch.min_level = in.i32();
    return program;
}

void
writeKeyPlan(ByteWriter& out, const RotationKeyPlan& plan)
{
    out.u32(static_cast<std::uint32_t>(plan.keys.size()));
    for (const int key : plan.keys) out.i32(key);
    // The decomposition map is unordered; write it sorted by key so
    // equal plans always serialize to equal bytes.
    std::vector<int> steps;
    steps.reserve(plan.decomposition.size());
    for (const auto& [step, sequence] : plan.decomposition) {
        steps.push_back(step);
    }
    std::sort(steps.begin(), steps.end());
    out.u32(static_cast<std::uint32_t>(steps.size()));
    for (const int step : steps) {
        const std::vector<int>& sequence = plan.decomposition.at(step);
        out.i32(step);
        out.u32(static_cast<std::uint32_t>(sequence.size()));
        for (const int component : sequence) out.i32(component);
    }
}

RotationKeyPlan
readKeyPlan(ByteReader& in)
{
    RotationKeyPlan plan;
    const std::uint32_t num_keys = in.u32();
    if (num_keys > in.remaining()) {
        throw std::runtime_error("key count exceeds stream size");
    }
    plan.keys.reserve(num_keys);
    for (std::uint32_t i = 0; i < num_keys; ++i) {
        plan.keys.push_back(in.i32());
    }
    const std::uint32_t num_entries = in.u32();
    if (num_entries > in.remaining()) {
        throw std::runtime_error("decomposition count exceeds stream size");
    }
    for (std::uint32_t i = 0; i < num_entries; ++i) {
        const int step = in.i32();
        const std::uint32_t length = in.u32();
        if (length > in.remaining()) {
            throw std::runtime_error("decomposition entry exceeds stream "
                                     "size");
        }
        std::vector<int> sequence;
        sequence.reserve(length);
        for (std::uint32_t c = 0; c < length; ++c) {
            sequence.push_back(in.i32());
        }
        plan.decomposition.emplace(step, std::move(sequence));
    }
    return plan;
}

void
writeStats(ByteWriter& out, const CompileStats& stats)
{
    out.u32(static_cast<std::uint32_t>(stats.passes.size()));
    for (const PassStats& pass : stats.passes) {
        out.str(pass.name);
        out.f64(pass.seconds);
        out.f64(pass.cost_before);
        out.f64(pass.cost_after);
        out.i32(pass.rewrite_steps);
    }
    out.f64(stats.initial_cost);
    out.f64(stats.final_cost);
    out.i32(stats.circuit_depth);
    out.i32(stats.mult_depth);
    out.i32(stats.ir_counts.ct_add);
    out.i32(stats.ir_counts.ct_ct_mul);
    out.i32(stats.ir_counts.ct_pt_mul);
    out.i32(stats.ir_counts.square);
    out.i32(stats.ir_counts.rotation);
    out.i32(stats.ir_counts.plain_ops);
    out.i32(stats.ir_counts.scalar_ops);
    out.i32(stats.ir_counts.vector_ops);
    out.i32(stats.rewrite_steps);
}

CompileStats
readStats(ByteReader& in)
{
    CompileStats stats;
    const std::uint32_t num_passes = in.u32();
    if (num_passes > in.remaining()) {
        throw std::runtime_error("pass count exceeds stream size");
    }
    stats.passes.reserve(num_passes);
    for (std::uint32_t i = 0; i < num_passes; ++i) {
        PassStats pass;
        pass.name = in.str();
        pass.seconds = in.f64();
        pass.cost_before = in.f64();
        pass.cost_after = in.f64();
        pass.rewrite_steps = in.i32();
        stats.passes.push_back(std::move(pass));
    }
    stats.initial_cost = in.f64();
    stats.final_cost = in.f64();
    stats.circuit_depth = in.i32();
    stats.mult_depth = in.i32();
    stats.ir_counts.ct_add = in.i32();
    stats.ir_counts.ct_ct_mul = in.i32();
    stats.ir_counts.ct_pt_mul = in.i32();
    stats.ir_counts.square = in.i32();
    stats.ir_counts.rotation = in.i32();
    stats.ir_counts.plain_ops = in.i32();
    stats.ir_counts.scalar_ops = in.i32();
    stats.ir_counts.vector_ops = in.i32();
    stats.rewrite_steps = in.i32();
    return stats;
}

void
writeContent(ByteWriter& out, const Compiled& compiled)
{
    writeExpr(out, compiled.optimized);
    writeProgram(out, compiled.program);
    writeKeyPlan(out, compiled.key_plan);
    out.u8(compiled.key_planned ? 1 : 0);
}

} // namespace

std::string
serializeCompiledContent(const Compiled& compiled)
{
    ByteWriter out;
    writeContent(out, compiled);
    return out.take();
}

std::string
serializeCompiled(const Compiled& compiled)
{
    ByteWriter out;
    writeContent(out, compiled);
    writeStats(out, compiled.stats);
    return out.take();
}

Compiled
deserializeCompiled(const std::string& bytes)
{
    ByteReader in(bytes);
    Compiled compiled;
    compiled.optimized = readExpr(in, 0);
    compiled.program = readProgram(in);
    compiled.key_plan = readKeyPlan(in);
    compiled.key_planned = in.u8() != 0;
    compiled.stats = readStats(in);
    if (!in.atEnd()) {
        throw std::runtime_error("trailing bytes after compiled artifact");
    }
    return compiled;
}

} // namespace chehab::compiler
