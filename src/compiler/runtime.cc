#include "compiler/runtime.h"

#include <algorithm>
#include <unordered_set>

#include "compiler/modswitch.h"
#include "support/error.h"
#include "support/stopwatch.h"

namespace chehab::compiler {

FheRuntime::FheRuntime(fhe::SealLiteParams params)
    : scheme_(params),
      plain_eval_(static_cast<std::int64_t>(params.plain_modulus))
{}

std::vector<std::int64_t>
FheRuntime::packBase(const FheInstr& instr, const ir::Env& env) const
{
    const int width = static_cast<int>(instr.slots.size());
    if (width > scheme_.slots()) {
        throw CompileError(
            "pack wider than the batching row (" + std::to_string(width) +
            " > " + std::to_string(scheme_.slots()) +
            "); raise the polynomial modulus degree");
    }
    std::vector<std::int64_t> base(static_cast<std::size_t>(width), 0);
    for (int i = 0; i < width; ++i) {
        const PackSlot& slot = instr.slots[static_cast<std::size_t>(i)];
        switch (slot.kind) {
          case PackSlot::Kind::CtVar:
          case PackSlot::Kind::PtVar: {
            auto it = env.find(slot.name);
            if (it == env.end()) {
                throw CompileError("unbound input '" + slot.name + "'");
            }
            base[static_cast<std::size_t>(i)] = it->second;
            break;
          }
          case PackSlot::Kind::Const:
            base[static_cast<std::size_t>(i)] = slot.value;
            break;
          case PackSlot::Kind::PlainExpr: {
            const ir::Value v = plain_eval_.evaluate(slot.expr, env);
            base[static_cast<std::size_t>(i)] = v.scalar();
            break;
          }
        }
    }
    return base;
}

std::vector<std::int64_t>
FheRuntime::packLaneRegion(const FheInstr& instr, const ir::Env& env,
                           int lane_stride) const
{
    std::vector<std::int64_t> base = packBase(instr, env);
    const int width = static_cast<int>(base.size());
    if (width > lane_stride) {
        throw CompileError("pack wider than the lane stride (" +
                           std::to_string(width) + " > " +
                           std::to_string(lane_stride) + ")");
    }
    if (instr.replicate && width == 0) {
        // Artifact data can carry this; the period-w fill below would
        // divide by zero.
        throw CompileError("replicated pack has no slots");
    }
    std::vector<std::int64_t> region(static_cast<std::size_t>(lane_stride),
                                     0);
    if (instr.replicate) {
        // Period-w replication *within the lane's region*: the stride
        // is a power-of-two multiple of the (power-of-two) pack width,
        // so a whole-row rotation still realizes the width-w cyclic
        // rotation inside every lane.
        for (int i = 0; i < lane_stride; ++i) {
            region[static_cast<std::size_t>(i)] =
                base[static_cast<std::size_t>(i % width)];
        }
    } else {
        std::copy(base.begin(), base.end(), region.begin());
    }
    return region;
}

RotationKeyPlan
effectiveKeyPlan(const FheProgram& program, int key_budget)
{
    // Rotation-key selection (App. B): under a budget, rotations execute
    // as NAF-component sequences.
    const std::vector<int> steps = program.rotationSteps();
    if (key_budget > 0) return selectRotationKeys(steps, key_budget);
    RotationKeyPlan plan;
    plan.keys = steps;
    for (int s : steps) plan.decomposition[s] = {s};
    return plan;
}

RowPlan
programRow(const FheProgram& program, std::vector<const ir::Env*> lanes,
           int lane_stride)
{
    RowMember member;
    member.instr_end = static_cast<int>(program.instrs.size());
    member.output_reg = program.output_reg;
    member.output_width = std::min(program.output_width, lane_stride);
    member.lanes = std::move(lanes);
    return {lane_stride, {std::move(member)}};
}

namespace {

/// Throws CompileError unless \p plan can execute every rotation of
/// \p program on a \p slots-slot row: each step needs a decomposition,
/// and each component that is not a whole-row rotation (zero mod slots)
/// needs a key in plan.keys. A plan from a tampered or stale artifact
/// would otherwise reach SealLite's missing-key assert mid-evaluation.
void
checkKeyPlan(const FheProgram& program, const RotationKeyPlan& plan,
             int slots)
{
    const auto normalized = [slots](int step) {
        return ((step % slots) + slots) % slots;
    };
    for (const FheInstr& instr : program.instrs) {
        if (instr.op != FheOpcode::Rotate) continue;
        const auto it = plan.decomposition.find(instr.step);
        if (it == plan.decomposition.end()) {
            throw CompileError(
                "rotation-key plan has no decomposition for step " +
                std::to_string(instr.step));
        }
        for (int component : it->second) {
            const int needed = normalized(component);
            if (needed == 0) continue;
            const bool keyed = std::any_of(
                plan.keys.begin(), plan.keys.end(),
                [&](int key) { return normalized(key) == needed; });
            if (!keyed) {
                throw CompileError(
                    "rotation-key plan has no Galois key for component " +
                    std::to_string(component) + " of step " +
                    std::to_string(instr.step));
            }
        }
    }
}

/// Throws CompileError unless every register \p row reads is defined
/// when it is read: each register lies in [0, num_regs); a ciphertext
/// operand is the destination of a PackCipher inside a member's slice
/// (packs run before evaluation) or of an earlier op; an
/// AddPlain/MulPlain plaintext operand is the destination of a
/// PackPlain inside a member's slice; and every member's output
/// register is defined. The evaluator's register maps assume all of
/// this, and a tampered or stale artifact would otherwise reach them —
/// consuming an undefined dying operand is undefined behaviour.
void
checkRegisters(const FheProgram& program, const RowPlan& row)
{
    const int num_regs = program.num_regs;
    const auto inRange = [num_regs](int reg) {
        return reg >= 0 && reg < num_regs;
    };
    const auto fail = [num_regs](std::size_t idx, const std::string& what,
                                 int reg) {
        throw CompileError("instruction " + std::to_string(idx) + ": " +
                           what + " r" + std::to_string(reg) + " (" +
                           std::to_string(num_regs) + " registers)");
    };
    // Sets, not num_regs-sized tables: num_regs is artifact data.
    std::unordered_set<int> cipher;
    std::unordered_set<int> plain;
    for (const RowMember& member : row.members) {
        for (int i = member.instr_begin; i < member.instr_end; ++i) {
            const FheInstr& instr =
                program.instrs[static_cast<std::size_t>(i)];
            if (instr.op != FheOpcode::PackCipher &&
                instr.op != FheOpcode::PackPlain) {
                continue;
            }
            if (!inRange(instr.dst)) {
                fail(static_cast<std::size_t>(i), "pack writes", instr.dst);
            }
            (instr.op == FheOpcode::PackCipher ? cipher : plain)
                .insert(instr.dst);
        }
    }
    for (std::size_t idx = 0; idx < program.instrs.size(); ++idx) {
        const FheInstr& instr = program.instrs[idx];
        switch (instr.op) {
          case FheOpcode::PackCipher:
          case FheOpcode::PackPlain:
            if (!inRange(instr.dst)) fail(idx, "pack writes", instr.dst);
            continue;
          case FheOpcode::Add:
          case FheOpcode::Sub:
          case FheOpcode::Mul:
            if (!cipher.count(instr.b)) {
                fail(idx, "reads undefined ciphertext", instr.b);
            }
            break;
          case FheOpcode::AddPlain:
          case FheOpcode::MulPlain:
            if (!plain.count(instr.b)) {
                fail(idx, "reads undefined plaintext", instr.b);
            }
            break;
          case FheOpcode::Negate:
          case FheOpcode::Rotate:
            break;
        }
        if (!cipher.count(instr.a)) {
            fail(idx, "reads undefined ciphertext", instr.a);
        }
        if (!inRange(instr.dst)) fail(idx, "writes", instr.dst);
        cipher.insert(instr.dst);
    }
    for (const RowMember& member : row.members) {
        const int out = member.output_reg;
        if (!cipher.count(out) && !plain.count(out)) {
            throw CompileError("output register r" + std::to_string(out) +
                               " is never defined (" +
                               std::to_string(num_regs) + " registers)");
        }
    }
}

} // namespace

RunResult
FheRuntime::run(const FheProgram& program, const ir::Env& env,
                int key_budget)
{
    return run(program, env, effectiveKeyPlan(program, key_budget));
}

RunResult
FheRuntime::run(const FheProgram& program, const ir::Env& env,
                const RotationKeyPlan& plan)
{
    RowResult row =
        execute(program, plan, programRow(program, {&env}, slots()));
    RunResult result = std::move(row.shared);
    result.output = std::move(row.member_outputs.front().front());
    return result;
}

void
FheRuntime::recycleCiphertexts(
    std::unordered_map<int, fhe::Ciphertext>& cts)
{
    for (auto& entry : cts) {
        scheme_.recycle(std::move(entry.second));
        ++recycled_cts_;
    }
    cts.clear();
}

double
FheRuntime::evaluateServer(
    const FheProgram& program, const RotationKeyPlan& plan,
    const std::vector<int>& levels, const std::vector<LastReads>& last_reads,
    std::unordered_map<int, fhe::Ciphertext>& cts,
    const std::unordered_map<int, fhe::Plaintext>& plains) const
{
    // An operand read for the last time is consumed; any other is
    // cloned. Either way the op then runs in place on the result.
    auto take = [&](int reg, bool last) {
        if (!last) {
            ++inplace_copies_;
            return scheme_.clone(cts.at(reg));
        }
        ++inplace_consumed_;
        auto node = cts.extract(reg);
        return std::move(node.mapped());
    };
    auto discard = [&](int reg) {
        auto node = cts.extract(reg);
        scheme_.recycle(std::move(node.mapped()));
        ++recycled_cts_;
    };

    Stopwatch watch;
    int level = scheme_.levels();
    for (std::size_t idx = 0; idx < program.instrs.size(); ++idx) {
        const FheInstr& instr = program.instrs[idx];
        if (levels[idx] < level) {
            // Every live ciphertext switches down together, so binary
            // ops always see equal levels (in a multi-member row this
            // includes other members' ciphertexts, which is sound
            // because switching is exact per ciphertext).
            level = levels[idx];
            for (auto& [reg, ct] : cts) scheme_.modSwitchTo(ct, level);
        }
        if (instr.op == FheOpcode::PackCipher ||
            instr.op == FheOpcode::PackPlain) {
            continue;
        }
        const LastReads& last = last_reads[idx];
        if (instr.op == FheOpcode::Mul) {
            // multiply() builds its result from the tensor product — no
            // operand to take — but dying operands still recycle.
            fhe::Ciphertext value =
                scheme_.multiply(cts.at(instr.a), cts.at(instr.b));
            if (last.b) discard(instr.b);
            if (last.a) discard(instr.a);
            cts.emplace(instr.dst, std::move(value));
            continue;
        }
        // Add commutes: when only b dies, it takes b and reads a.
        const bool swap = instr.op == FheOpcode::Add && last.b && !last.a;
        const int a = swap ? instr.b : instr.a;
        const int b = swap ? instr.a : instr.b;
        fhe::Ciphertext value = take(a, last.a || swap);
        switch (instr.op) {
          case FheOpcode::Add:
            scheme_.addInPlace(value, b == a ? value : cts.at(b));
            break;
          case FheOpcode::Sub:
            scheme_.subInPlace(value, b == a ? value : cts.at(b));
            break;
          case FheOpcode::AddPlain:
            scheme_.addPlainInPlace(value, plains.at(instr.b));
            break;
          case FheOpcode::MulPlain:
            scheme_.mulPlainInPlace(value, plains.at(instr.b));
            break;
          case FheOpcode::Negate:
            scheme_.negateInPlace(value);
            break;
          case FheOpcode::Rotate:
            for (int component : plan.decomposition.at(instr.step)) {
                fhe::Ciphertext next = scheme_.rotate(value, component);
                scheme_.recycle(std::move(value));
                ++recycled_cts_;
                value = std::move(next);
            }
            break;
          case FheOpcode::PackCipher:
          case FheOpcode::PackPlain:
          case FheOpcode::Mul:
            break; // Handled above.
        }
        if (last.b && !swap) discard(b);
        cts.emplace(instr.dst, std::move(value));
    }
    return watch.elapsedSeconds();
}

RowResult
FheRuntime::execute(const FheProgram& program, const RotationKeyPlan& plan,
                    const RowPlan& row)
{
    const int stride = row.lane_stride;
    if (stride <= 0 || scheme_.slots() % stride != 0) {
        throw CompileError("lane stride " + std::to_string(stride) +
                           " does not tile the " +
                           std::to_string(scheme_.slots()) + "-slot row");
    }
    const int num_regions = scheme_.slots() / stride;
    if (row.members.empty()) throw CompileError("row has no members");
    for (const RowMember& member : row.members) {
        const int lane_count = static_cast<int>(member.lanes.size());
        if (lane_count == 0 || member.lane_base < 0 ||
            member.lane_base + lane_count > num_regions) {
            throw CompileError(
                "lane layout exceeds the batching row (lanes [" +
                std::to_string(member.lane_base) + ", " +
                std::to_string(member.lane_base + lane_count) + ") of " +
                std::to_string(num_regions) + ")");
        }
        if (member.instr_begin < 0 || member.instr_begin > member.instr_end ||
            member.instr_end > static_cast<int>(program.instrs.size())) {
            throw CompileError("row member outside the instruction stream");
        }
        if (member.output_width < 0 || member.output_width > stride) {
            throw CompileError("output width " +
                               std::to_string(member.output_width) +
                               " does not fit the lane stride " +
                               std::to_string(stride));
        }
    }
    checkRegisters(program, row);
    checkKeyPlan(program, plan, scheme_.slots());

    const Stopwatch setup_watch;
    RowResult row_result;
    RunResult& result = row_result.shared;
    result.counts = program.counts();
    result.fresh_noise_budget = scheme_.freshNoiseBudget();
    // Every drop is decided here, from the program, the plan and the
    // scheme alone (compiler/modswitch.h). freshNoiseBudget() encrypts
    // on first use, so it stays ahead of the packs' encryptions.
    // checkRegisters guarantees an instruction, so levels is not empty.
    const std::vector<int> levels = modswitch::levelSchedule(
        program, plan,
        modswitch::noiseParamsFor(scheme_, result.fresh_noise_budget));
    result.mod_switch_drops = scheme_.levels() - levels.back();

    scheme_.makeGaloisKeys(plan.keys);
    result.rotation_keys = static_cast<int>(plan.keys.size());

    // Client-side phase: every pack instruction belongs to exactly one
    // member slice; its regions carry that member's lanes at the
    // member's lane block and phantom copies of its first lane
    // everywhere else. The row is encoded once per instruction and
    // encrypted once per PackCipher.
    std::unordered_map<int, fhe::Ciphertext> cts;
    std::unordered_map<int, fhe::Plaintext> plains;
    std::vector<std::vector<std::int64_t>> regions(
        static_cast<std::size_t>(num_regions));
    for (const RowMember& member : row.members) {
        const int lane_count = static_cast<int>(member.lanes.size());
        for (int i = member.instr_begin; i < member.instr_end; ++i) {
            const FheInstr& instr =
                program.instrs[static_cast<std::size_t>(i)];
            if (instr.op != FheOpcode::PackCipher &&
                instr.op != FheOpcode::PackPlain) {
                continue;
            }
            for (int r = 0; r < num_regions; ++r) {
                const int lane = r - member.lane_base;
                const ir::Env& env =
                    (lane >= 0 && lane < lane_count)
                        ? *member.lanes[static_cast<std::size_t>(lane)]
                        : *member.lanes.front();
                regions[static_cast<std::size_t>(r)] =
                    packLaneRegion(instr, env, stride);
            }
            fhe::Plaintext plain = scheme_.encodeLanes(regions, stride);
            if (instr.op == FheOpcode::PackCipher) {
                cts.emplace(instr.dst, scheme_.encrypt(plain));
            } else {
                plains.emplace(instr.dst, std::move(plain));
            }
        }
    }

    // Last reads, decided before evaluation too. Walking the stream
    // backwards, an instruction reads a ciphertext operand for the last
    // time when no later instruction reads it (AddPlain/MulPlain's b
    // names a plaintext register, so only a counts there). Every
    // member's output register must survive to the readout below, so
    // it never dies; with in-place evaluation off nothing does.
    std::vector<LastReads> last_reads(program.instrs.size());
    if (in_place_enabled_) {
        std::unordered_set<int> read_later;
        for (const RowMember& member : row.members) {
            read_later.insert(member.output_reg);
        }
        for (std::size_t idx = program.instrs.size(); idx-- > 0;) {
            const FheInstr& instr = program.instrs[idx];
            if (instr.op == FheOpcode::PackCipher ||
                instr.op == FheOpcode::PackPlain) {
                continue;
            }
            LastReads& last = last_reads[idx];
            last.a = read_later.insert(instr.a).second;
            if (instr.op == FheOpcode::Add || instr.op == FheOpcode::Sub ||
                instr.op == FheOpcode::Mul) {
                last.b = read_later.insert(instr.b).second;
            }
        }
    }

    result.setup_seconds = setup_watch.elapsedSeconds();
    result.exec_seconds =
        evaluateServer(program, plan, levels, last_reads, cts, plains);
    const Stopwatch decode_watch;

    // Per-member readout: each member's output lives in its own
    // register, so noise accounting is per member; the shared result
    // reports the minimum so a caller's exhausted-budget check stays
    // conservative.
    for (const RowMember& member : row.members) {
        const int lane_count = static_cast<int>(member.lanes.size());
        auto out = cts.find(member.output_reg);
        if (out != cts.end()) {
            const fhe::SealLite::Readout readout =
                scheme_.readout(out->second);
            row_result.member_final_budgets.push_back(readout.budget);
            row_result.member_outputs.push_back(scheme_.decodeLanes(
                readout.plain, stride, member.output_width, lane_count,
                member.lane_base));
        } else {
            // All-plaintext member: nothing homomorphic ran for it.
            row_result.member_final_budgets.push_back(
                result.fresh_noise_budget);
            row_result.member_outputs.push_back(scheme_.decodeLanes(
                plains.at(member.output_reg), stride, member.output_width,
                lane_count, member.lane_base));
        }
    }
    result.final_noise_budget =
        *std::min_element(row_result.member_final_budgets.begin(),
                          row_result.member_final_budgets.end());
    result.consumed_noise =
        result.fresh_noise_budget - result.final_noise_budget;
    result.decode_seconds = decode_watch.elapsedSeconds();
    recycleCiphertexts(cts);
    return row_result;
}

OpLatencies
FheRuntime::calibrate(int reps)
{
    OpLatencies lat;
    scheme_.makeGaloisKeys({1});
    const fhe::Plaintext plain = scheme_.encode({1, 2, 3, 4});
    const fhe::Ciphertext ct = scheme_.encrypt(plain);

    auto median_time = [&](auto&& fn) {
        std::vector<double> times;
        for (int i = 0; i < reps; ++i) {
            Stopwatch watch;
            fn();
            times.push_back(watch.elapsedSeconds());
        }
        std::sort(times.begin(), times.end());
        return times[times.size() / 2];
    };

    lat.ct_add = median_time([&] { (void)scheme_.add(ct, ct); });
    lat.ct_ct_mul = median_time([&] { (void)scheme_.multiply(ct, ct); });
    lat.ct_pt_mul = median_time([&] { (void)scheme_.mulPlain(ct, plain); });
    lat.rotation = median_time([&] { (void)scheme_.rotate(ct, 1); });
    return lat;
}

double
FheRuntime::estimate(const FheProgram& program,
                     const OpLatencies& lat) const
{
    const FheProgram::Counts counts = program.counts();
    return counts.ct_add * lat.ct_add + counts.ct_ct_mul * lat.ct_ct_mul +
           counts.ct_pt_mul * lat.ct_pt_mul +
           counts.rotations * lat.rotation;
}

} // namespace chehab::compiler
