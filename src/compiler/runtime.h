/// \file
/// Execution of scheduled FHE programs on the SealLite backend, plus the
/// calibrated latency estimator used when a circuit is too large to run
/// end-to-end on a toy machine.
#pragma once

#include <unordered_map>
#include <vector>

#include "compiler/keyselect.h"
#include "compiler/schedule.h"
#include "fhe/sealite.h"
#include "ir/evaluator.h"

namespace chehab::compiler {

/// Outcome of executing one program.
struct RunResult
{
    std::vector<std::int64_t> output; ///< First output_width slots.
    double exec_seconds = 0.0;        ///< Server-side evaluation only.
    /// Wall time of everything before the server-side evaluation:
    /// Galois key generation, packing, encoding and encryption. This is
    /// the fixed per-row cost that slot batching amortizes across
    /// lanes; the service's load model reads it to price row sharing
    /// (see service/load_model.h).
    double setup_seconds = 0.0;
    /// Wall time of everything after the server-side evaluation:
    /// decryption, decoding and the per-lane output scatter. Completes
    /// the setup/evaluate/decode phase split that the telemetry layer
    /// (support/telemetry.h) exports per request.
    double decode_seconds = 0.0;
    int fresh_noise_budget = 0;
    int final_noise_budget = 0;       ///< <= 0 means budget exhausted.
    int consumed_noise = 0;           ///< CN of Table 6.
    FheProgram::Counts counts;
    int rotation_keys = 0;            ///< Keys generated (after App. B).
    /// Modulus drops the run took: the full chain minus the level of
    /// the drop schedule's last instruction (0 when the pass did not
    /// run or no marked point passed the noise model; see
    /// modswitch::levelSchedule). Deterministic per (program, plan,
    /// params).
    int mod_switch_drops = 0;
};

/// One member of a row: a contiguous slice of the row's instruction
/// stream — a whole program, or one renamed program of a cross-kernel
/// composite — and the lanes it carries. Lane l of the member occupies
/// row lane lane_base + l; every other region of the member's own
/// ciphertexts is phantom-padded with a copy of its first lane, so each
/// member's rows are fully laned (the shape the service's per-member
/// lane-safety certificate assumes, and, for a one-lane member at
/// stride = slots(), exactly a solo run's row).
struct RowMember
{
    int instr_begin = 0; ///< First instruction of this member's slice.
    int instr_end = 0;   ///< One past the last instruction.
    int lane_base = 0;   ///< First row lane this member owns.
    int output_reg = -1;
    int output_width = 1; ///< Slots read out per lane (<= the stride).
    /// One input environment per lane; not owned.
    std::vector<const ir::Env*> lanes;
};

/// What FheRuntime::execute runs: a lane stride that tiles the row and
/// the members sharing it. Members never share registers, so each
/// member's values stay exactly its own.
struct RowPlan
{
    int lane_stride = 0;
    std::vector<RowMember> members;
};

/// The row that runs all of \p program once over \p lanes (lane l at
/// row lane l) at \p lane_stride. Each lane reads out the program's
/// first output_width slots, cut to the stride, as a solo run at
/// stride = slots() cuts a too-wide output to the row.
RowPlan programRow(const FheProgram& program,
                   std::vector<const ir::Env*> lanes, int lane_stride);

/// Outcome of executing one row: shared accounting plus, per member,
/// its own final noise budget and its lanes' output slices.
struct RowResult
{
    /// Setup/evaluate/decode timings, counts, fresh budget, rotation
    /// keys and mod-switch drops of the whole row. Its final budget is
    /// the minimum over the members' (consumed_noise to match); output
    /// is left empty.
    RunResult shared;
    /// Final noise budget of each member's output ciphertext (<= 0
    /// means that member's outputs are not trustworthy).
    std::vector<int> member_final_budgets;
    /// member_outputs[m][l] = member m's lane l output slice.
    std::vector<std::vector<std::vector<std::int64_t>>> member_outputs;
};

/// Counters for the destructive (in-place) evaluator.
struct InPlaceStats
{
    /// Operands destructively consumed at their last use (no copy).
    std::uint64_t consumed = 0;
    /// Clone fallbacks taken because the operand stayed live.
    std::uint64_t copies = 0;
    /// Dead ciphertexts returned to the scheme's arena.
    std::uint64_t recycled = 0;
};

/// Per-operation latencies measured on the backend (seconds).
struct OpLatencies
{
    double ct_add = 0.0;
    double ct_ct_mul = 0.0;
    double ct_pt_mul = 0.0;
    double rotation = 0.0;
};

/// The rotation-key plan run() uses for \p key_budget: the App. B NAF
/// selection when the budget is positive, otherwise one dedicated key
/// per distinct step. Exposed so the service's batch planner can
/// analyze the exact decomposed rotation sequence a run will execute.
RotationKeyPlan effectiveKeyPlan(const FheProgram& program, int key_budget);

/// Runs FheProgram instruction streams against one SealLite instance.
class FheRuntime
{
  public:
    explicit FheRuntime(fhe::SealLiteParams params = {});

    /// Execute \p program with inputs from \p env: a one-lane row at
    /// stride = slots() (see execute). When \p key_budget > 0, rotation
    /// keys are selected with the App. B NAF pass under that budget and
    /// decomposed rotations run as sequences; otherwise one key per
    /// distinct step is generated.
    RunResult run(const FheProgram& program, const ir::Env& env,
                  int key_budget = 0);

    /// Execute \p program under a precomputed rotation-key plan (e.g.
    /// the compiler's key-select pass output).
    RunResult run(const FheProgram& program, const ir::Env& env,
                  const RotationKeyPlan& plan);

    /// The one row executor. Runs the instruction stream of \p program
    /// once on this runtime under \p plan: each pack instruction of a
    /// member loads that member's lane environments into their lane
    /// regions of one shared row (replicated packs replicate within
    /// each region, non-replicated packs load at the region base with
    /// the rest of the region zeroed, plaintext masks repeat per
    /// region), and each member's output register is read out as
    /// per-lane slices. Solo runs, same-kernel packed rows and
    /// cross-kernel composites are all rows; they differ only in the
    /// stride and the members.
    ///
    /// Throws CompileError, before any key is generated, when the row
    /// layout does not fit (stride must tile the row, members' lane
    /// blocks and instruction ranges must lie inside it, outputs must
    /// fit the stride), when a register is read before anything defines
    /// it (out of [0, num_regs), a ciphertext operand no earlier op or
    /// in-slice PackCipher writes, a plaintext operand no in-slice
    /// PackPlain writes, an undefined member output), or when \p plan
    /// cannot execute a rotation of the program (a step without a
    /// decomposition, or a component that needs a Galois key the plan
    /// does not name). The caller (the
    /// service's batch planner) is responsible for having certified
    /// every member of a multi-lane row lane-safe at the stride.
    RowResult execute(const FheProgram& program, const RotationKeyPlan& plan,
                      const RowPlan& row);

    /// Microbenchmark the four op classes (median of \p reps).
    OpLatencies calibrate(int reps = 3);

    /// Estimated runtime of \p program from calibrated op latencies
    /// (for circuits too big to execute end-to-end).
    double estimate(const FheProgram& program, const OpLatencies& lat) const;

    fhe::SealLite& scheme() { return scheme_; }
    int slots() const { return scheme_.slots(); }

    /// \name Destructive evaluation control and observability
    /// The server-side evaluator consumes an operand at its last read
    /// over the linear program, cutting the c0/c1 copy a clone pays.
    /// Output registers are never consumed. Disabled = every op clones
    /// (the in-place-vs-copying differential tests run both ways;
    /// results are bit-identical either way).
    /// @{
    void setInPlaceEnabled(bool enabled) { in_place_enabled_ = enabled; }
    bool inPlaceEnabled() const { return in_place_enabled_; }
    InPlaceStats inPlaceStats() const
    {
        return {inplace_consumed_, inplace_copies_, recycled_cts_};
    }
    /// The backing scheme's arena counters (see fhe::PolyArena).
    fhe::PolyArena::Stats arenaStats() const { return scheme_.arenaStats(); }
    /// @}

  private:
    /// The instruction's base pack pattern (width = slots.size()),
    /// before any replication.
    std::vector<std::int64_t> packBase(const FheInstr& instr,
                                       const ir::Env& env) const;
    /// Lane l's region (length \p lane_stride) for \p instr.
    std::vector<std::int64_t> packLaneRegion(const FheInstr& instr,
                                             const ir::Env& env,
                                             int lane_stride) const;
    /// Hand every ciphertext still alive after readout back to the
    /// scheme's arena. Without this the map's destructor frees the
    /// arena-born buffers and the next run on this runtime mints
    /// replacements, so steady state never reaches zero allocations.
    void recycleCiphertexts(std::unordered_map<int, fhe::Ciphertext>& cts);
    /// Which ciphertext operands an instruction reads for the last
    /// time (b only for Add, Sub and Mul, and never when b == a).
    struct LastReads
    {
        bool a = false;
        bool b = false;
    };
    /// The timed server-side phase of execute(): one loop over the
    /// instruction stream, with every decision made beforehand. Before
    /// instruction i, when \p levels[i] (modswitch::levelSchedule) is
    /// below the current level, every live ciphertext switches down to
    /// it in lockstep, so binary ops always see equal levels. Each op
    /// other than Mul takes its first operand — consumed when
    /// \p last_reads marks its last read, cloned otherwise — and runs
    /// in place (Add takes b instead when only b dies); Mul multiplies
    /// out of place. Operands read for the last time are recycled
    /// eagerly, which also shrinks the lockstep switch.
    double evaluateServer(
        const FheProgram& program, const RotationKeyPlan& plan,
        const std::vector<int>& levels,
        const std::vector<LastReads>& last_reads,
        std::unordered_map<int, fhe::Ciphertext>& cts,
        const std::unordered_map<int, fhe::Plaintext>& plains) const;

    fhe::SealLite scheme_;
    ir::Evaluator plain_eval_;
    bool in_place_enabled_ = true;
    mutable std::uint64_t inplace_consumed_ = 0;
    mutable std::uint64_t inplace_copies_ = 0;
    mutable std::uint64_t recycled_cts_ = 0;
};

} // namespace chehab::compiler
