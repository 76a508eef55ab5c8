#include "service/batch_planner.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace chehab::service {

namespace {

using compiler::FheInstr;
using compiler::FheOpcode;
using compiler::FheProgram;
using compiler::PackSlot;
using compiler::RotationKeyPlan;

bool
isPow2(int x)
{
    return x > 0 && (x & (x - 1)) == 0;
}

int
nextPow2(int x)
{
    int p = 1;
    while (p < x) p <<= 1;
    return p;
}

/// Conservative lane state of one virtual register at stride S.
///
/// Invariants (per lane region of S slots):
///   - uniform: the packed value is exact and identical in every lane;
///     periodic additionally says the *solo* row is period-S (a
///     replicated or all-zero constant pack), which is what whole-row
///     rotations need to keep a uniform register exact — a
///     non-replicated constant pack is identical per region in the
///     packed row but zero-tailed in the solo row, so rotating it
///     wraps constants where solo semantics has zeros;
///   - otherwise, region offsets [dirty_bot, S - dirty_top) hold
///     exactly what a solo run of that lane would hold there, and
///     offsets [zero_from, S) are zero in solo semantics (zero_from = S
///     when unknown).
struct RegState
{
    bool uniform = false;
    bool periodic = false;
    int dirty_bot = 0;
    int dirty_top = 0;
    int zero_from = 0;
};

/// True when \p x is provably zero — in both packed and solo semantics
/// — at every region offset in [k, S).
bool
zeroAbove(const RegState& x, int k, int stride)
{
    if (k >= stride) return true;
    if (x.uniform) return x.zero_from <= k;
    return x.dirty_top == 0 && x.zero_from <= k && x.dirty_bot <= k;
}

RegState
packState(const FheInstr& instr, int stride)
{
    RegState st;
    const int width = static_cast<int>(instr.slots.size());
    bool all_const = true;
    int last_nonzero = -1;
    for (int i = 0; i < width; ++i) {
        const PackSlot& slot = instr.slots[static_cast<std::size_t>(i)];
        if (slot.kind != PackSlot::Kind::Const) {
            all_const = false;
            break;
        }
        if (slot.value != 0) last_nonzero = i;
    }
    // Constant packs (masks above all) hold the same values in every
    // lane; anything touching inputs is lane-specific. The periodic
    // (rotation-exact) claim for a replicated constant needs its period
    // to divide the stride: per-region replication restarts the phase
    // at every region base, so a non-dividing width disagrees with the
    // solo row's continuous period once a rotation crosses a region
    // boundary. (The scheduler only replicates power-of-two widths, for
    // which pow2 strides always divide evenly, but analyzeLaneFit is a
    // public API and must stay sound for arbitrary programs.)
    st.uniform = all_const;
    st.periodic =
        all_const &&
        ((instr.replicate && width > 0 && stride % width == 0) ||
         last_nonzero < 0);
    if (instr.replicate) {
        // Period-w fill of the whole region: zero only if all-zero.
        st.zero_from = (all_const && last_nonzero < 0) ? 0 : stride;
    } else {
        st.zero_from = all_const ? last_nonzero + 1 : width;
    }
    return st;
}

RegState
combine(const RegState& a, const RegState& b, bool is_mul, int stride)
{
    RegState o;
    o.uniform = a.uniform && b.uniform;
    o.periodic = a.periodic && b.periodic; // Pointwise ops keep period.
    // Virtual zero support of the result: a product is zero where
    // either factor is, a sum/difference where both are.
    o.zero_from = is_mul ? std::min(a.zero_from, b.zero_from)
                         : std::max(a.zero_from, b.zero_from);
    if (o.uniform) return o;

    int dirty_a = a.dirty_top;
    int dirty_b = b.dirty_top;
    if (is_mul) {
        // Mask cleaning: multiplying a dirty top margin by an operand
        // that is provably zero there yields exact zeros — this is how
        // the scheduler's own wraparound masks confine rotation spill.
        if (dirty_a > 0 && zeroAbove(b, stride - dirty_a, stride)) {
            dirty_a = 0;
        }
        if (dirty_b > 0 && zeroAbove(a, stride - dirty_b, stride)) {
            dirty_b = 0;
        }
    }
    o.dirty_top = std::max(dirty_a, dirty_b);
    // Zero knowledge is top-anchored, so bottom margins never clean.
    o.dirty_bot = std::max(a.dirty_bot, b.dirty_bot);
    return o;
}

/// Apply one physical rotation by \p step (positive = left) to \p s.
RegState
rotateState(RegState s, int step, int stride)
{
    if (step == 0) return s;
    // A period-S row rotates identically whole-row or per-region:
    // uniform survives. A uniform-but-aperiodic row (non-replicated
    // constant pack) does not — its packed row repeats the pattern per
    // region while the solo row is zero past the pattern, so rotation
    // wraps constants where solo has zeros. Demote it to the
    // dirty-margin rules, for which its (0, 0, zero_from) state is a
    // valid starting point.
    if (s.uniform && s.periodic) return s;
    s.uniform = false;
    if (step > 0) {
        const int c = std::min(step, stride);
        s.dirty_bot = std::max(0, s.dirty_bot - c);
        s.dirty_top = std::min(stride, s.dirty_top + c);
        // Zeros shift toward the region base but the top c slots now
        // hold (wrapped or neighbouring) unknowns.
        if (s.zero_from != 0) s.zero_from = stride;
        return s;
    }
    const int m = std::min(-step, stride);
    // A right rotation drags the *previous* lane's top slots into this
    // lane's readout zone — unless those slots are provable zeros, in
    // which case the packed row and solo semantics agree.
    if (zeroAbove(s, stride - m, stride)) {
        s.dirty_bot =
            s.dirty_bot == 0 ? 0 : std::min(stride, s.dirty_bot + m);
        s.dirty_top = 0;
    } else {
        s.dirty_bot = std::min(stride, s.dirty_bot + m);
        s.dirty_top = std::max(0, s.dirty_top - m);
    }
    s.zero_from = std::min(stride, s.zero_from + m);
    return s;
}

/// Run the dataflow at one candidate stride. Returns true when the
/// output register's readout window [0, output_width) is certified
/// exact for every lane.
bool
safeAtStride(const FheProgram& program, const RotationKeyPlan& plan,
             int stride, std::string* reason)
{
    // Seed every register as "no knowledge" (zero_from = stride, i.e.
    // no provable zeros): a register read before any instruction
    // writes it must not pass for all-zero, or the mask-cleaning rule
    // could certify an unsound packing. (Such programs fail at
    // execution anyway — FheRuntime::execute refuses them with a
    // CompileError — but the analysis is a public API and must stay
    // conservative on its own.)
    RegState unknown;
    unknown.zero_from = stride;
    std::vector<RegState> regs(
        static_cast<std::size_t>(std::max(program.num_regs, 1)), unknown);
    const auto inFile = [&regs](int reg) {
        return reg >= 0 && static_cast<std::size_t>(reg) < regs.size();
    };
    for (const FheInstr& instr : program.instrs) {
        // An artifact can name registers outside the program's register
        // file; refuse it here (the runtime reports it as a typed
        // error) rather than index past the dataflow state.
        const bool reads_b = instr.op == FheOpcode::Add ||
                             instr.op == FheOpcode::Sub ||
                             instr.op == FheOpcode::Mul ||
                             instr.op == FheOpcode::AddPlain ||
                             instr.op == FheOpcode::MulPlain;
        const bool reads_a = reads_b || instr.op == FheOpcode::Negate ||
                             instr.op == FheOpcode::Rotate;
        if (!inFile(instr.dst) || (reads_a && !inFile(instr.a)) ||
            (reads_b && !inFile(instr.b))) {
            if (reason) *reason = "register outside the register file";
            return false;
        }
        RegState st;
        switch (instr.op) {
          case FheOpcode::PackCipher:
          case FheOpcode::PackPlain:
            if (static_cast<int>(instr.slots.size()) > stride) {
                if (reason) *reason = "pack wider than lane stride";
                return false;
            }
            st = packState(instr, stride);
            break;
          case FheOpcode::Add:
          case FheOpcode::Sub:
          case FheOpcode::AddPlain:
            st = combine(regs[static_cast<std::size_t>(instr.a)],
                         regs[static_cast<std::size_t>(instr.b)],
                         /*is_mul=*/false, stride);
            break;
          case FheOpcode::Mul:
          case FheOpcode::MulPlain:
            st = combine(regs[static_cast<std::size_t>(instr.a)],
                         regs[static_cast<std::size_t>(instr.b)],
                         /*is_mul=*/true, stride);
            break;
          case FheOpcode::Negate:
            st = regs[static_cast<std::size_t>(instr.a)];
            break;
          case FheOpcode::Rotate: {
            auto seq = plan.decomposition.find(instr.step);
            if (seq == plan.decomposition.end()) {
                if (reason) *reason = "rotation step missing from key plan";
                return false;
            }
            // The physical rotations are the decomposed components, but
            // whole-row cyclic shifts compose exactly: the sequence IS
            // the rotation by its net sum, in both packed and solo
            // semantics, and no intermediate row is ever observed. So
            // the dataflow applies the net displacement once — which is
            // what lets a NAF decomposition with negative components
            // (e.g. 3 -> {-1, 4}) certify: component-wise application
            // would smear a spurious dirty bottom margin from the right
            // rotation even though the dragged slots rotate straight
            // back.
            long long net = 0;
            for (int component : seq->second) net += component;
            st = rotateState(
                regs[static_cast<std::size_t>(instr.a)],
                static_cast<int>(std::max<long long>(
                    std::min<long long>(net, stride), -stride)),
                stride);
            break;
          }
        }
        regs[static_cast<std::size_t>(instr.dst)] = st;
    }
    if (program.output_reg < 0 ||
        program.output_reg >= static_cast<int>(regs.size())) {
        if (reason) *reason = "program has no output register";
        return false;
    }
    const RegState& out = regs[static_cast<std::size_t>(program.output_reg)];
    if (out.uniform) return true;
    if (out.dirty_bot > 0) {
        if (reason) *reason = "rotations dirty the lane's readout base";
        return false;
    }
    if (program.output_width > stride - out.dirty_top) {
        if (reason) *reason = "rotation spill reaches the output window";
        return false;
    }
    return true;
}

/// Total order on compile keys, for deterministic member layout.
bool
compileKeyLess(const CacheKey& a, const CacheKey& b)
{
    return std::make_tuple(a.source.hi, a.source.lo, a.pipeline) <
           std::make_tuple(b.source.hi, b.source.lo, b.pipeline);
}

} // namespace

LaneFit
analyzeLaneFit(const compiler::FheProgram& program,
               const compiler::RotationKeyPlan& plan, int row_slots)
{
    LaneFit fit;
    if (!isPow2(row_slots)) {
        fit.reason = "row size is not a power of two";
        return fit;
    }
    int width_max = 1;
    for (const FheInstr& instr : program.instrs) {
        if (instr.op == FheOpcode::PackCipher ||
            instr.op == FheOpcode::PackPlain) {
            width_max = std::max(width_max,
                                 static_cast<int>(instr.slots.size()));
        }
    }
    const int start =
        nextPow2(std::max({1, width_max, program.output_width}));
    std::string reason = "no certifying stride";
    // Safety is monotone in the stride, so the first certified stride
    // is the smallest — and therefore packs the most lanes per row.
    for (int stride = start; stride <= row_slots; stride <<= 1) {
        if (safeAtStride(program, plan, stride, &reason)) {
            fit.safe = true;
            fit.stride = stride;
            fit.max_lanes = row_slots / stride;
            if (fit.max_lanes < 2) {
                fit.safe = false;
                fit.reason = "kernel fills the row; nothing to coalesce";
            }
            return fit;
        }
    }
    fit.reason = reason;
    return fit;
}

std::optional<compiler::RotationKeyPlan>
mergeKeyPlans(const compiler::RotationKeyPlan& a,
              const compiler::RotationKeyPlan& b)
{
    compiler::RotationKeyPlan merged = a;
    for (const auto& [step, sequence] : b.decomposition) {
        auto it = merged.decomposition.find(step);
        if (it == merged.decomposition.end()) {
            merged.decomposition.emplace(step, sequence);
        } else if (it->second != sequence) {
            // The members realize the same logical rotation through
            // different physical sequences; one merged plan cannot
            // honour both certificates.
            return std::nullopt;
        }
    }
    merged.keys.insert(merged.keys.end(), b.keys.begin(), b.keys.end());
    std::sort(merged.keys.begin(), merged.keys.end());
    merged.keys.erase(std::unique(merged.keys.begin(), merged.keys.end()),
                      merged.keys.end());
    return merged;
}

int
BatchPlanner::Group::capacityAt(int at_stride) const
{
    if (at_stride <= 0) return 0;
    const int row_bound = row_slots / at_stride;
    return lanes_cap > 0 ? std::min(row_bound, lanes_cap) : row_bound;
}

namespace {

/// A feasible merge of one group onto one row, computed without
/// mutating either side.
struct MergePlan
{
    int new_stride = 0;
    compiler::RotationKeyPlan merged_plan;
};

/// Can every lane of \p group ride \p row? Same row identity, stride
/// grown to cover both, capacity respected, key plans compatible.
std::optional<MergePlan>
planMerge(const BatchPlanner::Group& row, const BatchPlanner::Group& group)
{
    if (!(row.key == group.key) || row.row_slots != group.row_slots) {
        return std::nullopt;
    }
    const int new_stride = std::max(row.stride, group.stride);
    if (new_stride > row.row_slots || row.row_slots % new_stride != 0) {
        return std::nullopt;
    }
    if (row.total_lanes + group.total_lanes > row.capacityAt(new_stride)) {
        return std::nullopt;
    }
    std::optional<compiler::RotationKeyPlan> merged =
        mergeKeyPlans(row.merged_plan, group.merged_plan);
    if (!merged) return std::nullopt; // Incompatible rotation plans.
    MergePlan plan;
    plan.new_stride = new_stride;
    plan.merged_plan = std::move(*merged);
    return plan;
}

/// Move \p group's members onto \p row under \p plan.
void
commitMerge(BatchPlanner::Group& row, BatchPlanner::Group& group,
            MergePlan plan)
{
    row.stride = plan.new_stride;
    row.merged_plan = std::move(plan.merged_plan);
    row.estimate_sum += group.estimate_sum;
    row.predicted_sum += group.predicted_sum;
    row.total_lanes += group.total_lanes;
    for (BatchPlanner::GroupMember& member : group.members) {
        row.members.push_back(std::move(member));
    }
}

/// Wasted lanes of \p row if \p group joined it at \p new_stride.
int
wasteAfter(const BatchPlanner::Group& row,
           const BatchPlanner::Group& group, int new_stride)
{
    return row.capacityAt(new_stride) -
           (row.total_lanes + group.total_lanes);
}

/// Total order on rows for tie-breaks: compile-key content of the
/// first member, so row choice is a pure function of the flushed set,
/// never of row creation order alone.
bool
rowContentLess(const BatchPlanner::Group& a, const BatchPlanner::Group& b)
{
    return compileKeyLess(a.members.front().compile,
                          b.members.front().compile);
}

/// A chosen seat: the row index and the merge plan that admits it.
struct Seat
{
    std::size_t row = 0;
    MergePlan plan;
};

/// The row in \p rows that \p group should join under \p policy, or
/// nullopt when no row is feasible (or the cost rule prefers an own
/// row). The choice minimizes the resulting predicted row seconds (the
/// makespan objective), then wasted lanes, then row content.
std::optional<Seat>
chooseRow(std::vector<BatchPlanner::Group>& rows,
          const BatchPlanner::Group& group, const ConsolidatePolicy& policy,
          bool allow_new_row)
{
    std::optional<Seat> best;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        std::optional<MergePlan> plan = planMerge(rows[r], group);
        if (!plan) continue;
        if (!best) {
            best = Seat{r, std::move(*plan)};
            continue;
        }
        const auto score = [&](std::size_t idx, const MergePlan& p) {
            return std::make_pair(rows[idx].predicted_sum +
                                      group.predicted_sum,
                                  wasteAfter(rows[idx], group,
                                             p.new_stride));
        };
        const auto cand = score(r, *plan);
        const auto incumbent = score(best->row, best->plan);
        if (cand < incumbent ||
            (cand == incumbent &&
             rowContentLess(rows[r], rows[best->row]))) {
            best = Seat{r, std::move(*plan)};
        }
    }
    if (!best) return std::nullopt;
    if (allow_new_row && policy.shareable && policy.parallelism > 0 &&
        static_cast<int>(rows.size()) < policy.parallelism &&
        !policy.shareable(group)) {
        // Execution-dominated group with worker slots still free:
        // sharing a row would serialize real work for an overhead
        // saving that cannot pay for it — give it its own row.
        return std::nullopt;
    }
    return best;
}

} // namespace

std::optional<BatchPlanner::Group>
BatchPlanner::add(const BatchGroupKey& key, const MemberSpec& member,
                  BatchLane lane, int row_slots, int lanes_cap,
                  Clock::time_point now)
{
    auto it = pending_.find(key);
    if (it == pending_.end()) {
        Group group;
        group.key.params_hash = key.params_hash;
        group.key.key_budget = key.key_budget;
        group.row_slots = row_slots;
        group.lanes_cap = lanes_cap;
        group.stride = member.min_stride;
        group.deadline = now + window_;
        group.merged_plan = *member.plan;
        // One program execution per member, however many lanes ride it:
        // the group's predicted seconds count each member once.
        group.predicted_sum = lane.predicted;
        GroupMember fresh;
        fresh.compile = member.compile;
        fresh.compiled = member.compiled;
        fresh.plan = *member.plan;
        fresh.min_stride = member.min_stride;
        group.members.push_back(std::move(fresh));
        it = pending_.emplace(key, std::move(group)).first;
    }
    Group& group = it->second;
    group.estimate_sum += lane.estimate;
    group.members.front().lanes.push_back(std::move(lane));
    ++group.total_lanes;
    if (group.full()) {
        Group full = std::move(group);
        pending_.erase(it);
        return full;
    }
    return std::nullopt;
}

std::optional<BatchPlanner::Clock::time_point>
BatchPlanner::earliestDeadline() const
{
    std::optional<Clock::time_point> earliest;
    for (const auto& [key, group] : pending_) {
        if (!earliest || group.deadline < *earliest) {
            earliest = group.deadline;
        }
    }
    return earliest;
}

std::vector<BatchPlanner::Group>
BatchPlanner::takeDue(Clock::time_point now)
{
    std::vector<Group> due;
    for (auto it = pending_.begin(); it != pending_.end();) {
        if (it->second.deadline <= now) {
            due.push_back(std::move(it->second));
            it = pending_.erase(it);
        } else {
            ++it;
        }
    }
    return due;
}

std::vector<BatchPlanner::Group>
BatchPlanner::consolidateDue(std::vector<Group> due,
                             const ConsolidatePolicy& policy)
{
    std::vector<Group> rows = consolidateGroups(std::move(due), policy);
    for (auto it = pending_.begin(); it != pending_.end();) {
        // A pending row-mate is pulled forward only when it joins a row
        // — and only when it is overhead-dominated: pulling an
        // execution-dominated mate would serialize its work early when
        // letting it keep its window (and likely its own row) costs
        // nothing.
        bool joined = false;
        if (!policy.shareable || policy.shareable(it->second)) {
            std::optional<Seat> seat = chooseRow(rows, it->second, policy,
                                                 /*allow_new_row=*/false);
            if (seat) {
                commitMerge(rows[seat->row], it->second,
                            std::move(seat->plan));
                joined = true;
            }
        }
        it = joined ? pending_.erase(it) : std::next(it);
    }
    return rows;
}

std::vector<BatchPlanner::Group>
BatchPlanner::takeAll()
{
    std::vector<Group> all;
    all.reserve(pending_.size());
    for (auto& [key, group] : pending_) all.push_back(std::move(group));
    pending_.clear();
    return all;
}

std::size_t
BatchPlanner::pendingLanes() const
{
    std::size_t lanes = 0;
    for (const auto& [key, group] : pending_) {
        lanes += static_cast<std::size_t>(group.total_lanes);
    }
    return lanes;
}

std::vector<BatchPlanner::Group>
consolidateGroups(std::vector<BatchPlanner::Group> groups,
                  const ConsolidatePolicy& policy)
{
    // Sorting first makes the consolidation a pure function of the
    // flushed set (arrival interleaving must not leak into row
    // composition). The heaviest-predicted groups go first — the
    // makespan analogue of longest-processing-time scheduling — with
    // ties broken by wider stride, more lanes, then compile-key
    // content. Every input group keeps its lanes in one member, so
    // each program still executes exactly once.
    std::sort(groups.begin(), groups.end(),
              [](const BatchPlanner::Group& a,
                 const BatchPlanner::Group& b) {
                  if (a.predicted_sum != b.predicted_sum) {
                      return a.predicted_sum > b.predicted_sum;
                  }
                  if (a.stride != b.stride) return a.stride > b.stride;
                  if (a.total_lanes != b.total_lanes) {
                      return a.total_lanes > b.total_lanes;
                  }
                  return compileKeyLess(a.members.front().compile,
                                        b.members.front().compile);
              });
    std::vector<BatchPlanner::Group> rows;
    for (BatchPlanner::Group& group : groups) {
        std::optional<Seat> seat =
            chooseRow(rows, group, policy, /*allow_new_row=*/true);
        if (seat) {
            commitMerge(rows[seat->row], group, std::move(seat->plan));
        } else {
            rows.push_back(std::move(group));
        }
    }
    return rows;
}

std::uint64_t
BatchPlanner::canonicalizeAndSeed(Group& group)
{
    // Neither the member layout nor the lane order may depend on the
    // arrival interleaving: members sort by compile-key content, lanes
    // within a member by the full run identity (lanes are distinct by
    // single-flight, so the tuple is a total order in practice).
    std::stable_sort(group.members.begin(), group.members.end(),
                     [](const GroupMember& a, const GroupMember& b) {
                         return compileKeyLess(a.compile, b.compile);
                     });
    int lane_base = 0;
    for (GroupMember& member : group.members) {
        std::stable_sort(
            member.lanes.begin(), member.lanes.end(),
            [](const BatchLane& a, const BatchLane& b) {
                return std::make_tuple(a.run_key.env_hash,
                                       a.run_key.key_budget,
                                       a.run_key.params_hash,
                                       a.run_key.compile.source.hi,
                                       a.run_key.compile.source.lo,
                                       a.run_key.compile.pipeline) <
                       std::make_tuple(b.run_key.env_hash,
                                       b.run_key.key_budget,
                                       b.run_key.params_hash,
                                       b.run_key.compile.source.hi,
                                       b.run_key.compile.source.lo,
                                       b.run_key.compile.pipeline);
            });
        member.lane_base = lane_base;
        lane_base += static_cast<int>(member.lanes.size());
    }
    std::size_t h = 0x5041434b53454544ULL; // "PACKSEED"
    detail::mix(h, static_cast<std::uint64_t>(group.total_lanes));
    for (const GroupMember& member : group.members) {
        for (const BatchLane& lane : member.lanes) {
            detail::mix(h, static_cast<std::uint64_t>(
                               RunKeyHash{}(lane.run_key)));
        }
    }
    return static_cast<std::uint64_t>(h);
}

std::uint64_t
compositeFingerprint(const BatchPlanner::Group& group)
{
    std::size_t h = 0x434f4d504f534954ULL; // "COMPOSIT"
    detail::mix(h, static_cast<std::uint64_t>(group.stride));
    detail::mix(h, static_cast<std::uint64_t>(group.row_slots));
    // The members' effective key plans — and therefore the composite's
    // merged plan — are a function of (artifact, effective budget), so
    // the budget is part of the composite identity.
    detail::mix(h, static_cast<std::uint64_t>(group.key.key_budget));
    detail::mix(h, group.key.params_hash);
    for (const BatchPlanner::GroupMember& member : group.members) {
        detail::mix(h, member.compile.source.hi);
        detail::mix(h, member.compile.source.lo);
        detail::mix(h, member.compile.pipeline);
        detail::mix(h, static_cast<std::uint64_t>(member.lane_base));
        detail::mix(h, static_cast<std::uint64_t>(member.lanes.size()));
    }
    return static_cast<std::uint64_t>(h);
}

CompositeProgram
composeGroup(const BatchPlanner::Group& group)
{
    CompositeProgram composite;
    composite.row.lane_stride = group.stride;
    composite.plan = group.merged_plan;
    int reg_base = 0;
    for (const BatchPlanner::GroupMember& member : group.members) {
        const FheProgram& source = member.compiled->program;
        compiler::RowMember slice;
        slice.instr_begin =
            static_cast<int>(composite.program.instrs.size());
        for (const FheInstr& instr : source.instrs) {
            FheInstr renamed = instr;
            if (renamed.dst >= 0) renamed.dst += reg_base;
            if (renamed.a >= 0) renamed.a += reg_base;
            if (renamed.b >= 0) renamed.b += reg_base;
            composite.program.instrs.push_back(std::move(renamed));
        }
        slice.instr_end = static_cast<int>(composite.program.instrs.size());
        slice.lane_base = member.lane_base;
        slice.output_reg = source.output_reg + reg_base;
        slice.output_width = source.output_width;
        composite.row.members.push_back(slice);
        // Carry each member's mod-switch plan into the composite stream
        // (points shift by the slice offset). Drops are global barriers
        // at runtime — they switch every member's ciphertexts — so the
        // composite keeps the most conservative margin/floor of any
        // member that requested the pass.
        if (!source.mod_switch.empty()) {
            compiler::ModSwitchPlan& merged = composite.program.mod_switch;
            for (int point : source.mod_switch.points) {
                merged.points.push_back(point + slice.instr_begin);
            }
            merged.margin_bits = std::max(merged.margin_bits,
                                          source.mod_switch.margin_bits);
            merged.min_level =
                std::max(merged.min_level, source.mod_switch.min_level);
        }
        reg_base += std::max(source.num_regs, 1);
    }
    composite.program.num_regs = reg_base;
    // The composite's own output fields are unused (readout happens per
    // member slice), but keep them valid: point them at the last
    // member's output.
    composite.program.output_reg = composite.row.members.back().output_reg;
    composite.program.output_width =
        composite.row.members.back().output_width;
    return composite;
}

} // namespace chehab::service
