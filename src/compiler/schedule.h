/// \file
/// Instruction scheduling: lowers an optimized IR expression into a
/// linear FHE instruction stream over virtual ciphertext registers.
///
/// This is where the "rotations and maskings we omit showing" of §2 are
/// materialized:
///  - structurally identical subtrees are computed once (CSE),
///  - leaf packs become client-side packing loads (§7.3) and are
///    *replicated* across the ciphertext row when their width is a power
///    of two, so one ciphertext rotation implements the width-w cyclic
///    rotation the IR semantics require,
///  - rotations of non-replicable (non-power-of-two width) vectors lower
///    to the two-rotation + two-mask + add sequence,
///  - packing computed scalars into a vector lowers to mask-multiply,
///    rotate, add per slot.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/expr.h"

namespace chehab::compiler {

/// Virtual-register FHE opcode (maps 1:1 onto SEAL/SealLite calls).
enum class FheOpcode : std::uint8_t {
    PackCipher, ///< Client packs+encrypts input slots -> dst.
    PackPlain,  ///< Client packs a plaintext operand -> dst.
    Add,        ///< dst = a + b (ct, ct).
    Sub,        ///< dst = a - b.
    Mul,        ///< dst = a * b (ct-ct, relinearized).
    AddPlain,   ///< dst = a + plain(b).
    MulPlain,   ///< dst = a * plain(b).
    Negate,     ///< dst = -a.
    Rotate,     ///< dst = a << step (ciphertext rotation).
};

/// One packed slot of an input/mask vector.
struct PackSlot
{
    enum class Kind : std::uint8_t {
        CtVar,     ///< Ciphertext input variable.
        PtVar,     ///< Plaintext input variable.
        Const,     ///< Literal constant.
        PlainExpr, ///< Plaintext expression computed before encoding.
    } kind = Kind::Const;
    std::string name;       ///< For CtVar/PtVar.
    std::int64_t value = 0; ///< For Const.
    ir::ExprPtr expr;       ///< For PlainExpr.
};

/// One scheduled instruction.
struct FheInstr
{
    FheOpcode op = FheOpcode::Add;
    int dst = -1;
    int a = -1;
    int b = -1;
    int step = 0;                 ///< Rotate.
    std::vector<PackSlot> slots;  ///< PackCipher/PackPlain contents.
    bool replicate = false;       ///< Replicate the pack across the row.
};

/// Candidate modulus-switch drop points chosen by the mod-switch pass.
/// The pass runs before parameters are known, so it only marks *where*
/// a drop is structurally profitable (after a ciphertext multiply with
/// further work remaining); the runtime decides once per execution,
/// before evaluating (modswitch::levelSchedule, a deterministic noise
/// simulation against the actual chain), whether each point actually
/// drops. Empty plan = pass not run = no drops.
struct ModSwitchPlan
{
    std::vector<int> points; ///< Instruction indices; drop happens *before*
                             ///  executing the instruction at each index.
    int margin_bits = 12;    ///< Safety margin every drop must keep.
    int min_level = 2;       ///< Never drop below this many chain primes.

    bool empty() const { return points.empty(); }
};

/// A scheduled program.
struct FheProgram
{
    std::vector<FheInstr> instrs;
    int num_regs = 0;
    int output_reg = -1;
    int output_width = 1;
    ModSwitchPlan mod_switch;

    /// Distinct ciphertext rotation steps (the χ set of App. B).
    std::vector<int> rotationSteps() const;

    /// Canonical textual disassembly of the instruction stream: one
    /// line per instruction plus the register/output footer. Two
    /// programs disassemble identically iff their instruction streams
    /// are identical, so this doubles as the byte-exact comparison key
    /// the compile service's determinism guarantee is stated over.
    std::string disassemble() const;

    /// Tallies per opcode, for Table 6 and the latency estimator.
    struct Counts
    {
        int pack_cipher = 0;
        int pack_plain = 0;
        int ct_add = 0;      ///< Add/Sub/Negate.
        int ct_ct_mul = 0;
        int ct_pt_mul = 0;
        int rotations = 0;
    };
    Counts counts() const;
};

/// Lower \p optimized into an instruction stream. Throws CompileError on
/// IR that does not type check.
FheProgram schedule(const ir::ExprPtr& optimized);

} // namespace chehab::compiler
