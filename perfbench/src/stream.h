/// \file
/// Seeded request streams of the three workloads. The workload seed is
/// the only source of variation: the same seed yields a byte-identical
/// stream (describe() is the byte form the self-tests compare), a
/// different seed a different one. The program under test only ever
/// sees the generated requests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/evaluator.h"
#include "ir/expr.h"
#include "support/rng.h"

namespace chehab::perfbench {

/// A named source program.
struct Program
{
    std::string name;
    ir::ExprPtr source;
};

/// One execution request: an index into a program list plus inputs.
struct RunItem
{
    std::size_t program = 0;
    ir::Env inputs;
};

/// Derive an independent 64-bit seed from \p seed and \p salt.
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/// Inputs for every variable of \p program, drawn from [1, 64].
ir::Env seededInputs(const ir::ExprPtr& program, Rng& rng);

/// \name Fixed program sets (independent of the workload seed)
/// @{
/// compile-greedy's suite share: the §7.2 Porcupine suite at size 8.
std::vector<Program> greedySuite();
/// execute-n4096's kernels: one of each Fig. 5 kernel family.
std::vector<Program> fig5Mix();
/// serve-mixed's pool: the skewed heavy/light suite mix of the repo's
/// load-model and sharded-service benches, plus a fixed motif pool.
std::vector<Program> servePool();
/// @}

/// One round of a compile workload: \p suite at fixed, evenly spaced
/// slots, between \p motifs motif programs synthesized from
/// (seed, round); all canonically distinct.
std::vector<Program> compileRound(const std::vector<Program>& suite,
                                  int motifs, std::uint64_t seed, int round);

/// One cycle of execute-n4096, or one batch of serve-mixed: every
/// program of \p mix once, in a seeded order, each with fresh seeded
/// inputs.
std::vector<RunItem> runCycle(const std::vector<Program>& mix,
                              std::uint64_t seed, int cycle);

/// Byte form of a program list / run-item list, for stream identity.
std::string describe(const std::vector<Program>& programs);
std::string describe(const std::vector<RunItem>& items,
                     const std::vector<Program>& programs);

} // namespace chehab::perfbench
