#include "stream.h"

#include <algorithm>
#include <map>

#include "benchsuite/kernels.h"
#include "dataset/dataset.h"
#include "dataset/motif_gen.h"
#include "ir/analysis.h"

namespace chehab::perfbench {

namespace {

/// serve-mixed's motif pool seed: fixed, so the pool and its compiled
/// costs are the same for every workload seed.
constexpr std::uint64_t kServePoolSeed = 0x5e77e;
constexpr int kServeMotifs = 12;

std::vector<Program>
fromKernels(const std::vector<benchsuite::Kernel>& kernels)
{
    std::vector<Program> out;
    out.reserve(kernels.size());
    for (const benchsuite::Kernel& kernel : kernels) {
        out.push_back({kernel.name, kernel.program});
    }
    return out;
}

std::vector<ir::ExprPtr>
sources(const std::vector<Program>& programs)
{
    std::vector<ir::ExprPtr> out;
    out.reserve(programs.size());
    for (const Program& program : programs) out.push_back(program.source);
    return out;
}

template <class T>
void
shuffle(std::vector<T>& items, Rng& rng)
{
    for (std::size_t i = items.size(); i > 1; --i) {
        std::swap(items[i - 1], items[rng.pickIndex(i)]);
    }
}

/// Motif programs are capped in size: greedy compile time grows
/// super-linearly in node count, and the rare large motif would make
/// the latency tail a matter of seed. The fixed suite kernels own the
/// tail instead.
constexpr int kMaxMotifNodes = 40;

std::vector<ir::ExprPtr>
motifs(std::uint64_t seed, int count, const std::vector<Program>& excluded)
{
    dataset::MotifSynthesizer synth(seed);
    return dataset::buildDataset(
        [&synth] {
            ir::ExprPtr program = synth.generate();
            while (program->numNodes() > kMaxMotifNodes) {
                program = synth.generate();
            }
            return program;
        },
        count, sources(excluded));
}

} // namespace

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

ir::Env
seededInputs(const ir::ExprPtr& program, Rng& rng)
{
    ir::Env env;
    for (const std::string& name : ir::ciphertextVars(program)) {
        env[name] = rng.uniformRange(1, 64);
    }
    for (const std::string& name : ir::plaintextVars(program)) {
        env[name] = rng.uniformRange(1, 64);
    }
    return env;
}

std::vector<Program>
greedySuite()
{
    return fromKernels(benchsuite::porcupineSuite(8));
}

std::vector<Program>
fig5Mix()
{
    return fromKernels({benchsuite::dotProduct(8), benchsuite::l2Distance(8),
                        benchsuite::polyReg(8), benchsuite::boxBlur(4),
                        benchsuite::matMul(2), benchsuite::maxKernel(4)});
}

std::vector<Program>
servePool()
{
    // The skewed mix of bench_load_model and bench_sharded_service: four
    // heavy wide reductions buried in twelve light kernels.
    std::vector<Program> pool = fromKernels(
        {benchsuite::dotProduct(32), benchsuite::l2Distance(32),
         benchsuite::polyReg(16), benchsuite::hammingDistance(32),
         benchsuite::dotProduct(2), benchsuite::polyReg(2),
         benchsuite::l2Distance(2), benchsuite::linearReg(2),
         benchsuite::hammingDistance(2), benchsuite::dotProduct(4),
         benchsuite::polyReg(4), benchsuite::l2Distance(4),
         benchsuite::linearReg(4), benchsuite::hammingDistance(4),
         benchsuite::dotProduct(8), benchsuite::linearReg(8)});
    const std::vector<ir::ExprPtr> extra =
        motifs(kServePoolSeed, kServeMotifs, pool);
    for (std::size_t i = 0; i < extra.size(); ++i) {
        pool.push_back({"motif." + std::to_string(i), extra[i]});
    }
    return pool;
}

std::vector<Program>
compileRound(const std::vector<Program>& suite, int count,
             std::uint64_t seed, int round)
{
    // Suite kernels sit at fixed, evenly spaced slots, largest and
    // smallest alternating, so heavy compiles never pile up by chance of
    // the seed; the seed decides the motif programs between them.
    std::vector<Program> by_size = suite;
    std::stable_sort(by_size.begin(), by_size.end(),
                     [](const Program& a, const Program& b) {
                         return a.source->numNodes() > b.source->numNodes();
                     });
    std::vector<Program> spread;
    for (std::size_t lo = 0, hi = by_size.size(); lo < hi;) {
        spread.push_back(by_size[lo++]);
        if (lo < hi) spread.push_back(by_size[--hi]);
    }
    const std::vector<ir::ExprPtr> extra = motifs(
        mixSeed(seed, static_cast<std::uint64_t>(round)), count, suite);
    const std::size_t total = spread.size() + extra.size();
    std::vector<Program> out;
    out.reserve(total);
    std::size_t next_suite = 0;
    std::size_t next_motif = 0;
    for (std::size_t slot = 0; slot < total; ++slot) {
        const bool suite_slot =
            next_suite < spread.size() &&
            (next_motif == extra.size() ||
             slot * spread.size() >= next_suite * total + total / 2);
        if (suite_slot) {
            out.push_back(spread[next_suite++]);
        } else {
            out.push_back({"motif." + std::to_string(round) + "." +
                               std::to_string(next_motif),
                           extra[next_motif]});
            ++next_motif;
        }
    }
    return out;
}

std::vector<RunItem>
runCycle(const std::vector<Program>& mix, std::uint64_t seed, int cycle)
{
    Rng rng(mixSeed(seed, 0x10000 + static_cast<std::uint64_t>(cycle)));
    std::vector<RunItem> items(mix.size());
    for (std::size_t i = 0; i < mix.size(); ++i) items[i].program = i;
    shuffle(items, rng);
    for (RunItem& item : items) {
        item.inputs = seededInputs(mix[item.program].source, rng);
    }
    return items;
}

std::string
describe(const std::vector<Program>& programs)
{
    std::string out;
    for (const Program& program : programs) {
        out += program.name + "\t" + program.source->toString() + "\n";
    }
    return out;
}

std::string
describe(const std::vector<RunItem>& items,
         const std::vector<Program>& programs)
{
    std::string out;
    for (const RunItem& item : items) {
        out += programs[item.program].name;
        const std::map<std::string, std::int64_t> sorted(item.inputs.begin(),
                                                         item.inputs.end());
        for (const auto& [name, value] : sorted) {
            out += " " + name + "=" + std::to_string(value);
        }
        out += "\n";
    }
    return out;
}

} // namespace chehab::perfbench
