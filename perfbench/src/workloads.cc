#include "workloads.h"

#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <map>
#include <utility>

#include "benchsuite/kernels.h"
#include "compiler/runtime.h"
#include "dataset/dataset.h"
#include "dataset/motif_gen.h"
#include "ir/cost_model.h"
#include "ir/evaluator.h"
#include "run_check.h"
#include "service/shard_router.h"
#include "support/stopwatch.h"

namespace chehab::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Requests a compile client keeps in flight: one per worker. Deeper
/// queues let the longest-predicted-first dispatch park light compiles
/// behind heavy ones, which made latency percentiles a matter of chance.
constexpr int kCompileInflight = kServiceWorkers;
/// Motif programs per compile round, beside the suite kernels.
constexpr int kCompileMotifs = 48;
/// serve-mixed's service shape, that of the repo's sharded-service
/// bench: lanes per row, batch window, and the warm-up rounds that train
/// the load model before the window.
constexpr int kServeLanes = 8;
constexpr double kServeWindowSeconds = 0.002;
constexpr int kServeWarmupRounds = 4;
/// Fixed randomness of the quality pass (noise is measured on fixed
/// inputs and fixed encryption randomness, so it repeats exactly).
constexpr std::uint64_t kQualitySeed = 0x0a11ce;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
geomean(const std::vector<double>& values)
{
    double log_sum = 0.0;
    for (const double value : values) log_sum += std::log(value);
    return values.empty() ? 0.0
                          : std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<int>& values)
{
    double sum = 0.0;
    for (const int value : values) sum += value;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double
relativeError(double predicted, double measured)
{
    return measured > 0.0 ? std::fabs(predicted - measured) / measured : 0.0;
}

/// Keep \p inflight requests outstanding from one client thread until
/// more(next) turns false, then drain. complete(index, response,
/// latency) runs on the client thread as each response is observed.
/// Returns the wall time from the first submission to the last
/// response.
template <class Response, class More, class Submit, class Complete>
double
closedLoop(int inflight, More more, Submit submit, Complete complete,
           Tracer* tracer)
{
    struct Pending
    {
        std::size_t index = 0;
        Clock::time_point start;
        std::int64_t start_ns = 0;
        std::future<Response> future;
    };
    std::deque<Pending> open;
    std::size_t next = 0;
    const Clock::time_point begin = Clock::now();
    for (;;) {
        while (static_cast<int>(open.size()) < inflight && more(next)) {
            Pending pending;
            pending.index = next;
            pending.start_ns = tracer ? tracer->recorder.nowNs() : 0;
            pending.start = Clock::now();
            pending.future = submit(next);
            open.push_back(std::move(pending));
            ++next;
        }
        if (open.empty()) break;
        bool progressed = false;
        for (auto it = open.begin(); it != open.end();) {
            if (it->future.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                ++it;
                continue;
            }
            const Clock::time_point end = Clock::now();
            if (tracer) {
                tracer->recorder.span("request",
                                      telemetry::TraceRecorder::clientTid(),
                                      it->start_ns, tracer->recorder.nowNs(),
                                      it->index + 1);
            }
            complete(it->index, it->future.get(), seconds(it->start, end));
            it = open.erase(it);
            progressed = true;
        }
        if (!progressed) {
            open.front().future.wait_for(std::chrono::microseconds(100));
        }
    }
    return seconds(begin, Clock::now());
}

/// Solo runs of \p compiled on a fresh runtime with synthetic inputs
/// and fixed encryption randomness: the consumed noise of each.
struct NoisePass
{
    std::vector<int> consumed;
    std::uint64_t mismatches = 0;
};

NoisePass
soloNoise(compiler::FheRuntime& runtime, const std::vector<Program>& programs,
          const std::vector<compiler::Compiled>& compiled)
{
    NoisePass pass;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const ir::Env env = benchsuite::syntheticInputs(programs[i].source);
        runtime.scheme().reseedRandomness(mixSeed(kQualitySeed, i));
        const compiler::RunResult result = runCompiled(runtime, compiled[i], env);
        pass.consumed.push_back(result.consumed_noise);
        if (!outputMatches(programs[i].source, env, result.output,
                           runtime.scheme().params().plain_modulus)) {
            ++pass.mismatches;
        }
    }
    return pass;
}

/// Quality of \p compiled: cost geomean, and the mean noise of two solo
/// passes that must agree bit for bit.
Quality
qualityOf(const std::vector<Program>& programs,
          const std::vector<compiler::Compiled>& compiled,
          const fhe::SealLiteParams& params)
{
    Quality quality;
    std::vector<double> costs;
    for (const compiler::Compiled& artifact : compiled) {
        costs.push_back(ir::cost(artifact.optimized));
    }
    quality.cost_geomean = geomean(costs);
    compiler::FheRuntime runtime(params);
    runtime.scheme().freshNoiseBudget();
    const NoisePass first = soloNoise(runtime, programs, compiled);
    const NoisePass second = soloNoise(runtime, programs, compiled);
    quality.noise_mean = mean(first.consumed);
    quality.repeatable = first.consumed == second.consumed;
    quality.mismatches = first.mismatches + second.mismatches;
    return quality;
}

service::ServiceConfig
serviceConfig(bool telemetry)
{
    service::ServiceConfig config;
    config.num_workers = kServiceWorkers;
    config.telemetry = telemetry;
    return config;
}

// ----------------------------------------------------- compile-greedy

/// Compile-only requests through the greedy pipeline, all distinct: each
/// round is the suite plus fresh seeded motif programs on a fresh
/// service, so every request misses the compile cache.
class CompileWorkload final : public Workload
{
  public:
    CompileWorkload(std::uint64_t seed, bool telemetry)
        : seed_(seed), telemetry_(telemetry)
    {}

    void
    setup() override
    {
        services_.clear();
        suite_ = greedySuite();
        first_round_ = compileRound(suite_, kCompileMotifs, seed_, 0);

        // Warm-up round on a throwaway service, so the allocator and code
        // caches are warm before the first measured round.
        service::ShardedService warmup(serviceConfig(false));
        std::vector<service::CompileRequest> requests;
        for (const Program& program :
             compileRound(suite_, kCompileMotifs, seed_, kWarmupRound)) {
            service::CompileRequest request;
            request.name = program.name;
            request.source = program.source;
            request.pipeline = pipeline();
            requests.push_back(std::move(request));
        }
        warmup.compileBatch(std::move(requests));
    }

    Window
    measure(double budget, Tracer* tracer) override
    {
        Window window;
        window.workers = kServiceWorkers;
        const service::ServiceConfig config = serviceConfig(telemetry_);
        const compiler::DriverConfig pipeline = this->pipeline();
        suite_compiled_.clear();
        suite_compile_seconds_ = 0.0;
        int rounds = 0;
        for (; window.seconds < budget; ++rounds) {
            const std::vector<Program> programs =
                rounds == 0 ? first_round_
                            : compileRound(suite_, kCompileMotifs, seed_, rounds);
            auto service = std::make_unique<service::ShardedService>(config);
            const ServiceCounters before = countersOf(service->stats());
            std::vector<service::CompileResponse> responses(programs.size());
            window.seconds += closedLoop<service::CompileResponse>(
                kCompileInflight,
                [&](std::size_t i) { return i < programs.size(); },
                [&](std::size_t i) {
                    service::CompileRequest request;
                    request.name = programs[i].name;
                    request.source = programs[i].source;
                    request.pipeline = pipeline;
                    return service->submit(std::move(request));
                },
                [&](std::size_t i, service::CompileResponse response,
                    double latency) {
                    window.latencies_s.push_back(latency);
                    responses[i] = std::move(response);
                },
                tracer);
            service->drain();
            window.service.add(since(before, countersOf(service->stats())));
            check(programs, responses, rounds, window);
            if (tracer) {
                tracer->services.push_back(&service->shard(0).telemetry());
                services_.push_back(std::move(service));
            }
        }
        suite_compile_seconds_ /= rounds;
        return window;
    }

    Quality
    quality() override
    {
        // A suite kernel that never compiled has already failed the run;
        // the quality pass covers the ones that did.
        std::vector<Program> programs;
        std::vector<compiler::Compiled> compiled;
        for (const Program& program : suite_) {
            const auto found = suite_compiled_.find(program.name);
            if (found == suite_compiled_.end()) continue;
            programs.push_back(program);
            compiled.push_back(found->second);
        }
        Quality quality = qualityOf(programs, compiled, fhe::SealLiteParams{});
        quality.repeatable = quality.repeatable && repeatable_;
        return quality;
    }

    ProbeSet
    probeSet() const override
    {
        return {suite_, pipeline(), fhe::SealLiteParams{},
                suite_compile_seconds_};
    }

  private:
    /// Stream index of the warm-up round: measured rounds count from 0.
    static constexpr int kWarmupRound = -1;

    static compiler::DriverConfig
    pipeline()
    {
        return compiler::DriverConfig::greedy();
    }

    /// Verify one round's responses: every artifact's optimized IR must
    /// agree with its source on seeded inputs, and every suite kernel
    /// must compile to the same cost in every round.
    void
    check(const std::vector<Program>& programs,
          const std::vector<service::CompileResponse>& responses, int round,
          Window& window)
    {
        for (std::size_t i = 0; i < programs.size(); ++i) {
            const service::CompileResponse& response = responses[i];
            ++window.attempted;
            const std::uint64_t check_seed =
                mixSeed(seed_, (static_cast<std::uint64_t>(round) << 20) + i);
            if (!response.ok ||
                !ir::equivalentOn(programs[i].source,
                                  response.compiled.optimized, 2, check_seed)) {
                ++window.failed;
                continue;
            }
            if (!response.cache_hit && !response.deduplicated) {
                window.load_model_err.push_back(relativeError(
                    response.predicted_seconds, response.compile_seconds));
            }
            const auto found = std::find_if(
                suite_.begin(), suite_.end(), [&](const Program& kernel) {
                    return kernel.name == programs[i].name;
                });
            if (found == suite_.end()) continue;
            suite_compile_seconds_ += response.compile_seconds;
            const auto [entry, inserted] =
                suite_compiled_.emplace(programs[i].name, response.compiled);
            if (!inserted &&
                ir::cost(entry->second.optimized) !=
                    ir::cost(response.compiled.optimized)) {
                repeatable_ = false;
            }
        }
    }

    std::uint64_t seed_;
    bool telemetry_;
    std::vector<Program> suite_;
    std::vector<Program> first_round_;
    std::map<std::string, compiler::Compiled> suite_compiled_;
    double suite_compile_seconds_ = 0.0;
    bool repeatable_ = true;
    /// Traced runs keep every round's service so its spans reach the
    /// exported trace.
    std::vector<std::unique_ptr<service::ShardedService>> services_;
};

// ------------------------------------------------------ execute-n4096

/// Direct FheRuntime::run calls at n = 4096 on precompiled Fig. 5
/// kernels with primed keys: the fhe layer does the work.
class ExecuteWorkload final : public Workload
{
  public:
    explicit ExecuteWorkload(std::uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        runtime_.reset();
        ruleset_ = std::make_unique<trs::Ruleset>(trs::buildChehabRuleset());
        mix_ = fig5Mix();
        const compiler::CompilerDriver driver(ruleset_.get());
        compiled_.clear();
        const Stopwatch compile_watch;
        for (const Program& program : mix_) {
            compiled_.push_back(driver.compile(program.source, pipeline()));
        }
        compile_seconds_ = compile_watch.elapsedSeconds();
        runtime_ = std::make_unique<compiler::FheRuntime>(params());
        runtime_->scheme().freshNoiseBudget();
        // Priming run: generates every Galois key and fills the arena;
        // it is also the quality pass, repeated by every setup.
        const NoisePass pass = soloNoise(*runtime_, mix_, compiled_);
        if (!setup_noise_.empty() && setup_noise_ != pass.consumed) {
            repeatable_ = false;
        }
        setup_noise_ = pass.consumed;
        setup_mismatches_ += pass.mismatches;
    }

    Window
    measure(double budget, Tracer* tracer) override
    {
        Window window;
        const std::int64_t t = static_cast<std::int64_t>(
            runtime_->scheme().params().plain_modulus);
        std::uint64_t call = 0;
        for (int cycle = 0; window.seconds < budget; ++cycle) {
            for (const RunItem& item : runCycle(mix_, seed_, cycle)) {
                const Program& program = mix_[item.program];
                runtime_->scheme().reseedRandomness(mixSeed(seed_, call));
                const std::int64_t start_ns =
                    tracer ? tracer->recorder.nowNs() : 0;
                const Clock::time_point start = Clock::now();
                const compiler::RunResult result = runCompiled(
                    *runtime_, compiled_[item.program], item.inputs);
                const double latency = seconds(start, Clock::now());
                if (tracer) {
                    tracer->recorder.span(
                        "run", telemetry::TraceRecorder::clientTid(), start_ns,
                        tracer->recorder.nowNs(), call + 1,
                        {{"setup_ms", result.setup_seconds * 1e3},
                         {"evaluate_ms", result.exec_seconds * 1e3},
                         {"decode_ms", result.decode_seconds * 1e3}});
                }
                ++call;
                window.seconds += latency;
                window.latencies_s.push_back(latency);
                ++window.attempted;
                if (!outputMatches(program.source, item.inputs, result.output,
                                   t)) {
                    ++window.failed;
                }
            }
        }
        return window;
    }

    Quality
    quality() override
    {
        Quality quality;
        std::vector<double> costs;
        for (const compiler::Compiled& artifact : compiled_) {
            costs.push_back(ir::cost(artifact.optimized));
        }
        quality.cost_geomean = geomean(costs);
        quality.noise_mean = mean(setup_noise_);
        quality.repeatable = repeatable_;
        quality.mismatches = setup_mismatches_;
        return quality;
    }

    ProbeSet
    probeSet() const override
    {
        return {mix_, pipeline(), params(), compile_seconds_};
    }

    static compiler::DriverConfig
    pipeline()
    {
        compiler::DriverConfig config = compiler::DriverConfig::greedy();
        config.passes.push_back("mod-switch");
        return config;
    }

    static fhe::SealLiteParams
    params()
    {
        fhe::SealLiteParams params;
        params.n = 4096;
        return params;
    }

  private:
    std::uint64_t seed_;
    std::unique_ptr<trs::Ruleset> ruleset_;
    std::vector<Program> mix_;
    std::vector<compiler::Compiled> compiled_;
    double compile_seconds_ = 0.0;
    std::unique_ptr<compiler::FheRuntime> runtime_;
    std::vector<int> setup_noise_;
    std::uint64_t setup_mismatches_ = 0;
    bool repeatable_ = true;
};

// -------------------------------------------------------- serve-mixed

/// submitRun traffic at n = 1024 with slot batching and cross-kernel
/// packing on, over a skewed mix of a warm compile cache. Each batch is
/// the whole pool once, in a seeded order with fresh seeded inputs, and
/// is awaited before the next: the service's dispatch queue is
/// longest-predicted-first without aging, so under a continuously
/// refilled loop its lightest requests wait for the whole run. A batch
/// bounds that wait, and the coalescer sees every row-mate at once.
class ServeWorkload final : public Workload
{
  public:
    ServeWorkload(std::uint64_t seed, bool telemetry)
        : seed_(seed), telemetry_(telemetry)
    {}

    void
    setup() override
    {
        service_.reset();
        pool_ = servePool();
        service::ServiceConfig config = serviceConfig(telemetry_);
        config.max_lanes = kServeLanes;
        config.cross_kernel = true;
        config.batch_window_seconds = kServeWindowSeconds;
        service_ = std::make_unique<service::ShardedService>(config);

        // Warm the compile cache: the measured window reads artifacts.
        std::vector<service::CompileRequest> compiles;
        for (const Program& program : pool_) {
            service::CompileRequest request;
            request.name = program.name;
            request.source = program.source;
            compiles.push_back(std::move(request));
        }
        compiled_.clear();
        compile_seconds_ = 0.0;
        for (service::CompileResponse& response :
             service_->compileBatch(std::move(compiles))) {
            compile_seconds_ += response.compile_seconds;
            if (!response.ok) ++setup_failures_;
            compiled_.push_back(std::move(response.compiled));
        }
        // Warm the runtime pool (keys, arenas) and the load model with
        // packed bursts of the whole pool on inputs the window never uses.
        Rng rng(mixSeed(kQualitySeed, 0x5e7));
        for (int burst = 0; burst < kServeWarmupRounds; ++burst) {
            std::vector<service::RunRequest> runs;
            std::vector<ir::Env> inputs;
            for (const Program& program : pool_) {
                runs.push_back(request(program, seededInputs(program.source, rng)));
                inputs.push_back(runs.back().inputs);
            }
            const std::vector<service::RunResponse> responses =
                service_->runBatch(std::move(runs));
            for (std::size_t i = 0; i < responses.size(); ++i) {
                if (!responses[i].ok ||
                    !outputMatches(pool_[i].source, inputs[i],
                                   responses[i].result.output, kPlainModulus)) {
                    ++setup_failures_;
                }
            }
        }
        service_->drain();
    }

    Window
    measure(double budget, Tracer* tracer) override
    {
        Window window;
        window.workers = kServiceWorkers;
        const ServiceCounters before = countersOf(service_->stats());
        for (int batch = 0; window.seconds < budget; ++batch) {
            const std::vector<RunItem> items = runCycle(pool_, seed_, batch);
            std::vector<service::RunResponse> responses(items.size());
            window.seconds += closedLoop<service::RunResponse>(
                static_cast<int>(items.size()),
                [&](std::size_t i) { return i < items.size(); },
                [&](std::size_t i) {
                    return service_->submitRun(
                        request(pool_[items[i].program], items[i].inputs));
                },
                [&](std::size_t i, service::RunResponse response,
                    double latency) {
                    window.latencies_s.push_back(latency);
                    responses[i] = std::move(response);
                },
                tracer);
            check(items, responses, window);
        }
        service_->drain();
        window.service = since(before, countersOf(service_->stats()));
        if (tracer) tracer->services.push_back(&service_->shard(0).telemetry());
        return window;
    }

    Quality
    quality() override
    {
        Quality quality = qualityOf(pool_, compiled_, fhe::SealLiteParams{});
        quality.mismatches += setup_failures_;
        return quality;
    }

    ProbeSet
    probeSet() const override
    {
        return {pool_, compiler::DriverConfig::greedy(), fhe::SealLiteParams{},
                compile_seconds_};
    }

  private:
    static constexpr std::int64_t kPlainModulus = 65537;

    void
    check(const std::vector<RunItem>& items,
          const std::vector<service::RunResponse>& responses, Window& window)
    {
        for (std::size_t i = 0; i < items.size(); ++i) {
            const service::RunResponse& response = responses[i];
            ++window.attempted;
            if (!response.ok ||
                !outputMatches(pool_[items[i].program].source, items[i].inputs,
                               response.result.output, kPlainModulus)) {
                ++window.failed;
                continue;
            }
            if (!response.run_cache_hit && !response.run_deduplicated) {
                window.load_model_err.push_back(relativeError(
                    response.predicted_seconds, response.exec_seconds));
            }
        }
    }

    static service::RunRequest
    request(const Program& program, ir::Env inputs)
    {
        service::RunRequest request;
        request.name = program.name;
        request.source = program.source;
        request.inputs = std::move(inputs);
        return request;
    }

    std::uint64_t seed_;
    bool telemetry_;
    std::vector<Program> pool_;
    std::vector<compiler::Compiled> compiled_;
    double compile_seconds_ = 0.0;
    std::uint64_t setup_failures_ = 0;
    std::unique_ptr<service::ShardedService> service_;
};

} // namespace

const std::vector<WorkloadInfo>&
workloadTable()
{
    static const std::vector<WorkloadInfo> table = {
        {"compile-greedy", 1, 1001},
        {"execute-n4096", 3, 1003},
        {"serve-mixed", 4, 1004},
    };
    return table;
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, std::uint64_t seed, bool telemetry)
{
    if (name == "compile-greedy") {
        return std::make_unique<CompileWorkload>(seed, telemetry);
    }
    if (name == "execute-n4096") return std::make_unique<ExecuteWorkload>(seed);
    if (name == "serve-mixed") {
        return std::make_unique<ServeWorkload>(seed, telemetry);
    }
    return nullptr;
}

std::unique_ptr<rl::RlAgent>
trainAgent(const trs::Ruleset& ruleset)
{
    rl::AgentConfig config;
    config.env.max_steps = 32;
    config.env.max_locations = 8;
    config.policy.encoder.d_model = 32;
    config.policy.encoder.n_layers = 1;
    config.policy.encoder.n_heads = 4;
    config.policy.encoder.d_ff = 64;
    config.policy.encoder.max_len = 96;
    config.policy.rule_hidden = {64};
    config.policy.loc_hidden = {64};
    config.policy.critic_hidden = {64};
    config.ppo.steps_per_update = 128;
    config.ppo.minibatch_size = 64;
    config.ppo.update_epochs = 2;
    config.ppo.total_timesteps = 256;
    config.ppo.max_token_len = 96;
    config.ppo.learning_rate = 3e-4f;
    config.compile_rollouts = 2;
    auto agent = std::make_unique<rl::RlAgent>(ruleset, config);
    dataset::MotifSynthesizer synth(1234);
    agent->train(dataset::buildDataset([&synth] { return synth.generate(); },
                                       64));
    return agent;
}

} // namespace chehab::perfbench
