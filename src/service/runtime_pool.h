/// \file
/// Pooled SealLite runtimes for the execute path.
///
/// Constructing an FheRuntime is expensive — secret/relinearization key
/// generation plus NTT/CRT precomputation — so the service keeps one
/// RuntimePool per distinct SealLiteParams and leases instances to
/// executing workers. A leased runtime is exclusively owned until the
/// lease is released (FheRuntime is not internally synchronized); the
/// pool grows on demand up to the service's worker concurrency and
/// never shrinks.
///
/// Determinism contract: every instance in a pool is constructed from
/// the same parameters, so secret and relin keys are bit-identical
/// across instances; Galois keys are bit-identical per step by the
/// SealLite keygen contract (randomness derived from params seed +
/// step); and the service's executeRow reseeds the encryption
/// randomness from the run key (or a packed row's group seed) before
/// executing. A given run request therefore produces
/// bit-identical outputs *and noise accounting* no matter which pooled
/// instance serves it, in what order, or at what worker count —
/// reusing key material across requests costs no reproducibility.
///
/// Thread-safety: acquire()/release() may be called from any thread.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "compiler/runtime.h"
#include "fhe/sealite.h"

namespace chehab::service {

class RuntimePool
{
  public:
    explicit RuntimePool(fhe::SealLiteParams params);

    /// Exclusive RAII lease of one runtime; returns it to the pool on
    /// destruction.
    class Lease
    {
      public:
        Lease(RuntimePool* pool,
              std::unique_ptr<compiler::FheRuntime> runtime)
            : pool_(pool), runtime_(std::move(runtime))
        {}

        ~Lease()
        {
            if (pool_ && runtime_) pool_->release(std::move(runtime_));
        }

        Lease(Lease&& other) noexcept
            : pool_(other.pool_), runtime_(std::move(other.runtime_))
        {
            other.pool_ = nullptr;
        }

        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;
        Lease& operator=(Lease&&) = delete;

        compiler::FheRuntime& runtime() { return *runtime_; }
        compiler::FheRuntime* operator->() { return runtime_.get(); }

      private:
        RuntimePool* pool_;
        std::unique_ptr<compiler::FheRuntime> runtime_;
    };

    /// Lease an idle runtime, constructing a fresh one (identical key
    /// material — see the determinism contract) when none is idle.
    Lease acquire();

    /// Total runtimes ever constructed by this pool.
    int created() const;

    /// Arena counters summed over every runtime this pool ever built —
    /// leased instances included (PolyArena is internally locked, so
    /// reading a leased runtime's counters mid-execution is safe; the
    /// snapshot is monotone, not exact).
    fhe::PolyArena::Stats arenaStats() const;

    const fhe::SealLiteParams& params() const { return params_; }

  private:
    friend class Lease;
    void release(std::unique_ptr<compiler::FheRuntime> runtime);

    /// Construct + deterministically warm up one runtime.
    std::unique_ptr<compiler::FheRuntime> createRuntime();

    const fhe::SealLiteParams params_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<compiler::FheRuntime>> idle_;
    /// Every runtime ever constructed, for stats aggregation. Entries
    /// outlive the pool's idle list (runtimes cycle between idle_ and
    /// leases but are never destroyed), so the raw pointers stay valid
    /// for the pool's lifetime.
    std::vector<compiler::FheRuntime*> all_;
    int created_ = 0;
};

} // namespace chehab::service
