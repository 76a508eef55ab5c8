#include "service/runtime_pool.h"

#include <utility>

namespace chehab::service {

RuntimePool::RuntimePool(fhe::SealLiteParams params) : params_(params) {}

std::unique_ptr<compiler::FheRuntime>
RuntimePool::createRuntime()
{
    auto runtime = std::make_unique<compiler::FheRuntime>(params_);
    // Warm the fresh-budget cache now, while the randomness stream is
    // in its deterministic post-construction state: the cached value
    // must not depend on which request happens to run first on this
    // instance (executeRow reseeds per row, so a first-use measurement
    // would vary with scheduling).
    runtime->scheme().freshNoiseBudget();
    return runtime;
}

RuntimePool::Lease
RuntimePool::acquire()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!idle_.empty()) {
            std::unique_ptr<compiler::FheRuntime> runtime =
                std::move(idle_.back());
            idle_.pop_back();
            return Lease(this, std::move(runtime));
        }
        ++created_;
    }
    // Construct outside the lock: keygen is the expensive part and
    // concurrent first-use requests should not serialize on it.
    std::unique_ptr<compiler::FheRuntime> runtime = createRuntime();
    {
        std::unique_lock<std::mutex> lock(mutex_);
        all_.push_back(runtime.get());
    }
    return Lease(this, std::move(runtime));
}

fhe::PolyArena::Stats
RuntimePool::arenaStats() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    fhe::PolyArena::Stats total;
    for (const compiler::FheRuntime* runtime : all_) {
        total += runtime->arenaStats();
    }
    return total;
}

void
RuntimePool::release(std::unique_ptr<compiler::FheRuntime> runtime)
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.push_back(std::move(runtime));
}

int
RuntimePool::created() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return created_;
}

} // namespace chehab::service
