#include "fhe/poly_arena.h"

#include <algorithm>
#include <utility>

namespace chehab::fhe {

namespace {

/// Freelist cap: SealLite's deepest op (relinearizing multiply) keeps
/// well under this many scratch/result buffers dead at once, and a cap
/// bounds worst-case residency when callers release more than they
/// re-acquire (e.g. a one-off wide program).
constexpr std::size_t kMaxPooledBuffers = 64;

} // namespace

std::vector<std::uint32_t>
PolyArena::acquire(std::size_t words)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (enabled_) {
            // Best fit, most-recent on ties: steady-state traffic cycles
            // a handful of distinct sizes, and taking the *smallest*
            // buffer that fits stops a small acquire from stealing a
            // large buffer and forcing the next large acquire to mint —
            // one priming pass then reaches zero fresh allocations.
            std::size_t best = free_.size();
            for (std::size_t i = free_.size(); i > 0; --i) {
                const std::vector<std::uint32_t>& candidate = free_[i - 1];
                if (candidate.capacity() < words) continue;
                if (best == free_.size() ||
                    candidate.capacity() < free_[best].capacity()) {
                    best = i - 1;
                }
            }
            if (best != free_.size()) {
                std::vector<std::uint32_t> buffer = std::move(free_[best]);
                free_.erase(free_.begin() +
                            static_cast<std::ptrdiff_t>(best));
                ++stats_.reuses;
                buffer.resize(words);
                return buffer;
            }
        }
        ++stats_.allocs;
        stats_.bytes += words * sizeof(std::uint32_t);
    }
    // Mint outside the lock: the allocation is the slow part.
    return std::vector<std::uint32_t>(words);
}

std::vector<std::uint32_t>
PolyArena::acquireZeroed(std::size_t words)
{
    std::vector<std::uint32_t> buffer = acquire(words);
    std::fill(buffer.begin(), buffer.end(), 0);
    return buffer;
}

void
PolyArena::release(std::vector<std::uint32_t>&& buffer)
{
    if (buffer.capacity() == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_ || free_.size() >= kMaxPooledBuffers) return;
    free_.push_back(std::move(buffer));
}

void
PolyArena::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    free_.clear();
}

PolyArena::Stats
PolyArena::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
PolyArena::setEnabled(bool enabled)
{
    std::lock_guard<std::mutex> lock(mutex_);
    enabled_ = enabled;
    if (!enabled) free_.clear();
}

bool
PolyArena::enabled() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return enabled_;
}

} // namespace chehab::fhe
