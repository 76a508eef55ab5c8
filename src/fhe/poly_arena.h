/// \file
/// Pooled buffer arena backing RnsPoly and NTT scratch allocations.
///
/// Every SealLite evaluator op used to heap-allocate its result and
/// scratch vectors; at n = 4096 with a 6-prime chain that is several
/// hundred KiB of malloc traffic per multiply. PolyArena replaces that
/// with a capacity-matched freelist: acquire() hands back a previously
/// released vector whose capacity already fits (a plain resize, no
/// allocation), minting a fresh buffer only when the freelist has
/// nothing large enough. After one priming pass over a program, every
/// steady-state acquire is a reuse — the zero-allocations-per-op
/// contract bench_ntt's allocs/op column and the arena tests pin.
///
/// Buffers hold 32-bit words, SealLite's one storage width: every chain
/// prime is below 2^31, so every residue fits (see RnsPoly). One arena
/// backs ciphertext polys, NTT scratch and key switching's digit and
/// accumulator buffers alike.
///
/// Counters (allocs / reuses / bytes) feed ServiceStats and chehabd's
/// --stats-json. The arena can be disabled (setEnabled(false)), which
/// turns every acquire into a fresh heap allocation and every release
/// into a free — the arena-on-vs-off differential tests run both ways.
///
/// Thread-safety: all methods are mutex-guarded. A SealLite instance is
/// externally synchronized (the runtime pool leases exclusively), but
/// pool-level stats aggregation reads arenas of leased runtimes
/// concurrently, so the lock is load-bearing (TSan job covers it).
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace chehab::fhe {

class PolyArena
{
  public:
    struct Stats
    {
        std::uint64_t allocs = 0; ///< Fresh buffers minted.
        std::uint64_t reuses = 0; ///< Acquires served from the freelist.
        std::uint64_t bytes = 0;  ///< Bytes backing minted buffers.

        Stats& operator+=(const Stats& other)
        {
            allocs += other.allocs;
            reuses += other.reuses;
            bytes += other.bytes;
            return *this;
        }
    };

    /// A buffer of exactly \p words elements, unspecified contents
    /// (callers either overwrite fully or use acquireZeroed).
    std::vector<std::uint32_t> acquire(std::size_t words);

    /// acquire(), then zero-fill.
    std::vector<std::uint32_t> acquireZeroed(std::size_t words);

    /// Return a dead buffer to the freelist (dropped when disabled or
    /// when the freelist is at capacity).
    void release(std::vector<std::uint32_t>&& buffer);

    /// Drop every pooled buffer (counters are kept — they are
    /// monotonic observability, not occupancy).
    void reset();

    Stats stats() const;

    /// Disabled arenas always mint and never pool — the differential
    /// tests compare this against the pooled mode bit for bit.
    void setEnabled(bool enabled);
    bool enabled() const;

  private:
    mutable std::mutex mutex_;
    std::vector<std::vector<std::uint32_t>> free_;
    Stats stats_;
    bool enabled_ = true;
};

} // namespace chehab::fhe
