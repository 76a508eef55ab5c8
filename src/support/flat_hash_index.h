/// \file
/// Open-addressing hash index of small values (slot numbers, node
/// pointers) looked up with a caller-supplied equality: the caller owns
/// the keys, the index stores each value with its hash. One probe
/// sequence per lookup, no allocation per entry and no reference
/// counting, which is what the IR walks that dedupe nodes many times per
/// rewrite step need.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace chehab {

template <class Value>
class FlatHashIndex
{
  public:
    /// A stored value under \p hash that \p same accepts, or nullptr.
    template <class Same>
    const Value*
    find(std::size_t hash, Same same) const
    {
        if (cells_.empty()) return nullptr;
        for (std::size_t i = start(hash); cells_[i].used; i = next(i)) {
            if (cells_[i].hash == hash && same(cells_[i].value)) {
                return &cells_[i].value;
            }
        }
        return nullptr;
    }

    /// Store \p value under \p hash; the caller has found it absent.
    void
    insert(std::size_t hash, Value value)
    {
        if ((size_ + 1) * 2 > cells_.size()) grow();
        std::size_t i = start(hash);
        while (cells_[i].used) i = next(i);
        cells_[i] = {hash, value, true};
        ++size_;
    }

  private:
    struct Cell
    {
        std::size_t hash = 0;
        Value value{};
        bool used = false;
    };

    std::size_t
    start(std::size_t hash) const
    {
        // Fibonacci hashing: the top bits of the product are well mixed.
        const std::uint64_t mixed =
            static_cast<std::uint64_t>(hash) * 0x9e3779b97f4a7c15ULL;
        return static_cast<std::size_t>(mixed >> 32) & (cells_.size() - 1);
    }

    std::size_t
    next(std::size_t i) const
    {
        return (i + 1) & (cells_.size() - 1);
    }

    void
    grow()
    {
        std::vector<Cell> old(cells_.empty() ? 64 : 2 * cells_.size());
        old.swap(cells_);
        size_ = 0;
        for (const Cell& cell : old) {
            if (cell.used) insert(cell.hash, cell.value);
        }
    }

    std::vector<Cell> cells_; ///< Size is a power of two, at most half full.
    std::size_t size_ = 0;
};

} // namespace chehab
