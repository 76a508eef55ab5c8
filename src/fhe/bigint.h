/// \file
/// Minimal arbitrary-precision unsigned integer used only to build the
/// SealLite backend's CRT constants at construction, and as the
/// reference the decryption tests check against. Decryption and noise
/// measurement recompose in fixed-width stack limbs (fhe/sealite.cc).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace chehab::fhe {

/// Little-endian limb vector; no sign (callers track centering).
class BigInt
{
  public:
    BigInt() = default;
    explicit BigInt(std::uint64_t value);

    bool isZero() const;
    int bitLength() const;

    /// Comparison: -1, 0, +1.
    int compare(const BigInt& other) const;

    BigInt add(const BigInt& other) const;
    /// Requires *this >= other.
    BigInt subtract(const BigInt& other) const;
    BigInt multiplySmall(std::uint64_t factor) const;
    BigInt multiply(const BigInt& other) const;

    /// Division by a single limb: returns quotient, sets \p remainder.
    BigInt divmodSmall(std::uint64_t divisor, std::uint64_t& remainder) const;

    /// this mod m where the value is known to be < bound*m for small
    /// bound: repeated subtraction (used after CRT sums of k terms).
    BigInt reduceBySubtraction(const BigInt& modulus) const;

    /// Decimal rendering (tests/debug).
    std::string toString() const;

    const std::vector<std::uint64_t>& limbs() const { return limbs_; }

  private:
    void trim();
    std::vector<std::uint64_t> limbs_; ///< Empty = zero.
};

} // namespace chehab::fhe
