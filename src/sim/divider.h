/**
 * @file
 * Exact u64 division by a run-time constant through one multiply.
 *
 * Granlund and Montgomery's round-up method ("Division by invariant
 * integers using multiplication", PLDI 1994, Fig. 4.1), for N = 64:
 * with l = ceil(log2 d) and the magic number
 *
 *     m = floor(2^64 * (2^l - d) / d) + 1,
 *
 * the quotient of any n in [0, 2^64) is
 *
 *     t = mulhi(m, n),   q = (t + ((n - t) >> min(l, 1))) >> max(l - 1, 0)
 *
 * and the remainder is n - q * d. Both are bit-equal to n / d and
 * n % d for every n and every d >= 1 (DESIGN.md §13.3). The simulator
 * divides by a few constants on every lookup (rows per table, the
 * flash page size, channels x dies); a hardware 64-bit divide costs
 * tens of cycles, the multiply a few.
 */

#ifndef RMSSD_SIM_DIVIDER_H
#define RMSSD_SIM_DIVIDER_H

#include <bit>
#include <cstdint>

#include "sim/log.h"

namespace rmssd {

/** Quotient and remainder by a fixed divisor, bit-equal to / and %. */
class Divider
{
  public:
    /** Divides by @p divisor, which must be at least 1. */
    explicit Divider(std::uint64_t divisor) : divisor_(divisor)
    {
        RMSSD_ASSERT(divisor > 0, "division by zero");
        // l = ceil(log2 d).
        const auto l = static_cast<int>(std::bit_width(divisor - 1));
        // 2^l - d, which is below d; at l = 64 it wraps to exactly
        // 2^64 - d. So the quotient of (2^l - d) * 2^64 by d fits 64
        // bits: long division, one quotient bit per step, makes it
        // without a 128-bit divide (a libgcc call, cold at set-up).
        std::uint64_t rem = (l == 64 ? 0 : std::uint64_t{1} << l) - divisor;
        std::uint64_t quotient = 0;
        for (int bit = 0; bit < 64; ++bit) {
            // rem < d, so 2 * rem - d < d; when 2 * rem overflows, the
            // wrapped subtraction still leaves the true difference.
            // Branch-free: the quotient bits are data, which a branch
            // would mispredict half the time.
            const std::uint64_t carry = rem >> 63;
            rem <<= 1;
            const std::uint64_t take =
                carry | static_cast<std::uint64_t>(rem >= divisor);
            rem -= divisor & (0 - take);
            quotient = quotient << 1 | take;
        }
        magic_ = quotient + 1;
        shift1_ = l < 1 ? l : 1;
        shift2_ = l > 1 ? l - 1 : 0;
    }

    std::uint64_t divisor() const { return divisor_; }

    /** n / divisor(). */
    std::uint64_t
    div(std::uint64_t n) const
    {
        const auto t =
            static_cast<std::uint64_t>((U128{magic_} * n) >> 64);
        return (t + ((n - t) >> shift1_)) >> shift2_;
    }

    /** n % divisor(). */
    std::uint64_t mod(std::uint64_t n) const { return n - div(n) * divisor_; }

  private:
    __extension__ typedef unsigned __int128 U128;

    std::uint64_t divisor_;
    std::uint64_t magic_;
    int shift1_;
    int shift2_;
};

} // namespace rmssd

#endif // RMSSD_SIM_DIVIDER_H
