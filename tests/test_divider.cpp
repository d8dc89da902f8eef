/**
 * @file
 * Tests for rmssd::Divider: the round-up multiply must give exactly
 * n / d and n % d for every numerator, at the divisors where the
 * method's edge cases live (1, powers of two, 2^63 + 1, the top of
 * the range) and at the benchmark models' table sizes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "model/model_zoo.h"
#include "sim/divider.h"
#include "sim/rng.h"

namespace rmssd {
namespace {

/** Expect div and mod of @p n to equal the hardware's / and %. */
void
expectExact(const Divider &d, std::uint64_t n)
{
    ASSERT_EQ(d.div(n), n / d.divisor())
        << n << " / " << d.divisor();
    ASSERT_EQ(d.mod(n), n % d.divisor())
        << n << " % " << d.divisor();
}

std::vector<std::uint64_t>
edgeDivisors()
{
    std::vector<std::uint64_t> divisors = {
        1,
        2,
        3,
        7,
        (std::uint64_t{1} << 63) + 1,
        UINT64_MAX - 1,
        UINT64_MAX,
        model::rmc1().rowsPerTable,
        model::rmc2().rowsPerTable,
    };
    for (int bit = 0; bit < 64; ++bit) // every power of two, 2^63 too
        divisors.push_back(std::uint64_t{1} << bit);
    return divisors;
}

TEST(Divider, EdgeNumeratorsOfEdgeDivisors)
{
    for (const std::uint64_t divisor : edgeDivisors()) {
        const Divider d(divisor);
        EXPECT_EQ(d.divisor(), divisor);
        for (const std::uint64_t n :
             {std::uint64_t{0}, divisor - 1, divisor, divisor + 1,
              UINT64_MAX})
            expectExact(d, n);
    }
}

TEST(Divider, RandomPairs)
{
    // 10^6 pairs. Half draw both operands from all 64 bits; the other
    // half give each a random bit length, so small divisors, small
    // numerators and near-equal operands all come up.
    Rng rng(0xd1f1de5);
    const auto bitLength = [&](std::uint64_t x) {
        const std::uint64_t bits = 1 + rng.nextBounded(64);
        return bits == 64 ? x : x & ((std::uint64_t{1} << bits) - 1);
    };
    for (int i = 0; i < 1'000'000; ++i) {
        std::uint64_t divisor = rng.next();
        std::uint64_t n = rng.next();
        if (i % 2 == 1) {
            divisor = bitLength(divisor);
            n = bitLength(n);
        }
        if (divisor == 0)
            divisor = 1;
        expectExact(Divider(divisor), n);
    }
}

TEST(Divider, EveryNumeratorOfSmallDivisors)
{
    // Each residue class and each quotient step of a few small and
    // odd divisors, plus the top of the range where the multiply's
    // rounding error is largest.
    for (std::uint64_t divisor = 1; divisor <= 64; ++divisor) {
        const Divider d(divisor);
        for (std::uint64_t n = 0; n < 4096; ++n)
            expectExact(d, n);
        for (std::uint64_t n = UINT64_MAX - 4096; n != 0; ++n)
            expectExact(d, n);
    }
}

TEST(DividerDeathTest, ZeroDivisorDies)
{
    EXPECT_DEATH(Divider(0), "division by zero");
}

} // namespace
} // namespace rmssd
