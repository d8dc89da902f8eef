/**
 * @file
 * Unit tests for the tagged-integer layer (sim/strong_types.h) and the
 * Cycle<->Nanos conversion boundary (sim/types.h).
 *
 * The compile-time half of the contract — cross-tag arithmetic and
 * implicit raw-integer conversion must not compile — is checked with
 * static_asserts over SFINAE detectors, so a regression fails the
 * build of this test, not just a runtime assertion.
 */

#include <cstdint>
#include <limits>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include <gtest/gtest.h>

#include "sim/strong_types.h"
#include "sim/types.h"

namespace rmssd {
namespace {

// ---------------------------------------------------------------------
// Compile-time contract: layout, convertibility, closed algebra.
// ---------------------------------------------------------------------

// Zero overhead: same size as the raw representation, trivially
// copyable, so Strong values pass in registers like raw integers.
static_assert(sizeof(Cycle) == sizeof(std::uint64_t));
static_assert(sizeof(TableId) == sizeof(std::uint32_t));
static_assert(std::is_trivially_copyable_v<Cycle>);
static_assert(std::is_trivially_copyable_v<Lba>);

// Construction from raw integers is explicit only; no implicit
// on-ramp and no implicit off-ramp back to the raw type.
static_assert(!std::is_convertible_v<std::uint64_t, Cycle>);
static_assert(!std::is_convertible_v<int, Cycle>);
static_assert(!std::is_convertible_v<Cycle, std::uint64_t>);
static_assert(std::is_constructible_v<Cycle, std::uint64_t>);
static_assert(std::is_constructible_v<Cycle, int>);

// Floating-point values must be cast to an integer first (the ctor is
// enable_if'd on is_integral), keeping the rounding decision explicit.
static_assert(!std::is_constructible_v<Cycle, double>);
static_assert(!std::is_constructible_v<Nanos, float>);

// Different tags are different types: no cross-construction.
static_assert(!std::is_constructible_v<Cycle, Nanos>);
static_assert(!std::is_constructible_v<Nanos, Cycle>);
static_assert(!std::is_constructible_v<Lba, Bytes>);
static_assert(!std::is_constructible_v<PageId, Lba>);
static_assert(!std::is_constructible_v<TableId, EvIndex>);

// Detectors for whether an operator expression is well-formed.
template <typename A, typename B, typename = void>
struct CanAdd : std::false_type
{
};
template <typename A, typename B>
struct CanAdd<A, B,
              std::void_t<decltype(std::declval<A>() + std::declval<B>())>>
    : std::true_type
{
};

template <typename A, typename B, typename = void>
struct CanSub : std::false_type
{
};
template <typename A, typename B>
struct CanSub<A, B,
              std::void_t<decltype(std::declval<A>() - std::declval<B>())>>
    : std::true_type
{
};

template <typename A, typename B, typename = void>
struct CanCompare : std::false_type
{
};
template <typename A, typename B>
struct CanCompare<
    A, B, std::void_t<decltype(std::declval<A>() == std::declval<B>())>>
    : std::true_type
{
};

// Same-tag arithmetic is allowed...
static_assert(CanAdd<Cycle, Cycle>::value);
static_assert(CanSub<Nanos, Nanos>::value);
// ...cross-tag arithmetic is not.
static_assert(!CanAdd<Cycle, Nanos>::value);
static_assert(!CanAdd<Nanos, Cycle>::value);
static_assert(!CanSub<Cycle, Nanos>::value);
static_assert(!CanAdd<Bytes, Sectors>::value);
static_assert(!CanAdd<PageId, EvIndex>::value);
// ...and neither is mixing with raw integers via + (only * / % scale).
static_assert(!CanAdd<Cycle, std::uint64_t>::value);
static_assert(!CanAdd<std::uint64_t, Cycle>::value);

// Cross-tag comparison does not compile either.
static_assert(CanCompare<Cycle, Cycle>::value);
static_assert(!CanCompare<Cycle, Nanos>::value);
static_assert(!CanCompare<Lba, PageId>::value);

// The affine LBA space: position +/- count is allowed in the shapes
// defined at the bottom of strong_types.h; count - position is not.
static_assert(CanAdd<Lba, Sectors>::value);
static_assert(CanAdd<Sectors, Lba>::value);
static_assert(CanSub<Lba, Sectors>::value);
static_assert(!CanSub<Sectors, Lba>::value);

// The counting ratio a / b yields the raw representation.
static_assert(
    std::is_same_v<decltype(std::declval<Cycle>() / std::declval<Cycle>()),
                   std::uint64_t>);
static_assert(
    std::is_same_v<decltype(std::declval<TableId>() / std::declval<TableId>()),
                   std::uint32_t>);

// The conversion boundary is constexpr-evaluable.
static_assert(cyclesToNanos(Cycle{1}) == Nanos{kNanosPerCycle});
static_assert(nanosToCycles(Nanos{1}) == Cycle{1});

// ---------------------------------------------------------------------
// Runtime behavior.
// ---------------------------------------------------------------------

TEST(StrongTypes, DefaultConstructsToZero)
{
    Cycle c;
    EXPECT_EQ(c.raw(), 0u);
    EXPECT_EQ(c, Cycle{});
}

TEST(StrongTypes, ExplicitConstructionAndRaw)
{
    Cycle c{42};
    EXPECT_EQ(c.raw(), 42u);

    TableId t{7};
    EXPECT_EQ(t.raw(), 7u);
}

TEST(StrongTypes, SameTagAddSub)
{
    EXPECT_EQ(Cycle{3} + Cycle{4}, Cycle{7});
    EXPECT_EQ(Nanos{10} - Nanos{4}, Nanos{6});

    Cycle c{5};
    c += Cycle{2};
    EXPECT_EQ(c, Cycle{7});
    c -= Cycle{3};
    EXPECT_EQ(c, Cycle{4});
}

TEST(StrongTypes, Increment)
{
    Cycle c{1};
    EXPECT_EQ(++c, Cycle{2});
    EXPECT_EQ(c++, Cycle{2});
    EXPECT_EQ(c, Cycle{3});
}

TEST(StrongTypes, CountingRatioAndModulo)
{
    // "How many b fit in a" is a dimensionless count, hence raw.
    EXPECT_EQ(Bytes{4096} / Bytes{512}, 8u);
    EXPECT_EQ(Bytes{4100} % Bytes{512}, Bytes{4});
}

TEST(StrongTypes, IntegerScaling)
{
    EXPECT_EQ(Cycle{5} * 3, Cycle{15});
    EXPECT_EQ(3 * Cycle{5}, Cycle{15});
    EXPECT_EQ(Cycle{15} / 3, Cycle{5});
    EXPECT_EQ(Cycle{17} % 5, Cycle{2});
}

TEST(StrongTypes, Ordering)
{
    EXPECT_LT(Cycle{1}, Cycle{2});
    EXPECT_GE(Nanos{5}, Nanos{5});
    EXPECT_NE(Lba{0}, Lba{1});
}

TEST(StrongTypes, AffineLbaSpace)
{
    const Lba base{100};
    EXPECT_EQ(base + Sectors{8}, Lba{108});
    EXPECT_EQ(Sectors{8} + base, Lba{108});
    EXPECT_EQ(base - Sectors{4}, Lba{96});
}

TEST(StrongTypes, StreamPrintsRawValue)
{
    std::ostringstream os;
    os << Cycle{42} << ' ' << TableId{7};
    EXPECT_EQ(os.str(), "42 7");
}

TEST(StrongTypes, HashableInUnorderedContainers)
{
    std::unordered_set<TableId> tables{TableId{1}, TableId{2}, TableId{1}};
    EXPECT_EQ(tables.size(), 2u);

    std::unordered_map<PageId, int> hot;
    hot[PageId{9}] = 3;
    EXPECT_EQ(hot.at(PageId{9}), 3);
}

// ---------------------------------------------------------------------
// Cycle <-> Nanos boundary (sim/types.h).
// ---------------------------------------------------------------------

TEST(ClockConversion, ExactRoundTrip)
{
    // 200 MHz -> 5 ns per cycle; cycles -> nanos -> cycles is exact.
    EXPECT_EQ(kNanosPerCycle, 5u);
    EXPECT_EQ(cyclesToNanos(Cycle{4000}), Nanos{20000});
    EXPECT_EQ(nanosToCycles(cyclesToNanos(Cycle{4000})), Cycle{4000});
    EXPECT_EQ(nanosToCycles(cyclesToNanos(Cycle{0})), Cycle{0});
    EXPECT_EQ(nanosToCycles(cyclesToNanos(Cycle{1})), Cycle{1});
}

TEST(ClockConversion, RoundsUpPartialCycles)
{
    EXPECT_EQ(nanosToCycles(Nanos{0}), Cycle{0});
    EXPECT_EQ(nanosToCycles(Nanos{1}), Cycle{1});
    EXPECT_EQ(nanosToCycles(Nanos{4}), Cycle{1});
    EXPECT_EQ(nanosToCycles(Nanos{5}), Cycle{1});
    EXPECT_EQ(nanosToCycles(Nanos{6}), Cycle{2});
    EXPECT_EQ(nanosToCycles(Nanos{20001}), Cycle{4001});
}

TEST(ClockConversion, RoundUpDoesNotOverflowNearUint64Max)
{
    // Regression: the textbook ceil-div (ns + k - 1) / k wraps for ns
    // near 2^64 and yields ~0 cycles. The quotient-plus-carry form
    // must stay exact at the top of the range.
    constexpr std::uint64_t top = std::numeric_limits<std::uint64_t>::max();

    // 2^64 - 1 is divisible by 5 (2^64 mod 5 == 1): exact quotient.
    ASSERT_EQ(top % kNanosPerCycle, 0u);
    EXPECT_EQ(nanosToCycles(Nanos{top}), Cycle{top / kNanosPerCycle});

    // One below leaves a remainder: quotient + 1, still no wrap.
    EXPECT_EQ(nanosToCycles(Nanos{top - 1}),
              Cycle{(top - 1) / kNanosPerCycle + 1});

    // The largest exactly-representable cycle count survives a full
    // round trip through nanoseconds.
    constexpr Cycle maxCycles{top / kNanosPerCycle};
    EXPECT_EQ(nanosToCycles(cyclesToNanos(maxCycles)), maxCycles);
}

} // namespace
} // namespace rmssd
