/**
 * @file
 * Zero-overhead tagged integers: the compile-time unit/ID safety
 * layer of the simulator core.
 *
 * The credibility of the timing model rests on never mixing cycles
 * with nanoseconds, LBAs with byte offsets, or table ids with row
 * indices. Each such quantity is a Strong<Rep, Tag>: the same machine
 * representation as the raw integer (one register, no padding), but a
 * distinct type to the compiler, so a cycles-vs-nanos or LBA-vs-byte
 * mixup is a compile error instead of a subtly wrong figure.
 *
 * Rules of the algebra:
 *  - construction from a raw integer is explicit: `Cycle{5}`;
 *  - same-tag arithmetic works: +, -, %, and the counting ratio
 *    `a / b` (which yields the raw representation);
 *  - scaling by a plain integer works: `cost * n`, `total / 4`;
 *  - cross-tag arithmetic does not compile, except the affine
 *    LBA-space pairs defined at the bottom (Lba + Sectors -> Lba);
 *  - the only escape hatch is `.raw()`, which is grep-able;
 *  - Cycle <-> Nanos conversion happens exclusively through
 *    cyclesToNanos()/nanosToCycles() in sim/types.h, which
 *    static_assert the clock ratio.
 *
 * Streams print the raw value, so logs, stats dumps, and the
 * BENCH_*.json outputs are byte-identical to the untyped code.
 */

#ifndef RMSSD_SIM_STRONG_TYPES_H
#define RMSSD_SIM_STRONG_TYPES_H

#include <cstdint>
#include <functional>
#include <ostream>
#include <type_traits>

namespace rmssd {

/**
 * A tagged integral value. @p Rep is the machine representation,
 * @p Tag an empty struct naming the unit. Distinct tags are distinct,
 * non-interconvertible types.
 */
template <typename Rep, typename Tag>
class Strong
{
    static_assert(std::is_integral_v<Rep>,
                  "Strong<> wraps integral representations only");

  public:
    using rep = Rep;
    using tag = Tag;

    /** Value-initializes to zero. */
    constexpr Strong() noexcept = default;

    /** Explicit construction from any integer (grep-able on-ramp). */
    template <typename U,
              typename = std::enable_if_t<std::is_integral_v<U>>>
    constexpr explicit Strong(U v) noexcept
        : v_(static_cast<Rep>(v))
    {
    }

    /** The raw representation (grep-able escape hatch). */
    constexpr Rep raw() const noexcept { return v_; }

    // -- same-tag comparison ------------------------------------------
    constexpr bool operator==(const Strong &) const noexcept = default;
    constexpr auto operator<=>(const Strong &) const noexcept = default;

    // -- same-tag arithmetic ------------------------------------------
    constexpr Strong &
    operator+=(Strong o) noexcept
    {
        v_ = static_cast<Rep>(v_ + o.v_);
        return *this;
    }

    constexpr Strong &
    operator-=(Strong o) noexcept
    {
        v_ = static_cast<Rep>(v_ - o.v_);
        return *this;
    }

    constexpr Strong &
    operator++() noexcept
    {
        ++v_;
        return *this;
    }

    constexpr Strong
    operator++(int) noexcept
    {
        Strong old = *this;
        ++v_;
        return old;
    }

    friend constexpr Strong
    operator+(Strong a, Strong b) noexcept
    {
        return Strong(static_cast<Rep>(a.v_ + b.v_));
    }

    friend constexpr Strong
    operator-(Strong a, Strong b) noexcept
    {
        return Strong(static_cast<Rep>(a.v_ - b.v_));
    }

    /** How many @p b fit in @p a: a counting ratio, hence raw. */
    friend constexpr Rep
    operator/(Strong a, Strong b) noexcept
    {
        return static_cast<Rep>(a.v_ / b.v_);
    }

    friend constexpr Strong
    operator%(Strong a, Strong b) noexcept
    {
        return Strong(static_cast<Rep>(a.v_ % b.v_));
    }

    // -- scaling by plain integers ------------------------------------
    template <typename U,
              typename = std::enable_if_t<std::is_integral_v<U>>>
    friend constexpr Strong
    operator*(Strong a, U k) noexcept
    {
        return Strong(static_cast<Rep>(a.v_ * static_cast<Rep>(k)));
    }

    template <typename U,
              typename = std::enable_if_t<std::is_integral_v<U>>>
    friend constexpr Strong
    operator*(U k, Strong a) noexcept
    {
        return Strong(static_cast<Rep>(static_cast<Rep>(k) * a.v_));
    }

    template <typename U,
              typename = std::enable_if_t<std::is_integral_v<U>>>
    friend constexpr Strong
    operator/(Strong a, U k) noexcept
    {
        return Strong(static_cast<Rep>(a.v_ / static_cast<Rep>(k)));
    }

    template <typename U,
              typename = std::enable_if_t<std::is_integral_v<U>>>
    friend constexpr Strong
    operator%(Strong a, U k) noexcept
    {
        return Strong(static_cast<Rep>(a.v_ % static_cast<Rep>(k)));
    }

    /** Prints the raw value: keeps logs and JSON dumps unchanged. */
    friend std::ostream &
    operator<<(std::ostream &os, Strong s)
    {
        return os << +s.v_;
    }

  private:
    Rep v_ = 0;
};

// ---------------------------------------------------------------------
// The simulator core's units. Tags are deliberately empty structs;
// forward declarations suffice.
// ---------------------------------------------------------------------

struct CycleTag;   //!< device clock cycles (200 MHz FPGA clock)
struct NanosTag;   //!< wall-clock nanoseconds (host side)
struct LbaTag;     //!< logical block address (a sector *position*)
struct SectorsTag; //!< sector *count* (the difference type of Lba)
struct BytesTag;   //!< byte count or byte offset
struct PageIdTag;  //!< logical or physical flash page number
struct TableIdTag; //!< embedding table identifier
struct EvIndexTag; //!< embedding row index within one table

/** Device clock cycle count (200 MHz FPGA clock). */
using Cycle = Strong<std::uint64_t, CycleTag>;

/** Wall-clock time in nanoseconds. */
using Nanos = Strong<std::uint64_t, NanosTag>;

/** Logical block (sector) address. */
using Lba = Strong<std::uint64_t, LbaTag>;

/** Count of sectors. */
using Sectors = Strong<std::uint64_t, SectorsTag>;

/** Count of bytes, or a byte offset. */
using Bytes = Strong<std::uint64_t, BytesTag>;

/** Flat flash page number (logical LPN or physical PPN). */
using PageId = Strong<std::uint64_t, PageIdTag>;

/** Embedding table identifier. */
using TableId = Strong<std::uint32_t, TableIdTag>;

/** Embedding row index within one table. */
using EvIndex = Strong<std::uint64_t, EvIndexTag>;

// ---------------------------------------------------------------------
// Affine LBA space: Lba is a position, Sectors its difference type.
// ---------------------------------------------------------------------

constexpr Lba
operator+(Lba a, Sectors n) noexcept
{
    return Lba{a.raw() + n.raw()};
}

constexpr Lba
operator+(Sectors n, Lba a) noexcept
{
    return Lba{n.raw() + a.raw()};
}

constexpr Lba
operator-(Lba a, Sectors n) noexcept
{
    return Lba{a.raw() - n.raw()};
}

} // namespace rmssd

// Hash support so tagged ids key unordered containers directly.
template <typename Rep, typename Tag>
struct std::hash<rmssd::Strong<Rep, Tag>>
{
    std::size_t
    operator()(const rmssd::Strong<Rep, Tag> &s) const noexcept
    {
        return std::hash<Rep>{}(s.raw());
    }
};

#endif // RMSSD_SIM_STRONG_TYPES_H
