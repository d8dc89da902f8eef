/**
 * @file
 * Flash translation layer: LBA-space reads/writes on top of the flash
 * array, shared between the conventional block-I/O path and the
 * embedding-vector path (Fig. 5's MUX).
 *
 * The MUX of the paper round-robins block and EV requests into the
 * shared FTL; with one request source active at a time (our
 * experiments) this reduces to a fixed pipelined translation latency,
 * which we charge per request.
 */

#ifndef RMSSD_FTL_FTL_H
#define RMSSD_FTL_FTL_H

#include <cstdint>
#include <memory>
#include <span>

#include "flash/flash_array.h"
#include "ftl/mapping.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace rmssd::ftl {

/** Request source tag recorded in the path buffer (Fig. 5). */
enum class RequestPath : std::uint8_t
{
    BlockIo,   //!< conventional NVMe block request
    Embedding, //!< EV Translator-generated vector request
};

/** FTL over a flash array with a pluggable mapping. */
class Ftl
{
  public:
    /** Cycles for one pipelined address translation. */
    static constexpr Cycle kTranslateCycles{4};

    Ftl(flash::FlashArray &array, std::unique_ptr<Mapping> mapping);

    /** Build with the paper's linear mapping. */
    static Ftl makeLinear(flash::FlashArray &array);

    std::uint32_t sectorsPerPage() const { return sectorsPerPage_; }
    std::uint32_t sectorSize() const { return sectorSize_; }
    std::uint32_t pageSize() const { return pageSize_; }

    /** Physical location of a logical byte address. */
    struct PhysLoc
    {
        PageId ppn;
        Bytes pageByteOffset;
    };

    /** Translate (lba, intra-sector byte offset) to a physical page. */
    PhysLoc translate(Lba lba, Bytes byteInSector = Bytes{}) const;

    /**
     * Timed whole-page-aligned block read of @p sectors sectors from
     * @p lba. @p out receives the bytes (may be empty = timing only).
     * @return completion cycle of the last page.
     */
    Cycle readSectors(Cycle issue, Lba lba, Sectors sectors,
                      std::span<std::uint8_t> out);

    /**
     * Timed vector-grained read of @p bytes bytes at logical byte
     * address (lba, byteInSector): the EV path. Must not cross a page.
     * @return completion cycle
     */
    Cycle readBytes(Cycle issue, Lba lba, Bytes byteInSector, Bytes bytes);

    /**
     * The timed read above, read in place as well, as
     * flash::FlashArray::readVector: @p scratch is empty for
     * timing-only, else exactly @p bytes long.
     * @return completion cycles and a view of the bytes read
     */
    flash::VectorRead readBytes(Cycle issue, Lba lba, Bytes byteInSector,
                                Bytes bytes,
                                std::span<std::uint8_t> scratch);

    /** Functional write of arbitrary bytes at a logical byte address. */
    void writeBytesFunctional(Lba lba, Bytes byteInSector,
                              std::span<const std::uint8_t> data);

    /** Note a request entering the shared MUX (for stats). */
    void recordPath(RequestPath path);

    const Counter &blockRequests() const { return blockRequests_; }
    const Counter &evRequests() const { return evRequests_; }

    flash::FlashArray &array() { return array_; }

    /** The mapping behind this FTL (placement planners re-shape it). */
    Mapping &mapping() { return *mapping_; }
    const Mapping &mapping() const { return *mapping_; }

  private:
    /**
     * Physical location of an EV read (the mapping sees the read, for
     * its heat signal) after recording it on the EV path.
     */
    PhysLoc locateEvRead(Lba lba, Bytes byteInSector, Bytes bytes);

    /** Byte offset of (lba, byteInSector) within its page @p lpn. */
    Bytes pageByteOffset(PageId lpn, Lba lba, Bytes byteInSector) const;

    flash::FlashArray &array_;
    std::unique_ptr<Mapping> mapping_;
    // Geometry constants, fixed at construction.
    std::uint32_t sectorsPerPage_;
    std::uint32_t sectorSize_;
    std::uint32_t pageSize_;

    Counter blockRequests_;
    Counter evRequests_;
};

} // namespace rmssd::ftl

#endif // RMSSD_FTL_FTL_H
