/**
 * @file
 * Sparse functional backing store for flash page content.
 *
 * Only pages that have actually been programmed consume memory; reads
 * of never-written pages return deterministic hash-derived bytes so
 * every read is well defined. Small embedding tables (tests, examples)
 * are physically written and round-trip byte-exactly; the 30 GB
 * benchmark tables run in timing-only mode and never materialize data.
 *
 * Pages are found through a FlatMap index (page id -> slot): one
 * probe of a contiguous array per functional EV read instead of a
 * hash-node walk. Each materialized page is its own allocation,
 * released on erase; the slot is reused by the next new page. Nothing
 * iterates the index, so no result depends on bucket order.
 */

#ifndef RMSSD_FLASH_BACKING_STORE_H
#define RMSSD_FLASH_BACKING_STORE_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/flat_map.h"
#include "sim/types.h"

namespace rmssd::flash {

/** Sparse page-content map keyed by physical page number. */
class BackingStore
{
  public:
    explicit BackingStore(Bytes pageSizeBytes);

    /** Overwrite a full page. @p data must be exactly one page. */
    void writePage(PageId ppn, std::span<const std::uint8_t> data);

    /**
     * Overwrite part of a page starting at @p offset. On a page not
     * yet written, the bytes outside the written range read back as
     * the filler they read as before the write.
     */
    void writePartial(PageId ppn, Bytes offset,
                      std::span<const std::uint8_t> data);

    /**
     * Read @p out.size() bytes from @p offset within page @p ppn.
     * Unwritten pages yield deterministic filler bytes.
     */
    void read(PageId ppn, Bytes offset,
              std::span<std::uint8_t> out) const;

    /** Whether a page has ever been written. */
    bool isWritten(PageId ppn) const;

    /** Drop a page's content (block erase path). */
    void erasePage(PageId ppn);

    /** Number of pages currently materialized. */
    std::size_t materializedPages() const { return index_.size(); }

    Bytes pageSizeBytes() const { return pageSize_; }

  private:
    /** Deterministic filler byte for unwritten storage. */
    static std::uint8_t fillerByte(PageId ppn, std::uint64_t off);

    /** Content of @p ppn, or nullptr when unwritten. */
    const std::uint8_t *find(PageId ppn) const;
    /**
     * Content of @p ppn. A new page is allocated uninitialized and
     * @p created is set; the caller writes every byte of it.
     */
    std::uint8_t *materialize(PageId ppn, bool &created);

    Bytes pageSize_;
    FlatMap<std::uint32_t> index_; //!< page id -> slot in slots_
    std::vector<std::unique_ptr<std::uint8_t[]>> slots_;
    std::vector<std::uint32_t> freeSlots_;
};

} // namespace rmssd::flash

#endif // RMSSD_FLASH_BACKING_STORE_H
