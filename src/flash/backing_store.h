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
 * hash-node walk. Slots live in one arena of fixed-size chunks
 * (kChunkBytes each), allocated as the slots fill and never
 * relocated, so a slot's address is its chunk's base plus an offset
 * and a view into a page stays valid until that page is written. A
 * page keeps its slot for the store's lifetime: the image is
 * provisioned once and never erased. Each chunk's base is aligned to
 * a 4 KiB OS page, so a 4 KiB flash page spans one OS page, not two.
 * Nothing iterates the index, so no result depends on bucket order.
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
    /** Bytes of one arena chunk (one page when a page is larger). */
    static constexpr Bytes kChunkBytes{1 << 20};

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
     * The @p bytes bytes at @p offset within page @p ppn, read in
     * place: a view into the stored page, valid until that page is
     * written. An unwritten page's filler bytes are written into
     * @p scratch (at least @p bytes long) and a view of it is returned
     * instead.
     */
    std::span<const std::uint8_t> view(PageId ppn, Bytes offset,
                                       Bytes bytes,
                                       std::span<std::uint8_t> scratch) const;

    /**
     * Copy @p out.size() bytes from @p offset within page @p ppn.
     * Unwritten pages yield deterministic filler bytes.
     */
    void read(PageId ppn, Bytes offset,
              std::span<std::uint8_t> out) const;

    /**
     * Number of pages written so far.
     * reachability: test-observer — read by
     * TimedLoad.TimingOnlyLoadDoesNotMaterializePages and
     * TableLoaders.PageComposerEqualsRowAtATimeLoader, which count the
     * pages a table load writes: nothing else sees a page that should
     * not exist.
     */
    std::size_t materializedPages() const { return index_.size(); }

    /**
     * reachability: test-observer — read by
     * TimedLoad.TimingOnlyLoadDoesNotMaterializePages.
     */
    Bytes pageSizeBytes() const { return pageSize_; }

  private:
    /** Alignment of each chunk's base: one OS page. */
    static constexpr Bytes kChunkAlign{4096};

    /** Deterministic filler byte for unwritten storage. */
    static std::uint8_t fillerByte(PageId ppn, std::uint64_t off);

    /** First byte of @p slot's page. */
    std::uint8_t *slotData(std::uint32_t slot) const
    {
        return chunkBases_[slot / pagesPerChunk_] +
               static_cast<std::uint64_t>(slot % pagesPerChunk_) *
                   pageSize_.raw();
    }

    /** Content of @p ppn, or nullptr when unwritten. */
    const std::uint8_t *find(PageId ppn) const;
    /**
     * Content of @p ppn. A new page gets a slot whose bytes are
     * uninitialized and @p created is set; the caller writes every
     * byte of it.
     */
    std::uint8_t *materialize(PageId ppn, bool &created);

    Bytes pageSize_;
    std::uint32_t pagesPerChunk_;
    FlatMap<std::uint32_t> index_; //!< page id -> slot
    /** Chunk allocations, each kChunkAlign bytes over for alignment. */
    std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
    /** First page of each chunk: its allocation, rounded up. */
    std::vector<std::uint8_t *> chunkBases_;
    std::uint32_t slotsUsed_ = 0; //!< slots handed out
};

} // namespace rmssd::flash

#endif // RMSSD_FLASH_BACKING_STORE_H
