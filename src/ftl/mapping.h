/**
 * @file
 * Logical-to-physical mapping strategies for the FTL.
 *
 * The paper's prototype uses a linear mapping (Section V-A);
 * placement swaps in ftl::FrequencyMapping (freq_mapping.h). Page
 * numbers are the tagged PageId type: logical and physical page
 * numbers share a representation, and the mapping is the only place
 * the two meanings meet.
 */

#ifndef RMSSD_FTL_MAPPING_H
#define RMSSD_FTL_MAPPING_H

#include <cstdint>

#include "sim/log.h"
#include "sim/types.h"

namespace rmssd::ftl {

/** Maps logical page numbers to physical page numbers. */
class Mapping
{
  public:
    virtual ~Mapping() = default;

    /** Translate a logical page number. */
    virtual PageId translate(PageId lpn) const = 0;

    /** Record a write: may reassign the physical page. */
    virtual PageId assignForWrite(PageId lpn) = 0;

    /**
     * Note one EV-path read of @p lpn and return its physical page:
     * the one per-read hook. Frequency-aware mappings feed their
     * online heat estimate from it; a plain mapping just translates.
     */
    virtual PageId readPage(PageId lpn) = 0;
};

/**
 * Identity mapping over a fixed number of pages, as used by the
 * paper's emulated SSD. Because the geometry interleaves consecutive
 * physical pages across channels/dies, a linear map already stripes
 * sequential logical data over all channels.
 */
class LinearMapping final : public Mapping
{
  public:
    explicit LinearMapping(std::uint64_t totalPages);

    PageId
    translate(PageId lpn) const override
    {
        RMSSD_ASSERT(lpn.raw() < totalPages_, "lpn beyond device capacity");
        return lpn;
    }

    PageId assignForWrite(PageId lpn) override;
    PageId readPage(PageId lpn) override { return translate(lpn); }

  private:
    std::uint64_t totalPages_;
};

} // namespace rmssd::ftl

#endif // RMSSD_FTL_MAPPING_H
