#include "ftl/mapping.h"

#include "sim/log.h"

namespace rmssd::ftl {

LinearMapping::LinearMapping(std::uint64_t totalPages)
    : totalPages_(totalPages)
{
}

PageId
LinearMapping::translate(PageId lpn) const
{
    RMSSD_ASSERT(lpn.raw() < totalPages_, "lpn beyond device capacity");
    return lpn;
}

PageId
LinearMapping::assignForWrite(PageId lpn)
{
    return translate(lpn);
}

} // namespace rmssd::ftl
