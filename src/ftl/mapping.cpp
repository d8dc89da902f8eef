#include "ftl/mapping.h"

namespace rmssd::ftl {

LinearMapping::LinearMapping(std::uint64_t totalPages)
    : totalPages_(totalPages)
{
}

PageId
LinearMapping::assignForWrite(PageId lpn)
{
    return translate(lpn);
}

} // namespace rmssd::ftl
