#include "model/embedding.h"

#include <cstring>

#include "sim/log.h"
#include "sim/rng.h"

namespace rmssd::model {

namespace {

/**
 * Element (row, d) of the table whose hashCombine(seed, tableId) is
 * @p tableHash. Hoisting that inner hash out of a per-element loop
 * changes no value: it depends on neither the row nor the dimension.
 */
float
elementValue(std::uint64_t tableHash, std::uint64_t rowIndex,
             std::uint32_t d)
{
    return hashToUnitFloat(hashCombine(tableHash, (rowIndex << 8) ^ d));
}

} // namespace

float
EmbeddingTableSpec::value(std::uint64_t rowIndex, std::uint32_t d) const
{
    RMSSD_ASSERT(rowIndex < numRows, "embedding row out of range");
    RMSSD_ASSERT(d < dim, "embedding dim out of range");
    return elementValue(hashCombine(seed, tableId), rowIndex, d);
}

Vector
EmbeddingTableSpec::row(std::uint64_t rowIndex) const
{
    RMSSD_ASSERT(rowIndex < numRows, "embedding row out of range");
    const std::uint64_t tableHash = hashCombine(seed, tableId);
    Vector v(dim);
    for (std::uint32_t d = 0; d < dim; ++d)
        v[d] = elementValue(tableHash, rowIndex, d);
    return v;
}

void
EmbeddingTableSpec::rowBytes(std::uint64_t rowIndex,
                             std::span<std::uint8_t> out) const
{
    RMSSD_ASSERT(rowIndex < numRows, "embedding row out of range");
    RMSSD_ASSERT(out.size() == vectorBytes(), "rowBytes size mismatch");
    const std::uint64_t tableHash = hashCombine(seed, tableId);
    for (std::uint32_t d = 0; d < dim; ++d) {
        const float v = elementValue(tableHash, rowIndex, d);
        std::memcpy(out.data() + d * sizeof(float), &v, sizeof(float));
    }
}

Vector
EmbeddingTableSpec::slsReference(
    std::span<const std::uint64_t> indices) const
{
    // Fold-left over the rows, added straight into the output: each
    // element sees the rows in lookup order, as the device's EV sum.
    const std::uint64_t tableHash = hashCombine(seed, tableId);
    Vector acc(dim, 0.0f);
    for (const std::uint64_t idx : indices) {
        RMSSD_ASSERT(idx < numRows, "embedding row out of range");
        for (std::uint32_t d = 0; d < dim; ++d)
            acc[d] += elementValue(tableHash, idx, d);
    }
    return acc;
}

EmbeddingLayer::EmbeddingLayer(std::vector<EmbeddingTableSpec> tables)
    : tables_(std::move(tables))
{
}

std::uint64_t
EmbeddingLayer::totalBytes() const
{
    std::uint64_t bytes = 0;
    for (const auto &t : tables_)
        bytes += t.totalBytes();
    return bytes;
}

Vector
EmbeddingLayer::pooledReference(
    const std::vector<std::vector<std::uint64_t>> &indicesPerTable) const
{
    RMSSD_ASSERT(indicesPerTable.size() == tables_.size(),
                 "one index list per table required");
    Vector out;
    for (std::size_t t = 0; t < tables_.size(); ++t) {
        const Vector pooled =
            tables_[t].slsReference(indicesPerTable[t]);
        out.insert(out.end(), pooled.begin(), pooled.end());
    }
    return out;
}

} // namespace rmssd::model
