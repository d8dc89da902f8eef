#include "model/embedding.h"

#include "sim/log.h"

namespace rmssd::model {

float
EmbeddingTableSpec::value(std::uint64_t rowIndex, std::uint32_t d) const
{
    RMSSD_ASSERT(rowIndex < numRows, "embedding row out of range");
    RMSSD_ASSERT(d < dim, "embedding dim out of range");
    return syntheticElement(hashCombine(seed, tableId), rowIndex, d);
}

Vector
EmbeddingTableSpec::row(std::uint64_t rowIndex) const
{
    RMSSD_ASSERT(rowIndex < numRows, "embedding row out of range");
    const std::uint64_t tableHash = hashCombine(seed, tableId);
    Vector v(dim);
    for (std::uint32_t d = 0; d < dim; ++d)
        v[d] = syntheticElement(tableHash, rowIndex, d);
    return v;
}

void
EmbeddingTableSpec::fillRows(std::uint64_t firstRow, std::uint64_t count,
                             std::span<float> out) const
{
    fillRowsWith(bestRowKernel(), firstRow, count, out);
}

void
EmbeddingTableSpec::fillRowsWith(RowKernel kernel, std::uint64_t firstRow,
                                 std::uint64_t count,
                                 std::span<float> out) const
{
    RMSSD_ASSERT(firstRow <= numRows && count <= numRows - firstRow,
                 "embedding rows out of range");
    RMSSD_ASSERT(out.size() == count * dim, "fillRows size mismatch");
    synthesizeRows(kernel, hashCombine(seed, tableId), firstRow, count,
                   dim, out.data());
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
            acc[d] += syntheticElement(tableHash, idx, d);
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
