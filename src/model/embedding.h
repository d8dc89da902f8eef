/**
 * @file
 * Embedding tables with deterministic synthetic content.
 *
 * The value of dimension d of row r of table t is a pure function of
 * (seed, t, r, d), so a logically 30 GB table occupies no memory: the
 * reference model, the host baselines, and the bytes programmed into
 * simulated flash all derive from the same function and therefore
 * agree bit-for-bit.
 */

#ifndef RMSSD_MODEL_EMBEDDING_H
#define RMSSD_MODEL_EMBEDDING_H

#include <cstdint>
#include <span>
#include <vector>

#include "model/tensor.h"
#include "sim/rng.h"

namespace rmssd::model {

/**
 * Element (row, d) of the synthetic table whose hashCombine(seed,
 * tableId) is @p tableHash: integer hashing, then one exact float
 * step (DESIGN.md §13). Hoisting that table hash out of a per-element
 * loop changes no value: it depends on neither the row nor the
 * dimension. value(), row() and slsReference() evaluate it one scalar
 * at a time; fillRows() runs it through synthesizeRows()' bodies.
 */
constexpr float
syntheticElement(std::uint64_t tableHash, std::uint64_t row,
                 std::uint32_t d)
{
    return hashToUnitFloat(hashCombine(tableHash, (row << 8) ^ d));
}

/** Static description of one embedding table. */
struct EmbeddingTableSpec
{
    std::uint32_t tableId = 0;
    std::uint64_t numRows = 0;
    std::uint32_t dim = 0;
    std::uint64_t seed = 0;

    /** Bytes of one embedding vector (fp32). */
    std::uint32_t vectorBytes() const
    {
        return dim * static_cast<std::uint32_t>(sizeof(float));
    }

    /** Total bytes of the table. */
    std::uint64_t totalBytes() const { return numRows * vectorBytes(); }

    /** Deterministic value of element (row, d). */
    float value(std::uint64_t row, std::uint32_t d) const;

    /**
     * Materialize one row.
     * reachability: test-observer — Embedding.SlsReferenceIsRowOrderFold.
     */
    Vector row(std::uint64_t rowIndex) const;

    /**
     * Materialize rows [firstRow, firstRow + count) into @p out, row
     * after row (count * dim floats), through the fastest body this
     * CPU runs. Every element is bit-equal to value() (DESIGN.md §13).
     */
    void fillRows(std::uint64_t firstRow, std::uint64_t count,
                  std::span<float> out) const;

    /** fillRows() through one named body; panics if it is not supported. */
    void fillRowsWith(RowKernel kernel, std::uint64_t firstRow,
                      std::uint64_t count, std::span<float> out) const;

    /** Reference SparseLengthsSum: pool the given rows. */
    Vector slsReference(std::span<const std::uint64_t> indices) const;
};

/** The embedding layer: one spec per sparse feature. */
class EmbeddingLayer
{
  public:
    EmbeddingLayer() = default;
    explicit EmbeddingLayer(std::vector<EmbeddingTableSpec> tables);

    const std::vector<EmbeddingTableSpec> &tables() const
    {
        return tables_;
    }
    std::uint32_t numTables() const
    {
        return static_cast<std::uint32_t>(tables_.size());
    }

    std::uint64_t totalBytes() const;

    /**
     * Reference pooling for one sample: @p indicesPerTable[t] are the
     * lookups into table t; the per-table pooled vectors are
     * concatenated in table order.
     */
    Vector pooledReference(
        const std::vector<std::vector<std::uint64_t>> &indicesPerTable)
        const;

  private:
    std::vector<EmbeddingTableSpec> tables_;
};

} // namespace rmssd::model

#endif // RMSSD_MODEL_EMBEDDING_H
