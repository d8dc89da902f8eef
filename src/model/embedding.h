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

namespace rmssd::model {

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

    /** Serialize one row's fp32 bytes into @p out (vectorBytes()). */
    void rowBytes(std::uint64_t rowIndex,
                  std::span<std::uint8_t> out) const;

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
