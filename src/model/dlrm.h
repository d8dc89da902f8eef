/**
 * @file
 * DLRM-style recommendation model: configuration, functional reference
 * inference (Fig. 1's architecture), and per-layer shape queries used
 * by both the host CPU cost model and the FPGA engine.
 *
 * Feature interaction is concatenation: the top MLP consumes
 * [bottom-MLP output ++ pooled embedding of each table], matching the
 * paper's intra-layer decomposition setting (Section IV-C2, where the
 * first top layer splits into a bottom part Rb and an embedding part
 * Re).
 */

#ifndef RMSSD_MODEL_DLRM_H
#define RMSSD_MODEL_DLRM_H

#include <cstdint>
#include <string>
#include <vector>

#include "model/embedding.h"
#include "model/mlp.h"
#include "model/tensor.h"

namespace rmssd::model {

/** Shape of one FC layer (R inputs, C outputs). */
struct LayerShape
{
    std::uint32_t inputs = 0;
    std::uint32_t outputs = 0;

    bool operator==(const LayerShape &) const = default;
};

/**
 * Architectural description of a model (Table III row).
 *
 * Following the paper's convention, @ref bottomWidths INCLUDES the
 * dense input dimension ("128-64-32" = two weight layers 128->64->32),
 * while @ref topWidths lists only layer outputs; the top input is the
 * feature-interaction concat (numTables * embDim + bottom output).
 * This convention reproduces both the MLP sizes of Table III and the
 * per-layer structure of Table V.
 */
struct ModelConfig
{
    std::string name;
    std::vector<std::uint32_t> bottomWidths; //!< e.g. {128, 64, 32}
    std::vector<std::uint32_t> topWidths;    //!< e.g. {256, 64, 1}
    std::uint32_t embDim = 32;
    std::uint32_t numTables = 8;
    std::uint32_t lookupsPerTable = 80;
    std::uint64_t rowsPerTable = 1024;
    std::uint64_t seed = 42;
    /**
     * Global ids of this config's tables; empty = identity (table t
     * IS global table t). A sharded sub-model (cluster layer) keeps
     * the parent's global ids here so the deterministic table content
     * — seeded per global id — matches the unsharded model
     * bit-for-bit (see withTableSubset).
     */
    std::vector<std::uint32_t> tableIds;

    std::uint32_t denseInputDim() const;
    std::uint32_t bottomOutputDim() const;
    /** Concat width feeding the top MLP: M * dim + bottom output. */
    std::uint32_t topInputDim() const;
    std::uint32_t vectorBytes() const;
    std::uint64_t embeddingBytes() const;
    std::uint64_t lookupsPerSample() const;

    std::vector<LayerShape> bottomShapes() const;
    std::vector<LayerShape> topShapes() const;
    /** All FC shapes, bottom then top. */
    std::vector<LayerShape> allShapes() const;

    /** Set rowsPerTable so the embedding layer totals @p gb gigabytes. */
    ModelConfig &withTotalEmbeddingGB(double gb);
    /** Shrink rows for functional tests (tables become loadable). */
    ModelConfig &withRowsPerTable(std::uint64_t rows);

    /** Global id of local table @p t (identity when tableIds empty). */
    std::uint32_t globalTableId(std::uint32_t t) const;
    /**
     * Copy of this config restricted to the given local table
     * positions: numTables shrinks to tables.size() and tableIds maps
     * each new local slot to its global id, so a DlrmModel built from
     * the copy generates exactly the same table content as the parent
     * did for those tables.
     */
    ModelConfig
    withTableSubset(const std::vector<std::uint32_t> &tables) const;
};

/** One inference request sample. */
struct Sample
{
    Vector dense;
    /** indices[t] = lookups into table t. */
    std::vector<std::vector<std::uint64_t>> indices;
};

/**
 * Functional DLRM with deterministic weights. A model built with
 * Weights::ShapesOnly (what a timing-only device holds) keeps the
 * layer shapes and the embedding specs but no MLP weights:
 * referenceInference() and inferenceWithPooled() fatal() on it.
 */
class DlrmModel
{
  public:
    explicit DlrmModel(const ModelConfig &config,
                       Weights weights = Weights::Built);

    const ModelConfig &config() const { return config_; }
    bool hasWeights() const
    {
        return bottom_.layers().front().hasWeights();
    }
    const Mlp &bottomMlp() const { return bottom_; }
    const Mlp &topMlp() const { return top_; }
    const EmbeddingLayer &embedding() const { return embedding_; }

    /** Full reference inference for one sample -> CTR score. */
    float referenceInference(const Sample &sample) const;

    /** Reference inference given an externally pooled embedding. */
    float inferenceWithPooled(const Vector &dense,
                              const Vector &pooled) const;

    /** Build a deterministic sample (for tests/examples). */
    Sample makeSample(std::uint64_t sampleSeed) const;

  private:
    ModelConfig config_;
    Mlp bottom_;
    Mlp top_;
    EmbeddingLayer embedding_;
};

} // namespace rmssd::model

#endif // RMSSD_MODEL_DLRM_H
