/**
 * @file
 * Multi-layer perceptron: fully-connected layers with ReLU hidden
 * activations and a sigmoid output, the functional reference for both
 * the host CPU execution and the FPGA MLP Acceleration Engine.
 */

#ifndef RMSSD_MODEL_MLP_H
#define RMSSD_MODEL_MLP_H

#include <cstdint>
#include <span>
#include <vector>

#include "model/tensor.h"

namespace rmssd::model {

/** Activation applied after a fully-connected layer. */
enum class Activation : std::uint8_t
{
    None,
    Relu,
    Sigmoid,
};

/**
 * What a layer holds: its weights, or only its shape. A timing-only
 * device builds shapes only, because kernel search, paramBytes() and
 * the resource model read nothing more; a forward pass needs
 * Weights::Built.
 */
enum class Weights : std::uint8_t
{
    Built,
    ShapesOnly,
};

/** One fully-connected layer: y = act(W x + b). */
class FcLayer
{
  public:
    /**
     * With @p weights == Weights::ShapesOnly the layer keeps only its
     * shape and activation: weights() and the bias are empty, and
     * forward() fatal()s.
     */
    FcLayer(std::uint32_t inputs, std::uint32_t outputs,
            Activation activation, std::uint64_t seed,
            Weights weights = Weights::Built);

    std::uint32_t inputs() const { return inputs_; }
    std::uint32_t outputs() const { return outputs_; }
    bool hasWeights() const { return !bias_.empty(); }

    /**
     * reachability: test-observer — read by
     * ShapesOnlyModel.KeepsShapesAndParamBytesButNoWeights and
     * RmSsd.TimingOnlyDeviceBuildsNoWeights.
     */
    const Matrix &weights() const { return weights_; }

    Vector forward(const Vector &x) const;

    /**
     * forward() of the input @p head ++ @p tail without concatenating
     * it (the decomposed L0: Le's pooled columns, then Lb's bottom-MLP
     * columns). Bit-identical to forward(concat(head, tail)).
     */
    Vector forward(std::span<const float> head,
                   std::span<const float> tail) const;

    /** Parameter bytes (weights + bias) in fp32. */
    std::uint64_t paramBytes() const;

  private:
    std::uint32_t inputs_ = 0;
    std::uint32_t outputs_ = 0;
    Matrix weights_; //!< outputs x inputs; empty when shapes-only
    Vector bias_;    //!< empty when shapes-only
    Activation activation_;
};

/** A stack of FC layers. */
class Mlp
{
  public:
    /**
     * Build from @p widths: input dimension @p inputDim, then one
     * layer per width. Hidden layers use ReLU; the last layer uses
     * @p lastActivation. @p weights applies to every layer.
     */
    Mlp(std::uint32_t inputDim, const std::vector<std::uint32_t> &widths,
        Activation lastActivation, std::uint64_t seed,
        Weights weights = Weights::Built);

    Mlp() = default;

    const std::vector<FcLayer> &layers() const { return layers_; }

    Vector forward(const Vector &x) const;

    std::uint64_t paramBytes() const;

  private:
    std::vector<FcLayer> layers_;
};

} // namespace rmssd::model

#endif // RMSSD_MODEL_MLP_H
