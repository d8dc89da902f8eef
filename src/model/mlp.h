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

/** One fully-connected layer: y = act(W x + b). */
class FcLayer
{
  public:
    FcLayer(std::uint32_t inputs, std::uint32_t outputs,
            Activation activation, std::uint64_t seed);

    std::uint32_t inputs() const { return weights_.cols(); }
    std::uint32_t outputs() const { return weights_.rows(); }
    Activation activation() const { return activation_; }

    const Matrix &weights() const { return weights_; }
    const Vector &bias() const { return bias_; }

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
    Matrix weights_; //!< outputs x inputs
    Vector bias_;
    Activation activation_;
};

/** A stack of FC layers. */
class Mlp
{
  public:
    /**
     * Build from @p widths: input dimension @p inputDim, then one
     * layer per width. Hidden layers use ReLU; the last layer uses
     * @p lastActivation.
     */
    Mlp(std::uint32_t inputDim, const std::vector<std::uint32_t> &widths,
        Activation lastActivation, std::uint64_t seed);

    Mlp() = default;

    const std::vector<FcLayer> &layers() const { return layers_; }
    std::uint32_t inputDim() const { return inputDim_; }
    std::uint32_t outputDim() const;

    Vector forward(const Vector &x) const;

    std::uint64_t paramBytes() const;

  private:
    std::uint32_t inputDim_ = 0;
    std::vector<FcLayer> layers_;
};

} // namespace rmssd::model

#endif // RMSSD_MODEL_MLP_H
