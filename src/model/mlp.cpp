#include "model/mlp.h"

#include <cmath>

#include "sim/log.h"
#include "sim/rng.h"

namespace rmssd::model {

FcLayer::FcLayer(std::uint32_t inputs, std::uint32_t outputs,
                 Activation activation, std::uint64_t seed,
                 Weights weights)
    : inputs_(inputs), outputs_(outputs), activation_(activation)
{
    if (weights == Weights::ShapesOnly)
        return;
    weights_ = Matrix::random(outputs, inputs, seed);
    bias_.resize(outputs);
    for (std::uint32_t i = 0; i < outputs; ++i)
        bias_[i] = hashToUnitFloat(hashCombine(seed, 0xb1a5ULL + i)) * 0.1f;
}

Vector
FcLayer::forward(const Vector &x) const
{
    return forward(x, {});
}

Vector
FcLayer::forward(std::span<const float> head,
                 std::span<const float> tail) const
{
    if (!hasWeights())
        fatal("forward pass on a shapes-only %u -> %u FC layer: the "
              "model was built for a timing-only device, which keeps no "
              "MLP weights; run a functional device or a host DlrmModel",
              inputs_, outputs_);
    Vector y(outputs());
    gemv(weights_, head, tail, y);
    for (std::uint32_t i = 0; i < outputs(); ++i) {
        y[i] += bias_[i];
        switch (activation_) {
          case Activation::None:
            break;
          case Activation::Relu:
            y[i] = y[i] > 0.0f ? y[i] : 0.0f;
            break;
          case Activation::Sigmoid:
            y[i] = 1.0f / (1.0f + std::exp(-y[i]));
            break;
        }
    }
    return y;
}

std::uint64_t
FcLayer::paramBytes() const
{
    return (static_cast<std::uint64_t>(inputs()) * outputs() +
            outputs()) *
           sizeof(float);
}

Mlp::Mlp(std::uint32_t inputDim, const std::vector<std::uint32_t> &widths,
         Activation lastActivation, std::uint64_t seed, Weights weights)
{
    RMSSD_ASSERT(!widths.empty(), "MLP with no layers");
    std::uint32_t in = inputDim;
    for (std::size_t i = 0; i < widths.size(); ++i) {
        const bool last = (i + 1 == widths.size());
        layers_.emplace_back(in, widths[i],
                             last ? lastActivation : Activation::Relu,
                             hashCombine(seed, i), weights);
        in = widths[i];
    }
}

Vector
Mlp::forward(const Vector &x) const
{
    Vector v = x;
    for (const FcLayer &layer : layers_)
        v = layer.forward(v);
    return v;
}

std::uint64_t
Mlp::paramBytes() const
{
    std::uint64_t bytes = 0;
    for (const FcLayer &layer : layers_)
        bytes += layer.paramBytes();
    return bytes;
}

} // namespace rmssd::model
