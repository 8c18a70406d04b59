// A small fully-connected network with manual backprop and Adam — the
// learnable core of the image-semantics channel (section 3.2).
//
// The network is *slimmable* (Yu et al. style): forward/backward accept a
// width fraction and use only the first ceil(frac * width) units of every
// hidden layer. All sub-networks share weights, which is exactly the
// mechanism section 3.2 proposes for rate adaptation: a narrow sub-network
// serves low input resolutions, the full width serves high ones.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace semholo::nerf {

struct MlpConfig {
    int inputDim{3};
    int outputDim{4};
    int hiddenWidth{32};
    int hiddenLayers{2};
    std::uint64_t seed{1};
};

// Adam's moment decays (0.9, 0.999) and denominator guard (1e-8) are the
// usual fixed constants (mlp.cpp); the learning rate is the setting.
struct AdamConfig {
    float learningRate{1e-2f};
};

// Per-sample forward activations, needed for the backward pass.
struct MlpActivations {
    // pre[i] = layer i pre-activation, post[i] = after ReLU.
    std::vector<std::vector<float>> pre;
    std::vector<std::vector<float>> post;
    float widthFraction{1.0f};
};

class Mlp {
public:
    explicit Mlp(const MlpConfig& config);

    const MlpConfig& config() const { return config_; }
    std::size_t parameterCount() const;

    // Effective hidden width at a given fraction.
    int effectiveWidth(float widthFraction) const;

    // Forward pass; output is linear (callers apply their own heads).
    std::vector<float> forward(std::span<const float> input, float widthFraction,
                               MlpActivations& acts) const;
    std::vector<float> forward(std::span<const float> input,
                               float widthFraction = 1.0f) const;

    // Accumulate gradients for one sample given dL/d(output); returns
    // dL/d(input) (unused by most callers but cheap to produce).
    std::vector<float> backward(std::span<const float> input,
                                const MlpActivations& acts,
                                std::span<const float> dOutput);

    void zeroGradients();
    // One Adam update from the accumulated gradients (scaled by 1/batch).
    void adamStep(const AdamConfig& config, std::size_t batchSize);

    // Deterministic serialization (weights only) for model delivery.
    std::vector<std::uint8_t> serialize() const;
    bool deserialize(std::span<const std::uint8_t> data);

private:
    struct Layer {
        int in{}, out{};
        std::vector<float> w, b;      // weights (out x in), biases
        std::vector<float> gw, gb;    // gradient accumulators
        std::vector<float> mw, vw, mb, vb;  // Adam moments
    };

    MlpConfig config_;
    std::vector<Layer> layers_;
    std::int64_t adamT_{0};
};

}  // namespace semholo::nerf
