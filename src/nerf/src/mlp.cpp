#include "semholo/nerf/mlp.hpp"

#include <cmath>
#include <cstring>
#include <random>

namespace semholo::nerf {

// Adam moment decay rates and the denominator guard.
constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEpsilon = 1e-8f;

Mlp::Mlp(const MlpConfig& config) : config_(config) {
    std::mt19937_64 rng(config.seed);
    auto makeLayer = [&rng](int in, int out) {
        Layer layer;
        layer.in = in;
        layer.out = out;
        const std::size_t n = static_cast<std::size_t>(in) * out;
        layer.w.resize(n);
        layer.b.assign(static_cast<std::size_t>(out), 0.0f);
        // He initialisation for ReLU nets.
        std::normal_distribution<float> init(0.0f, std::sqrt(2.0f / static_cast<float>(in)));
        for (float& w : layer.w) w = init(rng);
        layer.gw.assign(n, 0.0f);
        layer.gb.assign(static_cast<std::size_t>(out), 0.0f);
        layer.mw.assign(n, 0.0f);
        layer.vw.assign(n, 0.0f);
        layer.mb.assign(static_cast<std::size_t>(out), 0.0f);
        layer.vb.assign(static_cast<std::size_t>(out), 0.0f);
        return layer;
    };

    int prev = config.inputDim;
    for (int i = 0; i < config.hiddenLayers; ++i) {
        layers_.push_back(makeLayer(prev, config.hiddenWidth));
        prev = config.hiddenWidth;
    }
    layers_.push_back(makeLayer(prev, config.outputDim));
}

std::size_t Mlp::parameterCount() const {
    std::size_t n = 0;
    for (const Layer& l : layers_) n += l.w.size() + l.b.size();
    return n;
}

int Mlp::effectiveWidth(float widthFraction) const {
    const float f = widthFraction <= 0.0f ? 1.0f : std::min(1.0f, widthFraction);
    return std::max(1, static_cast<int>(std::ceil(f * static_cast<float>(
                                                          config_.hiddenWidth))));
}

std::vector<float> Mlp::forward(std::span<const float> input, float widthFraction,
                                MlpActivations& acts) const {
    const int eff = effectiveWidth(widthFraction);
    acts.widthFraction = widthFraction;
    acts.pre.assign(layers_.size(), {});
    acts.post.assign(layers_.size(), {});

    std::vector<float> current(input.begin(), input.end());
    for (std::size_t li = 0; li < layers_.size(); ++li) {
        const Layer& l = layers_[li];
        const bool lastLayer = li + 1 == layers_.size();
        // Active rows (outputs) and columns (inputs) under slimming.
        const int rows = lastLayer ? l.out : std::min(l.out, eff);
        const int cols = li == 0 ? l.in : std::min(l.in, eff);

        std::vector<float> out(static_cast<std::size_t>(rows), 0.0f);
        for (int r = 0; r < rows; ++r) {
            float acc = l.b[static_cast<std::size_t>(r)];
            const float* wrow = &l.w[static_cast<std::size_t>(r) * l.in];
            for (int c = 0; c < cols; ++c) acc += wrow[c] * current[static_cast<std::size_t>(c)];
            out[static_cast<std::size_t>(r)] = acc;
        }
        acts.pre[li] = out;
        if (!lastLayer) {
            for (float& v : out) v = v > 0.0f ? v : 0.0f;  // ReLU
        }
        acts.post[li] = out;
        current = std::move(out);
    }
    return current;
}

std::vector<float> Mlp::forward(std::span<const float> input,
                                float widthFraction) const {
    MlpActivations acts;
    return forward(input, widthFraction, acts);
}

std::vector<float> Mlp::backward(std::span<const float> input,
                                 const MlpActivations& acts,
                                 std::span<const float> dOutput) {
    const int eff = effectiveWidth(acts.widthFraction);
    std::vector<float> grad(dOutput.begin(), dOutput.end());

    for (std::size_t li = layers_.size(); li-- > 0;) {
        Layer& l = layers_[li];
        const bool lastLayer = li + 1 == layers_.size();
        const int rows = lastLayer ? l.out : std::min(l.out, eff);
        const int cols = li == 0 ? l.in : std::min(l.in, eff);

        // Gradient w.r.t. pre-activation: ReLU gate on hidden layers.
        if (!lastLayer) {
            for (int r = 0; r < rows; ++r)
                if (acts.pre[li][static_cast<std::size_t>(r)] <= 0.0f)
                    grad[static_cast<std::size_t>(r)] = 0.0f;
        }

        // Input to this layer.
        const std::vector<float>* below = li > 0 ? &acts.post[li - 1] : nullptr;
        std::vector<float> dIn(static_cast<std::size_t>(cols), 0.0f);
        for (int r = 0; r < rows; ++r) {
            const float g = grad[static_cast<std::size_t>(r)];
            l.gb[static_cast<std::size_t>(r)] += g;
            float* gwRow = &l.gw[static_cast<std::size_t>(r) * l.in];
            const float* wRow = &l.w[static_cast<std::size_t>(r) * l.in];
            for (int c = 0; c < cols; ++c) {
                const float x = below ? (*below)[static_cast<std::size_t>(c)]
                                      : input[static_cast<std::size_t>(c)];
                gwRow[c] += g * x;
                dIn[static_cast<std::size_t>(c)] += g * wRow[c];
            }
        }
        grad = std::move(dIn);
    }
    return grad;
}

void Mlp::zeroGradients() {
    for (Layer& l : layers_) {
        std::fill(l.gw.begin(), l.gw.end(), 0.0f);
        std::fill(l.gb.begin(), l.gb.end(), 0.0f);
    }
}

void Mlp::adamStep(const AdamConfig& config, std::size_t batchSize) {
    if (batchSize == 0) batchSize = 1;
    ++adamT_;
    const float scale = 1.0f / static_cast<float>(batchSize);
    const float correction1 = 1.0f - std::pow(kBeta1, static_cast<float>(adamT_));
    const float correction2 = 1.0f - std::pow(kBeta2, static_cast<float>(adamT_));

    auto update = [&](std::vector<float>& w, std::vector<float>& g,
                      std::vector<float>& m, std::vector<float>& v) {
        for (std::size_t i = 0; i < w.size(); ++i) {
            const float grad = g[i] * scale;
            m[i] = kBeta1 * m[i] + (1.0f - kBeta1) * grad;
            v[i] = kBeta2 * v[i] + (1.0f - kBeta2) * grad * grad;
            const float mHat = m[i] / correction1;
            const float vHat = v[i] / correction2;
            w[i] -= config.learningRate * mHat / (std::sqrt(vHat) + kEpsilon);
        }
    };
    for (Layer& l : layers_) {
        update(l.w, l.gw, l.mw, l.vw);
        update(l.b, l.gb, l.mb, l.vb);
    }
}

std::vector<std::uint8_t> Mlp::serialize() const {
    std::vector<std::uint8_t> out;
    auto putF = [&out](float f) {
        std::uint32_t bits;
        std::memcpy(&bits, &f, sizeof(bits));
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    };
    for (const Layer& l : layers_) {
        for (const float w : l.w) putF(w);
        for (const float b : l.b) putF(b);
    }
    return out;
}

bool Mlp::deserialize(std::span<const std::uint8_t> data) {
    if (data.size() != parameterCount() * 4) return false;
    std::size_t pos = 0;
    auto getF = [&data, &pos]() {
        std::uint32_t bits = 0;
        for (int i = 0; i < 4; ++i)
            bits |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
        float f;
        std::memcpy(&f, &bits, sizeof(f));
        return f;
    };
    for (Layer& l : layers_) {
        for (float& w : l.w) w = getF();
        for (float& b : l.b) b = getF();
    }
    return true;
}

}  // namespace semholo::nerf
