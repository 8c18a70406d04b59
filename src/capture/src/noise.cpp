#include "semholo/capture/noise.hpp"

#include <cmath>
#include <random>

namespace semholo::capture {

// Axial noise sigma(z) = kSigmaBase + kSigmaQuad * z^2 (metres), the
// Khoshelham & Elberink fit for Kinect-class sensors.
constexpr float kSigmaBase = 0.001f;
constexpr float kSigmaQuad = 0.0019f;
// Working range; returns outside are dropped.
constexpr float kMinRange = 0.3f;
constexpr float kMaxRange = 8.0f;

void applyDepthNoise(DepthImage& depth, const DepthNoiseModel& model,
                     std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::normal_distribution<float> gauss(0.0f, 1.0f);
    std::uniform_real_distribution<float> uni(0.0f, 1.0f);
    for (float& z : depth.data()) {
        if (z <= 0.0f) continue;
        if (z < kMinRange || z > kMaxRange || uni(rng) < model.dropoutRate) {
            z = 0.0f;
            continue;
        }
        const float sigma = kSigmaBase + kSigmaQuad * z * z;
        z += gauss(rng) * sigma;
        // Disparity-like quantisation: step grows with z^2.
        const float step = model.quantizationStep * z * z;
        if (step > 0.0f) z = std::round(z / step) * step;
        if (z <= 0.0f) z = 0.0f;
    }
}

void applyColorNoise(RGBImage& color, const ColorNoiseModel& model,
                     std::uint64_t seed) {
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
    std::normal_distribution<float> gauss(0.0f, model.sigma);
    for (geom::Vec3f& c : color.data()) {
        c.x = geom::clamp(c.x + gauss(rng), 0.0f, 1.0f);
        c.y = geom::clamp(c.y + gauss(rng), 0.0f, 1.0f);
        c.z = geom::clamp(c.z + gauss(rng), 0.0f, 1.0f);
    }
}

}  // namespace semholo::capture
