// RGB-D sensor noise model (Kinect-class, per Khoshelham & Elberink):
// axial depth noise grows quadratically with range, plus quantisation
// and random dropout. Applied to rasterized frames so the fusion and
// keypoint pipelines see realistic sensor artefacts. The axial-noise
// curve and the working range are fixed constants (noise.cpp); dropout,
// quantisation and colour noise are settings.
#pragma once

#include <cstdint>

#include "semholo/capture/image.hpp"

namespace semholo::capture {

struct DepthNoiseModel {
    // Probability that a valid pixel returns no depth.
    float dropoutRate{0.01f};
    // Depth quantisation step at 1 m (scales with z^2 like Kinect disparity).
    float quantizationStep{0.001f};
};

struct ColorNoiseModel {
    float sigma{0.01f};  // additive Gaussian per channel
};

// Apply sensor noise in place. Deterministic given 'seed'.
void applyDepthNoise(DepthImage& depth, const DepthNoiseModel& model,
                     std::uint64_t seed);
void applyColorNoise(RGBImage& color, const ColorNoiseModel& model, std::uint64_t seed);

}  // namespace semholo::capture
