// Eye-gaze simulation, classification and saccade landing prediction
// (section 3.1: foveated delivery needs to know where the user looks
// *next*, and saccades are the hard case).
//
// Substitution note: no MR headset eye tracker is available, so gaze
// streams come from a standard behavioural model — fixations with
// miniature drift, smooth pursuit at constant angular velocity, and
// ballistic saccades whose duration follows the main-sequence
// relationship (duration ~ 2.2 ms/deg * amplitude + 21 ms). The sample
// rate, the drift and pursuit kinematics and the I-VT classifier's
// thresholds are fixed model constants (gaze.cpp), not settings.
#pragma once

#include <cstdint>
#include <vector>

#include "semholo/geometry/vec.hpp"

namespace semholo::gaze {

using geom::Vec2f;

// One gaze sample: direction as (azimuth, elevation) in degrees relative
// to straight ahead, at 'time' seconds.
struct GazeSample {
    double time{};
    Vec2f angles{};
};

enum class EyeMovement { Fixation, SmoothPursuit, Saccade };

struct GazeEvent {
    EyeMovement type{};
    std::size_t beginIndex{};  // into the sample stream
    std::size_t endIndex{};    // inclusive
};

// Eye-tracker sample rate of the synthetic streams.
inline constexpr double kGazeSampleRateHz = 120.0;

struct GazeModelConfig {
    double fixationMeanDurationS{0.35};
    double pursuitProbability{0.2};       // vs saccade at fixation end
    double saccadeMeanAmplitudeDeg{9.0};
    // Gaze stays within this field of view half-angle.
    double fovHalfAngleDeg{35.0};
};

// Deterministic synthetic gaze stream.
std::vector<GazeSample> generateGazeStream(double durationS,
                                           const GazeModelConfig& config,
                                           std::uint64_t seed);

// Velocity-threshold identification (I-VT with a pursuit band): samples
// below 5 deg/s are fixation, between that and 80 deg/s smooth pursuit,
// above it saccade.
std::vector<GazeEvent> classifyGaze(const std::vector<GazeSample>& samples);

// Ballistic landing-position prediction from the first samples of a
// saccade: amplitude is estimated from peak velocity via the inverse
// main-sequence relation, direction from the velocity vector.
struct LandingPrediction {
    Vec2f predicted{};
    bool valid{false};
};

LandingPrediction predictSaccadeLanding(const std::vector<GazeSample>& samples,
                                        std::size_t saccadeBegin,
                                        std::size_t currentIndex);

// Angular velocity (deg/s) between two samples.
double angularVelocity(const GazeSample& a, const GazeSample& b);

}  // namespace semholo::gaze
