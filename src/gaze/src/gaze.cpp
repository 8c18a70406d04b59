#include "semholo/gaze/gaze.hpp"

#include <algorithm>
#include <cmath>
#include <random>

namespace semholo::gaze {

namespace {

// Stream model: fixational drift, and pursuit speed and mean duration.
constexpr double kFixationDriftDegPerS = 0.8;
constexpr double kPursuitSpeedDegPerS = 12.0;
constexpr double kPursuitMeanDurationS = 0.6;

// I-VT classifier: velocity thresholds, and the shortest run of samples
// that closes an event.
constexpr double kPursuitThresholdDegPerS = 5.0;
constexpr double kSaccadeThresholdDegPerS = 80.0;
constexpr std::size_t kMinEventSamples = 2;

// Main-sequence saccade duration: ~2.2 ms per degree + 21 ms intercept.
double saccadeDurationS(double amplitudeDeg) {
    return 0.021 + 0.0022 * amplitudeDeg;
}

// Peak velocity of a minimum-jerk saccade of amplitude A with the
// main-sequence duration: Vpeak = 1.875 * A / duration(A). Inverting for
// A given an observed peak velocity:
//   V * (0.021 + 0.0022 A) = 1.875 A  =>  A = 0.021 V / (1.875 - 0.0022 V)
// valid for V below the ~852 deg/s ceiling of this model.
double invertPeakVelocity(double peakVelocityDegPerS) {
    const double v = geom::clamp(peakVelocityDegPerS, 0.0, 800.0);
    return 0.021 * v / (1.875 - 0.0022 * v);
}

// Minimum-jerk-like saccade profile: position fraction as a function of
// normalized time, smooth acceleration and deceleration.
double saccadeProfile(double t01) {
    const double t = geom::clamp(t01, 0.0, 1.0);
    return t * t * t * (10.0 - 15.0 * t + 6.0 * t * t);
}

}  // namespace

std::vector<GazeSample> generateGazeStream(double durationS,
                                           const GazeModelConfig& config,
                                           std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> fixDur(1.0 / config.fixationMeanDurationS);
    std::exponential_distribution<double> purDur(1.0 / kPursuitMeanDurationS);
    std::exponential_distribution<double> sacAmp(1.0 / config.saccadeMeanAmplitudeDeg);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    std::normal_distribution<double> drift(0.0, 1.0);
    std::uniform_real_distribution<float> angle(0.0f,
                                                2.0f * static_cast<float>(M_PI));

    const double dt = 1.0 / kGazeSampleRateHz;
    std::vector<GazeSample> samples;
    samples.reserve(static_cast<std::size_t>(durationS / dt) + 1);

    Vec2f gaze{0.0f, 0.0f};
    double t = 0.0;
    const auto fov = static_cast<float>(config.fovHalfAngleDeg);
    auto clampFov = [fov](Vec2f g) {
        return Vec2f{geom::clamp(g.x, -fov, fov), geom::clamp(g.y, -fov, fov)};
    };

    while (t < durationS) {
        // Fixation with miniature drift.
        const double fixEnd = t + std::max(0.08, fixDur(rng));
        const float driftSigma = static_cast<float>(kFixationDriftDegPerS * dt);
        while (t < fixEnd && t < durationS) {
            gaze = clampFov(gaze + Vec2f{static_cast<float>(drift(rng)) * driftSigma,
                                         static_cast<float>(drift(rng)) * driftSigma});
            samples.push_back({t, gaze});
            t += dt;
        }
        if (t >= durationS) break;

        if (uni(rng) < config.pursuitProbability) {
            // Smooth pursuit: constant angular velocity in a random direction.
            const float a = angle(rng);
            const Vec2f vel{std::cos(a) * static_cast<float>(kPursuitSpeedDegPerS),
                            std::sin(a) * static_cast<float>(kPursuitSpeedDegPerS)};
            const double purEnd = t + std::max(0.2, purDur(rng));
            while (t < purEnd && t < durationS) {
                gaze = clampFov(gaze + vel * static_cast<float>(dt));
                samples.push_back({t, gaze});
                t += dt;
            }
        } else {
            // Ballistic saccade.
            const double amplitude = std::max(1.0, std::min(30.0, 2.0 + sacAmp(rng)));
            const float a = angle(rng);
            Vec2f target = clampFov(
                gaze + Vec2f{std::cos(a), std::sin(a)} * static_cast<float>(amplitude));
            const Vec2f start = gaze;
            const double dur = saccadeDurationS((target - start).norm());
            const double sacBegin = t;
            while (t < sacBegin + dur && t < durationS) {
                const double frac = saccadeProfile((t - sacBegin) / dur);
                gaze = geom::lerp(start, target, static_cast<float>(frac));
                samples.push_back({t, gaze});
                t += dt;
            }
            gaze = target;
        }
    }
    return samples;
}

double angularVelocity(const GazeSample& a, const GazeSample& b) {
    const double dt = b.time - a.time;
    if (dt <= 0.0) return 0.0;
    return static_cast<double>((b.angles - a.angles).norm()) / dt;
}

std::vector<GazeEvent> classifyGaze(const std::vector<GazeSample>& samples) {
    std::vector<GazeEvent> events;
    if (samples.size() < 2) return events;

    auto classify = [](double v) {
        if (v >= kSaccadeThresholdDegPerS) return EyeMovement::Saccade;
        if (v >= kPursuitThresholdDegPerS) return EyeMovement::SmoothPursuit;
        return EyeMovement::Fixation;
    };

    EyeMovement current = classify(angularVelocity(samples[0], samples[1]));
    std::size_t begin = 0;
    for (std::size_t i = 1; i + 1 < samples.size(); ++i) {
        const EyeMovement m = classify(angularVelocity(samples[i], samples[i + 1]));
        if (m != current) {
            if (i - begin + 1 >= kMinEventSamples)
                events.push_back({current, begin, i});
            current = m;
            begin = i;
        }
    }
    events.push_back({current, begin, samples.size() - 1});
    return events;
}

LandingPrediction predictSaccadeLanding(const std::vector<GazeSample>& samples,
                                        std::size_t saccadeBegin,
                                        std::size_t currentIndex) {
    LandingPrediction out;
    if (currentIndex <= saccadeBegin || currentIndex >= samples.size()) return out;

    // Peak velocity observed so far and its direction.
    double peakV = 0.0;
    Vec2f dir{};
    for (std::size_t i = saccadeBegin; i < currentIndex; ++i) {
        const double v = angularVelocity(samples[i], samples[i + 1]);
        if (v > peakV) {
            peakV = v;
            dir = samples[i + 1].angles - samples[i].angles;
        }
    }
    if (peakV <= 0.0 || dir.norm2() <= 0.0f) return out;

    // The observed peak is a lower bound on the true peak before the
    // velocity apex; the profile inverse still gives a usable amplitude
    // estimate that improves as more samples arrive.
    const double amplitude = invertPeakVelocity(peakV);
    out.predicted = samples[saccadeBegin].angles +
                    dir.normalized() * static_cast<float>(amplitude);
    out.valid = true;
    return out;
}

}  // namespace semholo::gaze
