#include "semholo/gaze/gaze.hpp"

#include <gtest/gtest.h>

#include "pinned_digest.hpp"

namespace semholo::gaze {
namespace {

TEST(GazeStream, SampleRateAndDuration) {
    GazeModelConfig cfg;
    const auto samples = generateGazeStream(2.0, cfg, 1);
    ASSERT_GT(samples.size(), 200u);
    EXPECT_NEAR(static_cast<double>(samples.size()), 2.0 * kGazeSampleRateHz, 15.0);
    for (std::size_t i = 1; i < samples.size(); ++i)
        EXPECT_GT(samples[i].time, samples[i - 1].time);
}

TEST(GazeStream, Deterministic) {
    const auto a = generateGazeStream(1.0, {}, 42);
    const auto b = generateGazeStream(1.0, {}, 42);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].angles, b[i].angles);
}

TEST(GazeStream, StaysWithinFov) {
    GazeModelConfig cfg;
    cfg.fovHalfAngleDeg = 20.0;
    const auto samples = generateGazeStream(10.0, cfg, 3);
    for (const auto& s : samples) {
        EXPECT_LE(std::fabs(s.angles.x), 20.0f + 1e-3f);
        EXPECT_LE(std::fabs(s.angles.y), 20.0f + 1e-3f);
    }
}

TEST(GazeStream, ContainsAllThreeMovementTypes) {
    GazeModelConfig cfg;
    cfg.pursuitProbability = 0.5;
    const auto samples = generateGazeStream(20.0, cfg, 7);
    const auto events = classifyGaze(samples);
    bool fix = false, pur = false, sac = false;
    for (const auto& e : events) {
        if (e.type == EyeMovement::Fixation) fix = true;
        if (e.type == EyeMovement::SmoothPursuit) pur = true;
        if (e.type == EyeMovement::Saccade) sac = true;
    }
    EXPECT_TRUE(fix);
    EXPECT_TRUE(pur);
    EXPECT_TRUE(sac);
}

TEST(Classifier, VelocityBandsRespected) {
    // Hand-built stream: still, slow drift, fast jump.
    std::vector<GazeSample> samples;
    double t = 0.0;
    const double dt = 1.0 / 100.0;
    for (int i = 0; i < 30; ++i, t += dt) samples.push_back({t, {0, 0}});
    Vec2f g{0, 0};
    for (int i = 0; i < 30; ++i, t += dt) {
        g.x += 0.1f;  // 10 deg/s: pursuit band
        samples.push_back({t, g});
    }
    for (int i = 0; i < 10; ++i, t += dt) {
        g.x += 3.0f;  // 300 deg/s: saccade band
        samples.push_back({t, g});
    }
    const auto events = classifyGaze(samples);
    ASSERT_GE(events.size(), 3u);
    EXPECT_EQ(events.front().type, EyeMovement::Fixation);
    EXPECT_EQ(events[1].type, EyeMovement::SmoothPursuit);
    EXPECT_EQ(events.back().type, EyeMovement::Saccade);
}

TEST(Classifier, EmptyAndTinyInputs) {
    EXPECT_TRUE(classifyGaze({}).empty());
    EXPECT_TRUE(classifyGaze({{0.0, {0, 0}}}).empty());
}

TEST(AngularVelocity, Basic) {
    const GazeSample a{0.0, {0, 0}};
    const GazeSample b{0.1, {1, 0}};
    EXPECT_NEAR(angularVelocity(a, b), 10.0, 1e-6);
    EXPECT_DOUBLE_EQ(angularVelocity(b, a), 0.0);  // non-positive dt
}

TEST(SaccadePrediction, LandsNearTrueTarget) {
    // Find a saccade in a generated stream and predict from its first
    // 40% of samples; landing error should beat naive extrapolation of
    // the current position.
    GazeModelConfig cfg;
    cfg.pursuitProbability = 0.0;
    const auto samples = generateGazeStream(20.0, cfg, 11);
    const auto events = classifyGaze(samples);
    int tested = 0;
    double predErr = 0.0, naiveErr = 0.0;
    for (const auto& e : events) {
        if (e.type != EyeMovement::Saccade) continue;
        if (e.endIndex - e.beginIndex < 5) continue;
        const std::size_t mid = e.beginIndex + (e.endIndex - e.beginIndex) * 2 / 5;
        const auto pred = predictSaccadeLanding(samples, e.beginIndex, mid);
        if (!pred.valid) continue;
        const Vec2f truth = samples[e.endIndex].angles;
        predErr += (pred.predicted - truth).norm();
        naiveErr += (samples[mid].angles - truth).norm();
        ++tested;
    }
    ASSERT_GT(tested, 2);
    // Ballistic prediction beats "assume gaze stays where it is now".
    EXPECT_LT(predErr, naiveErr);
}

TEST(SaccadePrediction, InvalidOnDegenerateInput) {
    const std::vector<GazeSample> samples{{0.0, {0, 0}}, {0.01, {0, 0}}};
    EXPECT_FALSE(predictSaccadeLanding(samples, 0, 0).valid);
    EXPECT_FALSE(predictSaccadeLanding(samples, 0, 5).valid);
    // Zero velocity: no direction signal.
    EXPECT_FALSE(predictSaccadeLanding(samples, 0, 1).valid);
}

TEST(GazeStream, DefaultOutputsMatchPinnedDigest) {
    // A stream with fixations, pursuits and saccades, and its I-VT
    // events. Recorded before the sample rate, drift, pursuit and
    // classifier thresholds became constants.
    GazeModelConfig cfg;
    cfg.pursuitProbability = 0.5;
    const auto samples = generateGazeStream(3.0, cfg, 9);
    pinned::Digest stream;
    for (const GazeSample& s : samples) {
        stream.add(s.time);
        stream.add(s.angles);
    }
    EXPECT_EQ(samples.size(), 361u);
    EXPECT_EQ(stream.h, 0xf81561a71fe6badcull) << std::hex << stream.h;
    pinned::Digest events;
    for (const GazeEvent& e : classifyGaze(samples)) {
        events.add(std::uint64_t{static_cast<std::uint64_t>(e.type)});
        events.add(std::uint64_t{e.beginIndex});
        events.add(std::uint64_t{e.endIndex});
    }
    EXPECT_EQ(events.h, 0xaaf4f63996048208ull) << std::hex << events.h;
}

TEST(Classifier, BandEdgesAtFiveAndEightyDegPerS) {
    // Constant-velocity streams just either side of each I-VT threshold.
    const auto typeAt = [](float degPerS) {
        std::vector<GazeSample> samples;
        for (int i = 0; i < 5; ++i) {
            const float x = degPerS * static_cast<float>(i) / 100.0f;
            samples.push_back({i / 100.0, {x, 0.0f}});
        }
        const auto events = classifyGaze(samples);
        EXPECT_EQ(events.size(), 1u) << degPerS;
        return events.front().type;
    };
    EXPECT_EQ(typeAt(4.8f), EyeMovement::Fixation);
    EXPECT_EQ(typeAt(5.2f), EyeMovement::SmoothPursuit);
    EXPECT_EQ(typeAt(79.0f), EyeMovement::SmoothPursuit);
    EXPECT_EQ(typeAt(81.0f), EyeMovement::Saccade);
}

}  // namespace
}  // namespace semholo::gaze
