#include "semholo/body/temporal.hpp"

#include <gtest/gtest.h>

#include <random>

#include "semholo/body/animation.hpp"

#include "pinned_digest.hpp"

namespace semholo::body {
namespace {

TEST(PoseFilter, FirstSamplePassesThrough) {
    PoseFilter filter;
    const Pose p = MotionGenerator(MotionKind::Wave).poseAt(0.3);
    const Pose out = filter.filter(p, 0.0);
    EXPECT_NEAR(poseDistance(out, p), 0.0f, 1e-6f);
    EXPECT_TRUE(filter.primed());
}

TEST(PoseFilter, SuppressesJitterOnStaticPose) {
    // A static pose observed with additive noise: the filtered stream
    // must have lower variance than the raw observations.
    const Pose truth = MotionGenerator(MotionKind::Idle).poseAt(0.0);
    std::mt19937 rng(5);
    std::normal_distribution<float> noise(0.0f, 0.03f);

    PoseFilter filter;
    double rawErr = 0.0, filteredErr = 0.0;
    for (int f = 0; f < 60; ++f) {
        Pose observed = truth;
        for (auto& r : observed.jointRotations)
            r += {noise(rng), noise(rng), noise(rng)};
        const Pose smoothed = filter.filter(observed, f / 30.0);
        if (f < 10) continue;  // let the filter settle
        rawErr += poseDistance(observed, truth);
        filteredErr += poseDistance(smoothed, truth);
    }
    EXPECT_LT(filteredErr, rawErr * 0.7);
}

TEST(PoseFilter, TracksFastMotionWithoutExcessLag) {
    // One-Euro property: during fast motion the filter follows closely.
    const MotionGenerator gen(MotionKind::Wave);
    PoseFilter filter;
    double lag = 0.0;
    int counted = 0;
    for (int f = 0; f < 90; ++f) {
        const double t = f / 30.0;
        const Pose truth = gen.poseAt(t);
        const Pose smoothed = filter.filter(truth, t);
        if (f < 10) continue;
        lag += poseDistance(smoothed, truth);
        ++counted;
    }
    // Mean lag under ~0.1 rad RMS while the arm waves at 1.6 Hz.
    EXPECT_LT(lag / counted, 0.1);
}

TEST(PoseFilter, NonMonotonicTimestampIgnored) {
    PoseFilter filter;
    const Pose a = MotionGenerator(MotionKind::Talk).poseAt(0.1);
    const Pose b = MotionGenerator(MotionKind::Talk).poseAt(0.9);
    filter.filter(a, 1.0);
    const Pose out = filter.filter(b, 0.5);  // goes backwards
    EXPECT_NEAR(poseDistance(out, a), 0.0f, 1e-6f);
}

TEST(PoseFilter, ResetForgetsState) {
    PoseFilter filter;
    filter.filter(MotionGenerator(MotionKind::Wave).poseAt(0.2), 0.0);
    filter.reset();
    EXPECT_FALSE(filter.primed());
    const Pose p = MotionGenerator(MotionKind::Walk).poseAt(0.7);
    EXPECT_NEAR(poseDistance(filter.filter(p, 0.0), p), 0.0f, 1e-6f);
}

TEST(PosePredictor, ExactForConstantVelocity) {
    // A joint rotating at constant angular velocity extrapolates exactly.
    Pose p0, p1;
    p0.rotation(JointId::LeftElbow) = {0, 0, 0.2f};
    p1.rotation(JointId::LeftElbow) = {0, 0, 0.4f};
    p0.rootTranslation = {0, 0, 0};
    p1.rootTranslation = {0.1f, 0, 0};
    const auto predicted = predictPose(p0, 0.0, p1, 0.1, 0.1);
    ASSERT_TRUE(predicted.has_value());
    EXPECT_NEAR(predicted->rotation(JointId::LeftElbow).z, 0.6f, 1e-3f);
    EXPECT_NEAR(predicted->rootTranslation.x, 0.2f, 1e-5f);
}

TEST(PosePredictor, RejectsNonPositiveDt) {
    const Pose p;
    EXPECT_FALSE(predictPose(p, 1.0, p, 1.0, 0.1).has_value());
    EXPECT_FALSE(predictPose(p, 2.0, p, 1.0, 0.1).has_value());
}

TEST(PosePredictor, ReducesLatencyErrorOnRealMotion) {
    // The latency-hiding use case: render predictPose(t - d, t, d)
    // instead of the stale pose from time t. Prediction must beat
    // rendering the stale pose for a one-frame-ish horizon.
    const MotionGenerator gen(MotionKind::Wave);
    const double horizon = 0.066;  // two frames of latency
    double staleErr = 0.0, predErr = 0.0;
    for (int f = 2; f < 40; ++f) {
        const double t = f / 30.0;
        const Pose prev = gen.poseAt(t - 1.0 / 30.0);
        const Pose latest = gen.poseAt(t);
        const Pose future = gen.poseAt(t + horizon);
        const auto predicted = predictPose(prev, t - 1.0 / 30.0, latest, t, horizon);
        ASSERT_TRUE(predicted.has_value());
        staleErr += keypointDistance(latest, future);
        predErr += keypointDistance(*predicted, future);
    }
    EXPECT_LT(predErr, staleErr);
}

TEST(PosePredictor, ExpressionExtrapolates) {
    Pose p0, p1;
    p0.expression.coeffs[0] = 0.2;
    p1.expression.coeffs[0] = 0.4;
    const auto predicted = predictPose(p0, 0.0, p1, 0.1, 0.05);
    ASSERT_TRUE(predicted.has_value());
    EXPECT_NEAR(predicted->expression.coeffs[0], 0.5, 1e-6);
}

TEST(KeypointDistance, ZeroForIdentical) {
    const Pose p = MotionGenerator(MotionKind::Collaborate).poseAt(1.0);
    EXPECT_NEAR(keypointDistance(p, p), 0.0, 1e-9);
    Pose q = p;
    q.rootTranslation.x += 1.0f;
    EXPECT_NEAR(keypointDistance(p, q), 1.0, 1e-4);
}

TEST(PoseFilter, DefaultOutputsMatchPinnedDigest) {
    // A jittered wave at 30 FPS through the default One-Euro filter:
    // every filtered rotation and root translation. Recorded before the
    // filter's cutoffs became constants.
    const MotionGenerator gen(MotionKind::Wave);
    std::mt19937 rng(11);
    std::normal_distribution<float> noise(0.0f, 0.02f);
    PoseFilter filter;
    pinned::Digest d;
    for (int f = 0; f < 45; ++f) {
        Pose observed = gen.poseAt(f / 30.0);
        for (auto& r : observed.jointRotations) r += {noise(rng), noise(rng), noise(rng)};
        observed.rootTranslation += {noise(rng), noise(rng), noise(rng)};
        const Pose out = filter.filter(observed, f / 30.0);
        for (const Vec3f& r : out.jointRotations) d.add(r);
        d.add(out.rootTranslation);
    }
    EXPECT_EQ(d.h, 0x125af5376e2bf553ull) << std::hex << d.h;
}

}  // namespace
}  // namespace semholo::body
