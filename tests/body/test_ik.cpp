#include "semholo/body/ik.hpp"

#include <gtest/gtest.h>

#include <random>

#include "semholo/body/animation.hpp"

#include "pinned_digest.hpp"

namespace semholo::body {
namespace {

TEST(Ik, RecoversRestPose) {
    const auto kps = jointKeypoints(Pose{});
    const IkResult result = fitPoseToKeypoints(kps);
    EXPECT_LT(result.residual, 1e-3f);
    EXPECT_LT(poseDistance(result.pose, Pose{}), 0.05f);
}

TEST(Ik, RecoversRootTranslation) {
    Pose p;
    p.rootTranslation = {0.5f, 0.1f, -0.8f};
    const IkResult result = fitPoseToKeypoints(jointKeypoints(p));
    EXPECT_NEAR((result.pose.rootTranslation - p.rootTranslation).norm(), 0.0f, 1e-4f);
}

TEST(Ik, RecoversElbowBend) {
    Pose p;
    p.rotation(JointId::LeftElbow) = {0, 0, -1.0f};
    const auto kps = jointKeypoints(p);
    const IkResult result = fitPoseToKeypoints(kps);
    // Keypoints of the fitted pose must land near the observations —
    // that is the quantity that matters downstream.
    const auto recovered = jointKeypoints(result.pose);
    EXPECT_LT(result.residual, 0.01f);
    EXPECT_NEAR((recovered[index(JointId::LeftWrist)] -
                 kps[index(JointId::LeftWrist)])
                    .norm(),
                0.0f, 0.02f);
}

TEST(Ik, KeypointResidualSmallAcrossMotions) {
    for (const MotionKind kind :
         {MotionKind::Walk, MotionKind::Wave, MotionKind::Talk,
          MotionKind::Collaborate}) {
        const MotionGenerator gen(kind);
        for (double t : {0.2, 0.9, 2.1, 4.4}) {
            const Pose p = gen.poseAt(t);
            const IkResult result = fitPoseToKeypoints(jointKeypoints(p));
            EXPECT_LT(result.residual, 0.03f)
                << motionName(kind) << " at t=" << t;
        }
    }
}

TEST(Ik, RobustToModerateNoise) {
    const MotionGenerator gen(MotionKind::Wave);
    const Pose p = gen.poseAt(1.0);
    auto kps = jointKeypoints(p);
    std::mt19937 rng(17);
    std::normal_distribution<float> noise(0.0f, 0.005f);  // 5 mm
    for (Vec3f& kp : kps) kp += {noise(rng), noise(rng), noise(rng)};
    const IkResult result = fitPoseToKeypoints(kps);
    // Residual on the same order as the injected noise.
    EXPECT_LT(result.residual, 0.05f);
}

TEST(Ik, LowConfidenceJointsIgnored) {
    const Pose p = MotionGenerator(MotionKind::Walk).poseAt(0.7);
    auto kps = jointKeypoints(p);
    std::array<float, kJointCount> conf;
    conf.fill(1.0f);
    // Corrupt a dropped-out keypoint badly; with zero confidence the fit
    // must not chase it.
    kps[index(JointId::RightWrist)] = {100, 100, 100};
    conf[index(JointId::RightWrist)] = 0.0f;
    const IkResult result = fitPoseToKeypoints(kps, conf);
    EXPECT_LT(result.residual, 0.05f);
}

TEST(Ik, ShapeAwareFit) {
    Pose p;
    p.shape.betas[0] = 2.0;  // taller subject
    p.rotation(JointId::LeftShoulder) = {0.4f, 0, 0};
    const IkResult result = fitPoseToKeypoints(jointKeypoints(p), p.shape);
    EXPECT_LT(result.residual, 0.02f);
}

TEST(Ik, ResidualReportedHonestly) {
    // Feeding garbage keypoints must produce a large residual, not a
    // silent bad fit.
    std::array<Vec3f, kJointCount> kps;
    std::mt19937 rng(23);
    std::uniform_real_distribution<float> uni(-1.0f, 1.0f);
    for (Vec3f& kp : kps) kp = {uni(rng), uni(rng), uni(rng)};
    const IkResult result = fitPoseToKeypoints(kps);
    EXPECT_GT(result.residual, 0.05f);
}

TEST(Ik, DefaultOutputsMatchPinnedDigest) {
    // Noisy keypoints of a walking pose with a few confidences under the
    // 0.05 floor, one exactly on it: the fitted pose and residual.
    // Recorded before the confidence floor became a constant.
    const Pose truth = MotionGenerator(MotionKind::Walk).poseAt(1.1);
    auto kps = jointKeypoints(truth);
    std::mt19937 rng(4);
    std::normal_distribution<float> noise(0.0f, 0.01f);
    for (auto& k : kps) k += {noise(rng), noise(rng), noise(rng)};
    std::array<float, kJointCount> confidence;
    confidence.fill(1.0f);
    for (const JointId j : {JointId::LeftElbow, JointId::RightKnee, JointId::Neck})
        confidence[index(j)] = 0.04f;
    confidence[index(JointId::LeftWrist)] = 0.05f;
    const IkResult result = fitPoseToKeypoints(kps, confidence);
    pinned::Digest d;
    for (const Vec3f& r : result.pose.jointRotations) d.add(r);
    d.add(result.pose.rootTranslation);
    d.add(result.residual);
    EXPECT_EQ(d.h, 0x9f5038268b795729ull) << std::hex << d.h;
}

}  // namespace
}  // namespace semholo::body
