#include "semholo/capture/keypoints.hpp"

#include <gtest/gtest.h>

#include "semholo/body/animation.hpp"
#include "semholo/body/body_model.hpp"
#include "semholo/body/ik.hpp"

#include "pinned_digest.hpp"

namespace semholo::capture {
namespace {

class KeypointFixture : public ::testing::Test {
protected:
    static const body::BodyModel& model() {
        static const body::BodyModel m{body::ShapeParams{}, 56};
        return m;
    }
    static const CaptureRig& rig() {
        static const CaptureRig r = [] {
            RigConfig cfg;
            cfg.addNoise = false;  // detector noise is modelled separately
            return CaptureRig(cfg);
        }();
        return r;
    }
    static std::vector<RGBDFrame> framesFor(const body::Pose& pose) {
        return rig().capture(model().deform(pose), 11);
    }
};

TEST_F(KeypointFixture, DirectDetectionAccurate) {
    const body::Pose pose = body::MotionGenerator(body::MotionKind::Wave).poseAt(0.4);
    const auto frames = framesFor(pose);
    const auto obs = detectKeypoints3DDirect(rig(), frames, pose, 1);
    EXPECT_LT(keypointError(obs, pose), 0.02);
    // Most joints observed.
    std::size_t seen = 0;
    for (const float c : obs.confidence)
        if (c > 0.0f) ++seen;
    EXPECT_GT(seen, kJointCount * 3 / 4);
}

TEST_F(KeypointFixture, LiftedDetectionLessAccurateThanDirect) {
    const body::Pose pose = body::MotionGenerator(body::MotionKind::Talk).poseAt(0.8);
    const auto frames = framesFor(pose);
    double errLifted = 0.0, errDirect = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        errLifted += keypointError(detectKeypoints2DLifted(rig(), frames, pose, seed), pose);
        errDirect += keypointError(detectKeypoints3DDirect(rig(), frames, pose, seed), pose);
    }
    // Section 2.3: direct RGB-D extraction is more accurate than the
    // 2D-then-lift route.
    EXPECT_LT(errDirect, errLifted);
}

TEST_F(KeypointFixture, LiftedDetectionSlowerThanDirect) {
    const body::Pose pose;
    const auto frames = framesFor(pose);
    const auto lifted = detectKeypoints2DLifted(rig(), frames, pose, 1);
    const auto direct = detectKeypoints3DDirect(rig(), frames, pose, 1);
    EXPECT_GT(lifted.simulatedLatencyMs, direct.simulatedLatencyMs);
    EXPECT_GT(direct.simulatedLatencyMs, 0.0);
}

TEST_F(KeypointFixture, ConfidenceReflectsVisibility) {
    const body::Pose pose;
    const auto frames = framesFor(pose);
    const auto obs = detectKeypoints3DDirect(rig(), frames, pose, 2);
    for (const float c : obs.confidence) {
        EXPECT_GE(c, 0.0f);
        EXPECT_LE(c, 1.0f);
    }
    // Large body joints should be seen by most cameras.
    EXPECT_GT(obs.confidence[body::index(body::JointId::Pelvis)], 0.4f);
    EXPECT_GT(obs.confidence[body::index(body::JointId::Head)], 0.4f);
}

TEST_F(KeypointFixture, DetectionFeedsIkEndToEnd) {
    // Integration: capture -> detect -> IK -> keypoints close the loop.
    const body::Pose pose = body::MotionGenerator(body::MotionKind::Collaborate).poseAt(1.2);
    const auto frames = framesFor(pose);
    const auto obs = detectKeypoints3DDirect(rig(), frames, pose, 3);
    const auto fit = body::fitPoseToKeypoints(obs.positions, obs.confidence);
    const auto recovered = body::jointKeypoints(fit.pose);
    const auto gt = body::jointKeypoints(pose);
    double meanErr = 0.0;
    int n = 0;
    for (std::size_t j = 0; j < kJointCount; ++j) {
        if (obs.confidence[j] < 0.05f) continue;
        meanErr += (recovered[j] - gt[j]).norm();
        ++n;
    }
    ASSERT_GT(n, 0);
    EXPECT_LT(meanErr / n, 0.05);
}

TEST_F(KeypointFixture, ErrorIgnoresDroppedJoints) {
    const body::Pose pose;
    KeypointObservation obs;
    obs.confidence.fill(0.0f);
    obs.confidence[0] = 1.0f;
    obs.positions[0] = body::jointKeypoints(pose)[0];
    EXPECT_NEAR(keypointError(obs, pose), 0.0, 1e-6);
}

TEST_F(KeypointFixture, Deterministic) {
    const body::Pose pose = body::MotionGenerator(body::MotionKind::Walk).poseAt(0.3);
    const auto frames = framesFor(pose);
    const auto a = detectKeypoints3DDirect(rig(), frames, pose, 9);
    const auto b = detectKeypoints3DDirect(rig(), frames, pose, 9);
    for (std::size_t j = 0; j < kJointCount; ++j) {
        EXPECT_EQ(a.positions[j], b.positions[j]);
        EXPECT_EQ(a.confidence[j], b.confidence[j]);
    }
}

TEST_F(KeypointFixture, DefaultOutputsMatchPinnedDigest) {
    // Both detector routes at a fixed rig, pose and seed, for the full
    // and the body-only keypoint sets: positions, confidences and the
    // simulated latency. Then a few confidences pushed under and onto the
    // 0.05 floor, for keypointError and the IK fit on that observation.
    // Recorded before the detector noise and cost models became
    // constants.
    const body::Pose pose = body::MotionGenerator(body::MotionKind::Wave).poseAt(0.4);
    const auto frames = framesFor(pose);
    pinned::Digest d;
    const auto addObs = [&d](const KeypointObservation& obs) {
        for (std::size_t j = 0; j < kJointCount; ++j) {
            d.add(obs.positions[j]);
            d.add(obs.confidence[j]);
        }
        d.add(obs.simulatedLatencyMs);
    };
    for (const KeypointSet set : {KeypointSet::Full55, KeypointSet::Body25}) {
        const auto lifted = detectKeypoints2DLifted(rig(), frames, pose, 7, set);
        const auto direct = detectKeypoints3DDirect(rig(), frames, pose, 7, set);
        addObs(lifted);
        addObs(direct);
        d.add(keypointError(lifted, pose));
        d.add(keypointError(direct, pose));
    }
    EXPECT_EQ(d.h, 0x5a72e5ad9db79194ull) << std::hex << d.h;

    auto obs = detectKeypoints3DDirect(rig(), frames, pose, 7);
    EXPECT_EQ(obs.simulatedLatencyMs, 0x1.8f9096bb98c7ep+2)
        << std::hexfloat << obs.simulatedLatencyMs;
    for (const std::size_t j : {3u, 10u, 20u}) obs.confidence[j] = 0.04f;
    obs.confidence[30] = 0.05f;
    const double err = keypointError(obs, pose);
    EXPECT_EQ(err, 0x1.f76b7ed89d89ep-8) << std::hexfloat << err;
    const body::IkResult fit = body::fitPoseToKeypoints(obs.positions, obs.confidence);
    pinned::Digest f;
    for (const geom::Vec3f& r : fit.pose.jointRotations) f.add(r);
    f.add(fit.pose.rootTranslation);
    f.add(fit.residual);
    EXPECT_EQ(f.h, 0x84f04549ba8ffcf9ull) << std::hex << f.h;
}

TEST_F(KeypointFixture, ErrorCountsJointsFromTheConfidenceFloorUp) {
    // Two joints displaced by 1 m: one just under the 0.05 floor is
    // ignored, one on it is counted; every other joint is exact.
    const body::Pose pose = body::MotionGenerator(body::MotionKind::Wave).poseAt(0.4);
    KeypointObservation obs;
    obs.positions = body::jointKeypoints(pose);
    obs.confidence.fill(1.0f);
    obs.positions[3].x += 1.0f;
    obs.confidence[3] = 0.0499f;
    obs.positions[10].x += 1.0f;
    obs.confidence[10] = 0.05f;
    EXPECT_NEAR(keypointError(obs, pose), 1.0 / (kJointCount - 1), 1e-6);
}

}  // namespace
}  // namespace semholo::capture
