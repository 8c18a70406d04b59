#include <gtest/gtest.h>

#include "semholo/body/animation.hpp"
#include "semholo/body/body_model.hpp"
#include "semholo/body/ik.hpp"
#include "semholo/capture/keypoints.hpp"

namespace semholo::capture {
namespace {

TEST(KeypointSets, CountsAndNames) {
    EXPECT_EQ(keypointSetCount(KeypointSet::Body25), 25u);
    EXPECT_EQ(keypointSetCount(KeypointSet::Extended40), 37u);
    EXPECT_EQ(keypointSetCount(KeypointSet::Full55), 55u);
    EXPECT_EQ(keypointSetName(KeypointSet::Body25), "body-25");
    EXPECT_EQ(keypointSetName(KeypointSet::Full55), "full-55");
}

TEST(KeypointSets, MasksAreNested) {
    const auto body = keypointSetMask(KeypointSet::Body25);
    const auto ext = keypointSetMask(KeypointSet::Extended40);
    const auto full = keypointSetMask(KeypointSet::Full55);
    for (std::size_t j = 0; j < body::kJointCount; ++j) {
        if (body[j]) {
            EXPECT_TRUE(ext[j]) << j;
        }
        if (ext[j]) {
            EXPECT_TRUE(full[j]) << j;
        }
        EXPECT_TRUE(full[j]);
    }
}

TEST(KeypointSets, BodySetExcludesFingers) {
    const auto mask = keypointSetMask(KeypointSet::Body25);
    EXPECT_FALSE(mask[body::index(body::JointId::LeftIndex2)]);
    EXPECT_FALSE(mask[body::index(body::JointId::RightPinky3)]);
    EXPECT_TRUE(mask[body::index(body::JointId::LeftWrist)]);
    EXPECT_TRUE(mask[body::index(body::JointId::Head)]);
}

class KeypointSetFixture : public ::testing::Test {
protected:
    static const body::BodyModel& model() {
        static const body::BodyModel m{body::ShapeParams{}, 48};
        return m;
    }
    static const CaptureRig& rig() {
        static const CaptureRig r = [] {
            RigConfig cfg;
            cfg.addNoise = false;
            return CaptureRig(cfg);
        }();
        return r;
    }
};

TEST_F(KeypointSetFixture, SmallerSetsDetectFewerJoints) {
    const body::Pose pose =
        body::MotionGenerator(body::MotionKind::Wave, model().shape()).poseAt(0.5);
    const auto frames = rig().capture(model().deform(pose), 3);
    const auto body25 =
        detectKeypoints3DDirect(rig(), frames, pose, 1, KeypointSet::Body25);
    const auto full =
        detectKeypoints3DDirect(rig(), frames, pose, 1, KeypointSet::Full55);
    std::size_t seen25 = 0, seen55 = 0;
    for (std::size_t j = 0; j < kJointCount; ++j) {
        if (body25.confidence[j] > 0.0f) ++seen25;
        if (full.confidence[j] > 0.0f) ++seen55;
    }
    EXPECT_LT(seen25, seen55);
    EXPECT_LE(seen25, 25u);
}

TEST_F(KeypointSetFixture, RicherSetsCostMoreSimulatedLatency) {
    const body::Pose pose;
    const auto frames = rig().capture(model().deform(pose), 4);
    const auto body25 =
        detectKeypoints3DDirect(rig(), frames, pose, 1, KeypointSet::Body25);
    const auto ext =
        detectKeypoints3DDirect(rig(), frames, pose, 1, KeypointSet::Extended40);
    const auto full =
        detectKeypoints3DDirect(rig(), frames, pose, 1, KeypointSet::Full55);
    EXPECT_LT(body25.simulatedLatencyMs, ext.simulatedLatencyMs);
    EXPECT_LT(ext.simulatedLatencyMs, full.simulatedLatencyMs);
}

TEST_F(KeypointSetFixture, HandPoseRecoveryNeedsHandKeypoints) {
    // A finger-curl pose: the body-only set cannot recover it, the full
    // set can — the section 3.1 keypoint-count/quality trade-off.
    body::Pose pose;
    pose.shape = model().shape();
    for (const auto j : {body::JointId::RightIndex1, body::JointId::RightIndex2,
                         body::JointId::RightMiddle1, body::JointId::RightMiddle2})
        pose.rotation(j) = {0, 0, 1.2f};

    const auto frames = rig().capture(model().deform(pose), 7);
    const auto obsBody =
        detectKeypoints3DDirect(rig(), frames, pose, 2, KeypointSet::Body25);
    const auto obsFull =
        detectKeypoints3DDirect(rig(), frames, pose, 2, KeypointSet::Full55);

    const auto fitBody =
        body::fitPoseToKeypoints(obsBody.positions, obsBody.confidence, model().shape());
    const auto fitFull =
        body::fitPoseToKeypoints(obsFull.positions, obsFull.confidence, model().shape());

    // Fingertip position error of the recovered poses.
    const auto gtKps = body::jointKeypoints(pose);
    const auto tipIdx = body::index(body::JointId::RightIndex3);
    const float errBody =
        (body::jointKeypoints(fitBody.pose)[tipIdx] - gtKps[tipIdx]).norm();
    const float errFull =
        (body::jointKeypoints(fitFull.pose)[tipIdx] - gtKps[tipIdx]).norm();
    EXPECT_LT(errFull, errBody * 0.7f);
}

}  // namespace
}  // namespace semholo::capture
