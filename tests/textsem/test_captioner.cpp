#include "semholo/textsem/captioner.hpp"

#include <gtest/gtest.h>

#include <array>

#include "semholo/body/animation.hpp"

namespace semholo::textsem {
namespace {

using body::JointId;
using body::MotionGenerator;
using body::MotionKind;
using body::Pose;

TEST(CellMapping, EveryJointHasACell) {
    for (std::size_t j = 0; j < body::kJointCount; ++j) {
        const BodyCell cell = cellOfJoint(static_cast<JointId>(j));
        EXPECT_LT(static_cast<std::size_t>(cell), kCellCount);
    }
    EXPECT_EQ(cellOfJoint(JointId::LeftIndex2), BodyCell::LeftHand);
    EXPECT_EQ(cellOfJoint(JointId::RightElbow), BodyCell::RightArm);
    EXPECT_EQ(cellOfJoint(JointId::Jaw), BodyCell::HeadFace);
    EXPECT_EQ(cellOfJoint(JointId::Spine2), BodyCell::Torso);
    EXPECT_EQ(cellOfJoint(JointId::LeftKnee), BodyCell::LeftLeg);
}

TEST(Caption, RestPoseIsCompact) {
    const TextFrame frame = captionPose(Pose{});
    // Rest pose: no joint entries, just the global channel.
    EXPECT_FALSE(frame.global.empty());
    for (const auto& c : frame.cells) EXPECT_TRUE(c.empty());
    EXPECT_LT(frame.totalBytes(), 100u);
}

TEST(Caption, RoundTripWithinQuantization) {
    const MotionGenerator gen(MotionKind::Collaborate);
    for (const double t : {0.3, 1.7, 4.9}) {
        const Pose pose = gen.poseAt(t);
        const TextFrame frame = captionPose(pose);
        const auto decoded = parseCaption(frame);
        ASSERT_TRUE(decoded.has_value()) << "t=" << t;
        // 3-degree quantisation => per-joint error bounded by ~0.05 rad
        // (sqrt(3)/2 * step); pose distance stays small.
        EXPECT_LT(body::poseDistance(pose, *decoded), 0.06f) << "t=" << t;
        EXPECT_LT((pose.rootTranslation - decoded->rootTranslation).norm(), 0.02f);
    }
}

TEST(Caption, ExpressionCarriedOnHeadChannel) {
    Pose pose;
    pose.expression.coeffs[0] = 0.8;  // jaw open
    pose.expression.coeffs[2] = 0.5;  // smile
    const TextFrame frame = captionPose(pose);
    const auto& head = frame.cells[static_cast<std::size_t>(BodyCell::HeadFace)];
    EXPECT_NE(head.find("expr"), std::string::npos);
    const auto decoded = parseCaption(frame);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_NEAR(decoded->expression.coeffs[0], 0.8, 0.05);
    EXPECT_NEAR(decoded->expression.coeffs[2], 0.5, 0.05);
}

TEST(Caption, OnlyMovedCellsProduceText) {
    Pose pose;
    pose.rotation(JointId::LeftElbow) = {0, 0, -1.0f};
    const TextFrame frame = captionPose(pose);
    EXPECT_FALSE(frame.cells[static_cast<std::size_t>(BodyCell::LeftArm)].empty());
    EXPECT_TRUE(frame.cells[static_cast<std::size_t>(BodyCell::RightArm)].empty());
    EXPECT_TRUE(frame.cells[static_cast<std::size_t>(BodyCell::LeftLeg)].empty());
}

TEST(Caption, CoarserQualityShorterText) {
    const Pose pose = MotionGenerator(MotionKind::Wave).poseAt(0.6);
    CaptionOptions fine, coarse;
    for (auto& q : fine.quality) q.angleStepDeg = 1.0;
    for (auto& q : coarse.quality) q.angleStepDeg = 10.0;
    const auto fineFrame = captionPose(pose, fine);
    const auto coarseFrame = captionPose(pose, coarse);
    EXPECT_LT(coarseFrame.totalBytes(), fineFrame.totalBytes());
    // And coarser quality means larger reconstruction error.
    const auto fineDec = parseCaption(fineFrame, {}, fine);
    const auto coarseDec = parseCaption(coarseFrame, {}, coarse);
    ASSERT_TRUE(fineDec && coarseDec);
    EXPECT_LT(body::poseDistance(pose, *fineDec), body::poseDistance(pose, *coarseDec));
}

TEST(Caption, TextIsSmallVersusPosePayload) {
    // Table 1: text semantics has "L" (low) data size.
    const Pose pose = MotionGenerator(MotionKind::Talk).poseAt(1.0);
    const TextFrame frame = captionPose(pose);
    EXPECT_LT(frame.totalBytes(), body::kPosePayloadBytes);
}

TEST(Caption, MalformedInputsRejected) {
    TextFrame bad;
    bad.global = "not_global: nothing";
    EXPECT_FALSE(parseCaption(bad).has_value());

    TextFrame badJoint = captionPose(Pose{});
    badJoint.cells[0] = "torso: no_such_joint 1 2 3;";
    EXPECT_FALSE(parseCaption(badJoint).has_value());

    TextFrame truncated = captionPose(Pose{});
    truncated.cells[2] = "left_arm: left_elbow 4 5";  // missing z
    EXPECT_FALSE(parseCaption(truncated).has_value());
}

TEST(CostModel, DeltaCellsCostLess) {
    EXPECT_LT(captionCostMs(1), captionCostMs(8));
    EXPECT_LT(reconCostMs(0), reconCostMs(8));
    // Full-frame reconstruction is "H": above one 30 FPS frame budget.
    EXPECT_GT(reconCostMs(kCellCount), 1000.0 / 30.0);
}

TEST(Caption, ConcatenatedContainsAllChannels) {
    Pose pose;
    pose.rotation(JointId::LeftKnee) = {1.0f, 0, 0};
    const TextFrame frame = captionPose(pose);
    const std::string all = frame.concatenated();
    EXPECT_NE(all.find("global:"), std::string::npos);
    EXPECT_NE(all.find("left_leg:"), std::string::npos);
}

TEST(CostModel, DefaultOutputsMatchPinnedDigest) {
    // The simulated captioning and text-to-3D costs at several cell
    // counts. Recorded before the cost model became constants.
    const std::array<std::size_t, 4> cells{0, 1, 3, kCellCount};
    const std::array<double, 4> caption{60.0, 105.0, 195.0, 420.0};
    const std::array<double, 4> recon{120.0, 300.0, 660.0, 1560.0};
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(captionCostMs(cells[i]), caption[i]) << cells[i];
        EXPECT_EQ(reconCostMs(cells[i]), recon[i]) << cells[i];
    }
}

TEST(Caption, DefaultOutputsMatchPinnedDigest) {
    // An expressive face: coefficients on and between the quantisation
    // steps, and one under half a step that must vanish. Recorded before
    // the expression step became a constant.
    body::Pose pose = body::MotionGenerator(body::MotionKind::Talk).poseAt(0.7);
    pose.expression.coeffs[0] = 0.31;
    pose.expression.coeffs[1] = -0.12;
    pose.expression.coeffs[2] = 0.024;
    pose.expression.coeffs[3] = 0.475;
    pose.expression.coeffs[17] = -0.05;
    const TextFrame frame = captionPose(pose);
    EXPECT_EQ(frame.cells[static_cast<std::size_t>(BodyCell::HeadFace)],
              "head_face: head 2 0 0; jaw 2 0 0; expr 0=6 1=-2 3=9 4=-3 5=3 6=-2 "
              "7=-1 8=-2 9=-1 10=-1 11=-3 12=2 13=-2 14=-1 15=3 16=3 17=-1 18=-3 "
              "19=-1;");
    const auto parsed = parseCaption(frame);
    ASSERT_TRUE(parsed.has_value());
    const std::array<std::size_t, 5> index{0, 1, 2, 3, 17};
    const std::array<double, 5> parsedCoeff{0x1.3333333333334p-2, -0x1.999999999999ap-4,
                                            0.0, 0x1.ccccccccccccdp-2,
                                            -0x1.999999999999ap-5};
    for (std::size_t i = 0; i < index.size(); ++i)
        EXPECT_EQ(parsed->expression.coeffs[index[i]], parsedCoeff[i]) << index[i];
}

}  // namespace
}  // namespace semholo::textsem
