// Cross-module integration tests: the full Figure 1 pipeline assembled
// from real parts, with no channel-level shortcuts.
#include <gtest/gtest.h>

#include "semholo/body/ik.hpp"
#include "semholo/capture/keypoints.hpp"
#include "semholo/compress/lzc.hpp"
#include "semholo/core/qoe.hpp"
#include "semholo/core/session.hpp"
#include "semholo/gaze/foveation.hpp"
#include "semholo/mesh/metrics.hpp"
#include "semholo/recon/keypoint_recon.hpp"
#include "semholo/recon/texture.hpp"

namespace semholo {
namespace {

const body::BodyModel& sharedModel() {
    static const body::BodyModel model{body::ShapeParams{}, 56};
    return model;
}

TEST(FullPipeline, CaptureDetectIkCompressTransferReconstruct) {
    // Sender: pose the subject, render the rig, detect keypoints.
    const body::Pose gtPose =
        body::MotionGenerator(body::MotionKind::Wave, sharedModel().shape()).poseAt(0.7);
    capture::RigConfig rigCfg;
    rigCfg.addNoise = false;
    const capture::CaptureRig rig(rigCfg);
    const auto frames = rig.capture(sharedModel().deform(gtPose), 5);
    const auto detection = capture::detectKeypoints3DDirect(rig, frames, gtPose, 5);

    // Align to the parametric model and serialize (the 1.91 KB payload).
    const auto fit = body::fitPoseToKeypoints(detection.positions, detection.confidence,
                                              sharedModel().shape());
    const auto payload = body::serializePose(fit.pose);
    ASSERT_EQ(payload.size(), body::kPosePayloadBytes);

    // Compress and push through the simulated Internet.
    const auto compressed = compress::lzcCompress(payload);
    EXPECT_LT(compressed.size(), payload.size());
    net::LinkConfig linkCfg;
    linkCfg.lossRate = 0.02;
    net::LinkSimulator link(linkCfg);
    const auto transfer = link.sendMessage(compressed.size(), 0.0);
    ASSERT_TRUE(transfer.delivered);

    // Receiver: decompress, deserialize, reconstruct, score.
    const auto decompressed = compress::lzcDecompress(compressed);
    ASSERT_TRUE(decompressed.has_value());
    const auto pose = body::deserializePose(*decompressed);
    ASSERT_TRUE(pose.has_value());
    recon::ReconstructionOptions ro;
    ro.resolution = 48;
    ro.shape = sharedModel().shape();
    ro.device = recon::DeviceProfile::host();
    const auto result = recon::reconstructFromPose(*pose, ro);
    ASSERT_TRUE(result.success);

    const auto err =
        mesh::compareMeshes(sharedModel().deform(gtPose), result.mesh, 8000);
    // Detector noise + IK + implicit-surface floor: centimetre class.
    EXPECT_LT(err.chamfer, 0.03);
}

TEST(FullPipeline, TexturedReconstructionViaProjectionMapping) {
    // Section 3.1's proposed texture path: reconstruct geometry from
    // keypoints, then align the delivered ground-truth texture.
    const body::Pose pose =
        body::MotionGenerator(body::MotionKind::Talk, sharedModel().shape()).poseAt(0.4);
    recon::ReconstructionOptions ro;
    ro.resolution = 40;
    ro.shape = sharedModel().shape();
    ro.device = recon::DeviceProfile::host();
    auto result = recon::reconstructFromPose(pose, ro);
    ASSERT_TRUE(result.success);

    const mesh::TriMesh gt = sharedModel().deform(pose);
    const double projDist = recon::projectTexture(result.mesh, gt);
    ASSERT_TRUE(result.mesh.hasColors());
    EXPECT_LT(projDist, 0.05);
}

TEST(FullPipeline, FoveatedSessionRespectsGazeDirection) {
    // A viewer looking at the subject's head should receive the head at
    // full mesh quality.
    core::FoveatedOptions opt;
    opt.fovealRadiusDeg = 10.0;
    opt.peripheralResolution = 32;
    auto channel = core::makeFoveatedChannel(opt);

    core::FrameContext ctx;
    ctx.pose = body::Pose{};
    ctx.pose.shape = sharedModel().shape();
    ctx.model = &sharedModel();
    ctx.viewerHead = {geom::Quat::identity(), {0.0f, 0.6f, -2.0f}};  // eye level
    ctx.viewerGazeDeg = {0.0f, 0.0f};

    const auto decoded = channel->decode(channel->encode(ctx));
    ASSERT_TRUE(decoded.valid);
    // Head region vertex density should exceed the peripheral-only recon.
    core::FoveatedOptions noFovea = opt;
    noFovea.fovealRadiusDeg = 0.0;
    auto plain = core::makeFoveatedChannel(noFovea);
    const auto plainDecoded = plain->decode(plain->encode(ctx));
    ASSERT_TRUE(plainDecoded.valid);
    auto headVerts = [](const mesh::TriMesh& m) {
        std::size_t n = 0;
        for (const auto& v : m.vertices)
            if (v.y > 0.5f) ++n;
        return n;
    };
    EXPECT_GT(headVerts(decoded.mesh), headVerts(plainDecoded.mesh));
}

TEST(FullPipeline, LossyLinkTextChannelRecoversViaKeyframes) {
    // Drop the first (keyframe) packet; the decoder must refuse deltas
    // until the encoder is asked for a fresh keyframe.
    core::TextChannelOptions opt;
    opt.reconstructMesh = false;
    auto sender = core::makeTextChannel(opt);
    auto receiver = core::makeTextChannel(opt);

    const body::MotionGenerator gen(body::MotionKind::Talk);
    core::FrameContext ctx;
    ctx.model = &sharedModel();

    ctx.pose = gen.poseAt(0.0);
    ctx.pose.frameId = 0;
    const auto keyframe = sender->encode(ctx);  // lost in transit

    ctx.pose = gen.poseAt(0.2);
    ctx.pose.frameId = 1;
    const auto delta = sender->encode(ctx);
    EXPECT_FALSE(receiver->decode(delta).valid);  // no state yet

    // Sender-side recovery: reset forces a keyframe.
    sender->reset();
    ctx.pose = gen.poseAt(0.3);
    ctx.pose.frameId = 2;
    const auto recovery = sender->encode(ctx);
    EXPECT_TRUE(receiver->decode(recovery).valid);
    (void)keyframe;
}

TEST(FullPipeline, QoERanksChannelsSensiblyOnNarrowLink) {
    // On a 5 Mbps link the keypoint channel must beat raw mesh streaming.
    core::SessionConfig cfg;
    cfg.frames = 10;
    cfg.link.bandwidth = net::BandwidthTrace::constant(5e6);
    cfg.qualityEvalInterval = 5;
    cfg.qualitySamples = 3000;
    cfg.dropWhenBusy = false;

    auto keypoint = core::makeKeypointChannel({.reconResolution = 32});
    const auto kpStats = core::runSession(*keypoint, sharedModel(), cfg);
    auto raw = core::makeTraditionalChannel({false, false});
    const auto rawStats = core::runSession(*raw, sharedModel(), cfg);

    EXPECT_GT(core::computeQoE(kpStats).mos, core::computeQoE(rawStats).mos);
}

TEST(FullPipeline, SessionOverFluctuatingLink) {
    core::SessionConfig cfg;
    cfg.frames = 30;
    cfg.link.bandwidth = net::BandwidthTrace::sine(2e6, 30e6, 0.5);
    cfg.link.jitterStddevS = 0.003;
    cfg.link.lossRate = 0.01;
    // Receiver-busy drops follow the simulated clock, which host load
    // cannot move.
    cfg.timing = core::TimingModel::Simulated;
    auto channel = core::makeKeypointChannel({.reconResolution = 16});
    const auto stats = core::runSession(*channel, sharedModel(), cfg);
    // The tiny payload survives even the 2 Mbps troughs.
    const core::telemetry::Counters& c = stats.telemetry.counters;
    EXPECT_EQ(c.framesDelivered + c.dropsAtReceiver + c.dropsAtSender, 30u);
    EXPECT_GT(c.framesDelivered, 20u);
}

TEST(FullPipeline, DetectorDropoutSurvivesEndToEnd) {
    // Heavy occlusion: half the cameras removed; pipeline must still
    // produce a usable reconstruction from the surviving joints.
    const body::Pose gtPose =
        body::MotionGenerator(body::MotionKind::Collaborate, sharedModel().shape())
            .poseAt(2.0);
    capture::RigConfig rigCfg;
    rigCfg.cameraCount = 2;  // stereo only
    rigCfg.addNoise = false;
    const capture::CaptureRig rig(rigCfg);
    const auto frames = rig.capture(sharedModel().deform(gtPose), 9);
    const auto detection = capture::detectKeypoints3DDirect(rig, frames, gtPose, 9);

    std::array<float, body::kJointCount> conf = detection.confidence;
    const auto fit =
        body::fitPoseToKeypoints(detection.positions, conf, sharedModel().shape());
    recon::ReconstructionOptions ro;
    ro.resolution = 32;
    ro.shape = sharedModel().shape();
    const auto result = recon::reconstructFromPose(fit.pose, ro);
    ASSERT_TRUE(result.success);
    const auto err =
        mesh::compareMeshes(sharedModel().deform(gtPose), result.mesh, 5000);
    EXPECT_LT(err.chamfer, 0.08);
}

}  // namespace
}  // namespace semholo
