#include <gtest/gtest.h>

#include "semholo/core/session.hpp"
#include "semholo/mesh/metrics.hpp"

namespace semholo::core {
namespace {

const body::BodyModel& sharedModel() {
    static const body::BodyModel model{body::ShapeParams{}, 40};
    return model;
}

FrameContext frameAt(double t, double bandwidthBps) {
    FrameContext ctx;
    ctx.pose = body::MotionGenerator(body::MotionKind::Talk, sharedModel().shape())
                   .poseAt(t);
    ctx.model = &sharedModel();
    ctx.estimatedBandwidthBps = bandwidthBps;
    return ctx;
}

AdaptiveMeshOptions smallLadder() {
    AdaptiveMeshOptions opt;
    opt.ladderTriangles = {400, 1500, 6000};
    return opt;
}

TEST(AdaptiveMesh, ColdStartUsesLowestLod) {
    auto channel = makeAdaptiveMeshChannel(smallLadder());
    const auto encoded = channel->encode(frameAt(0.0, 0.0));
    const auto decoded = channel->decode(encoded);
    ASSERT_TRUE(decoded.valid);
    EXPECT_LE(decoded.mesh.triangleCount(), 450u);
}

TEST(AdaptiveMesh, HighBandwidthPicksHighLod) {
    auto channel = makeAdaptiveMeshChannel(smallLadder());
    channel->encode(frameAt(0.0, 0.0));  // calibrate ladder
    const auto rich = channel->decode(channel->encode(frameAt(0.1, 500e6)));
    const auto poor = channel->decode(channel->encode(frameAt(0.2, 0.5e6)));
    ASSERT_TRUE(rich.valid && poor.valid);
    EXPECT_GT(rich.mesh.triangleCount(), poor.mesh.triangleCount() * 3);
    // Bytes follow the LOD.
    const auto richBytes = channel->encode(frameAt(0.3, 500e6)).bytes();
    const auto poorBytes = channel->encode(frameAt(0.4, 0.5e6)).bytes();
    EXPECT_GT(richBytes, poorBytes * 2);
}

TEST(AdaptiveMesh, LodQualityOrdering) {
    auto channel = makeAdaptiveMeshChannel(smallLadder());
    channel->encode(frameAt(0.0, 0.0));
    const FrameContext ctx = frameAt(0.5, 0.0);
    const mesh::TriMesh gt = ctx.groundTruth();
    const auto low = channel->decode(channel->encode(frameAt(0.5, 0.5e6)));
    const auto high = channel->decode(channel->encode(frameAt(0.5, 500e6)));
    ASSERT_TRUE(low.valid && high.valid);
    const double errLow = mesh::compareMeshes(gt, low.mesh, 5000).chamfer;
    const double errHigh = mesh::compareMeshes(gt, high.mesh, 5000).chamfer;
    EXPECT_LT(errHigh, errLow);
}

TEST(AdaptiveMesh, SessionFeedbackLoopAdapts) {
    // Over a live session the throughput estimator kicks in after the
    // first frame and the channel climbs the ladder on a fat link while
    // staying low on a thin one.
    auto fat = makeAdaptiveMeshChannel(smallLadder());
    auto thin = makeAdaptiveMeshChannel(smallLadder());
    SessionConfig cfg;
    cfg.frames = 6;
    cfg.dropWhenBusy = false;
    cfg.link.jitterStddevS = 0.0;

    cfg.link.bandwidth = net::BandwidthTrace::constant(200e6);
    const auto statsFat = runSession(*fat, sharedModel(), cfg);
    cfg.link.bandwidth = net::BandwidthTrace::constant(2e6);
    cfg.link.queueCapacityBytes = 4 * 1024 * 1024;
    const auto statsThin = runSession(*thin, sharedModel(), cfg);

    // Skip the cold-start frame when comparing steady-state bytes.
    double fatBytes = 0.0, thinBytes = 0.0;
    for (std::size_t f = 2; f < 6; ++f) {
        fatBytes += static_cast<double>(statsFat.frames[f].bytes);
        thinBytes += static_cast<double>(statsThin.frames[f].bytes);
    }
    EXPECT_GT(fatBytes, thinBytes * 2);
    EXPECT_EQ(statsThin.telemetry.counters.framesDelivered, 6u);  // never overcommits the link
}

TEST(AdaptiveMesh, ResetRecalibrates) {
    auto channel = makeAdaptiveMeshChannel(smallLadder());
    channel->encode(frameAt(0.0, 500e6));
    channel->reset();
    // After reset the first frame is a cold start again (lowest LOD).
    const auto decoded = channel->decode(channel->encode(frameAt(0.1, 0.0)));
    ASSERT_TRUE(decoded.valid);
    EXPECT_LE(decoded.mesh.triangleCount(), 450u);
}

}  // namespace
}  // namespace semholo::core
