#include "semholo/core/channel.hpp"

#include <gtest/gtest.h>

#include "semholo/body/animation.hpp"
#include "semholo/mesh/metrics.hpp"

namespace semholo::core {
namespace {

const body::BodyModel& sharedModel() {
    static const body::BodyModel model{body::ShapeParams{}, 64};
    return model;
}

FrameContext makeFrame(double t = 0.5,
                       body::MotionKind kind = body::MotionKind::Talk) {
    FrameContext ctx;
    ctx.pose = body::MotionGenerator(kind).poseAt(t);
    ctx.pose.frameId = 7;
    ctx.model = &sharedModel();
    ctx.timestamp = t;
    ctx.viewerHead = {geom::Quat::identity(), {0.0f, 0.2f, -2.5f}};
    return ctx;
}

TEST(TraditionalChannel, RawRoundTripExact) {
    TraditionalOptions opt;
    opt.compress = false;
    auto channel = makeTraditionalChannel(opt);
    const FrameContext ctx = makeFrame();
    const auto encoded = channel->encode(ctx);
    const auto decoded = channel->decode(encoded);
    ASSERT_TRUE(decoded.valid);
    const mesh::TriMesh gt = ctx.groundTruth();
    ASSERT_EQ(decoded.mesh.vertexCount(), gt.vertexCount());
    for (std::size_t i = 0; i < gt.vertexCount(); i += 37)
        EXPECT_EQ(decoded.mesh.vertices[i], gt.vertices[i]);
}

TEST(TraditionalChannel, RawPayloadMatchesTable2Scale) {
    // Table 2: untextured body mesh ~397.7 KB per frame raw.
    TraditionalOptions opt;
    opt.compress = false;
    auto channel = makeTraditionalChannel(opt);
    const auto encoded = channel->encode(makeFrame());
    EXPECT_GT(encoded.bytes(), 150u * 1024u);
    EXPECT_LT(encoded.bytes(), 900u * 1024u);
}

TEST(TraditionalChannel, CompressionShrinksByDracoFactor) {
    auto raw = makeTraditionalChannel({false, false});
    auto compressed = makeTraditionalChannel({true, false});
    const FrameContext ctx = makeFrame();
    const auto rawBytes = raw->encode(ctx).bytes();
    const auto compBytes = compressed->encode(ctx).bytes();
    // Table 2 reports ~9.4x with Draco; require the same class.
    EXPECT_GT(static_cast<double>(rawBytes) / static_cast<double>(compBytes), 6.0);
    const auto decoded = compressed->decode(compressed->encode(ctx));
    ASSERT_TRUE(decoded.valid);
    EXPECT_EQ(decoded.mesh.triangleCount(), ctx.groundTruth().triangleCount());
}

TEST(KeypointChannel, PayloadMatchesPaper) {
    KeypointChannelOptions opt;
    opt.compressPayload = false;
    auto channel = makeKeypointChannel(opt);
    const auto encoded = channel->encode(makeFrame());
    EXPECT_EQ(encoded.bytes(), body::kPosePayloadBytes);  // 1.91 KB
    // Compressed payload lands near the paper's 1.23 KB.
    opt.compressPayload = true;
    auto compressed = makeKeypointChannel(opt);
    const auto small = compressed->encode(makeFrame());
    EXPECT_LT(small.bytes(), body::kPosePayloadBytes * 10 / 13);
}

TEST(KeypointChannel, DecodeReconstructsBody) {
    KeypointChannelOptions opt;
    opt.reconResolution = 40;
    auto channel = makeKeypointChannel(opt);
    const FrameContext ctx = makeFrame();
    const auto decoded = channel->decode(channel->encode(ctx));
    ASSERT_TRUE(decoded.valid);
    EXPECT_GT(decoded.mesh.triangleCount(), 500u);
    // Close to the ground-truth capture mesh.
    const auto err = mesh::compareMeshes(ctx.groundTruth(), decoded.mesh, 5000);
    EXPECT_LT(err.chamfer, 0.05);
}

TEST(KeypointChannel, CorruptPayloadInvalid) {
    auto channel = makeKeypointChannel({});
    EncodedFrame bogus;
    bogus.data.assign(50, 0xAB);
    EXPECT_FALSE(channel->decode(bogus).valid);
}

TEST(TextChannel, SmallestPayloadOfAll) {
    TextChannelOptions topt;
    topt.reconstructMesh = false;
    auto text = makeTextChannel(topt);
    auto keypoint = makeKeypointChannel({});
    const FrameContext ctx = makeFrame();
    const auto textBytes = text->encode(ctx).bytes();
    const auto kpBytes = keypoint->encode(ctx).bytes();
    EXPECT_LT(textBytes, kpBytes);
}

TEST(TextChannel, DecodeProducesMeshAndSimulatedCosts) {
    TextChannelOptions opt;
    opt.reconResolution = 32;
    auto channel = makeTextChannel(opt);
    const FrameContext ctx = makeFrame();
    const auto encoded = channel->encode(ctx);
    EXPECT_GT(encoded.simulatedExtractMs, 0.0);  // captioning is "H"
    const auto decoded = channel->decode(encoded);
    ASSERT_TRUE(decoded.valid);
    EXPECT_GT(decoded.mesh.triangleCount(), 100u);
    EXPECT_GT(decoded.simulatedReconMs, 0.0);  // text-to-3D is "H"
}

TEST(TextChannel, DeltaFramesShrinkAfterKeyframe) {
    TextChannelOptions opt;
    opt.reconstructMesh = false;
    auto channel = makeTextChannel(opt);
    const body::MotionGenerator gen(body::MotionKind::Talk);
    std::size_t keyBytes = 0, deltaBytes = 0;
    for (int f = 0; f < 5; ++f) {
        FrameContext ctx;
        ctx.pose = gen.poseAt(f / 30.0);
        ctx.pose.frameId = static_cast<std::uint32_t>(f);
        ctx.model = &sharedModel();
        const auto encoded = channel->encode(ctx);
        const auto decoded = channel->decode(encoded);
        EXPECT_TRUE(decoded.valid);
        if (f == 0)
            keyBytes = encoded.bytes();
        else
            deltaBytes += encoded.bytes();
    }
    EXPECT_LT(deltaBytes / 4, keyBytes);
}

TEST(FoveatedChannel, BytesBetweenKeypointAndTraditional) {
    auto foveated = makeFoveatedChannel({});
    auto keypoint = makeKeypointChannel({});
    auto traditional = makeTraditionalChannel({true, false});
    const FrameContext ctx = makeFrame();
    const auto fb = foveated->encode(ctx).bytes();
    const auto kb = keypoint->encode(ctx).bytes();
    const auto tb = traditional->encode(ctx).bytes();
    EXPECT_GT(fb, kb);   // carries a real mesh region
    EXPECT_LT(fb, tb);   // but far less than the full mesh
}

TEST(FoveatedChannel, WiderFoveaMoreBytes) {
    FoveatedOptions narrow, wide;
    narrow.fovealRadiusDeg = 4.0;
    wide.fovealRadiusDeg = 15.0;
    auto narrowCh = makeFoveatedChannel(narrow);
    auto wideCh = makeFoveatedChannel(wide);
    const FrameContext ctx = makeFrame();
    EXPECT_LT(narrowCh->encode(ctx).bytes(), wideCh->encode(ctx).bytes());
}

TEST(FoveatedChannel, DecodeCombinesFovealAndPeripheral) {
    FoveatedOptions opt;
    opt.peripheralResolution = 28;
    auto channel = makeFoveatedChannel(opt);
    const FrameContext ctx = makeFrame();
    const auto decoded = channel->decode(channel->encode(ctx));
    ASSERT_TRUE(decoded.valid);
    EXPECT_GT(decoded.mesh.triangleCount(), 500u);
}

TEST(FoveatedChannel, CorruptFovealSectionStillChargesReconTime) {
    // The foveal mesh is decoded after the peripheral reconstruction, so
    // a corrupt foveal section fails a frame whose reconstruction
    // already ran. The engine times the whole decode call, invalid or
    // not (Session.EngineTimesInvalidDecodes); here the reconstruction
    // must show that it ran.
    FoveatedOptions opt;
    opt.peripheralResolution = 28;
    auto channel = makeFoveatedChannel(opt);
    EncodedFrame encoded = channel->encode(makeFrame());
    ASSERT_GT(encoded.bytes(), 8u);
    // Bytes 4-7 are the foveal mesh's magic (after the u32 length).
    for (std::size_t i = 4; i < 8; ++i) encoded.data[i] = ~encoded.data[i];
    const auto decoded = channel->decode(encoded);
    EXPECT_FALSE(decoded.valid);
    EXPECT_GT(decoded.recon.nodesEvaluated, 0u);
}

TEST(ImageChannel, EncodesCompressedViews) {
    ImageChannelOptions opt;
    opt.viewCount = 2;
    opt.imageWidth = 24;
    opt.imageHeight = 18;
    opt.pretrainSteps = 20;
    auto channel = makeImageChannel(opt);
    const FrameContext ctx = makeFrame();
    const auto encoded = channel->encode(ctx);
    // Two 24x18 views at ~0.5 B/pixel plus headers.
    EXPECT_GT(encoded.bytes(), 100u);
    EXPECT_LT(encoded.bytes(), 3000u);
}

TEST(ImageChannel, DecodeRendersNovelView) {
    ImageChannelOptions opt;
    opt.viewCount = 2;
    opt.imageWidth = 20;
    opt.imageHeight = 15;
    opt.pretrainSteps = 15;
    opt.fineTuneSteps = 3;
    auto channel = makeImageChannel(opt);
    const FrameContext ctx = makeFrame();
    const auto first = channel->decode(channel->encode(ctx));
    ASSERT_TRUE(first.valid);
    EXPECT_EQ(first.view.width(), 20);
    EXPECT_EQ(first.view.height(), 15);
    EXPECT_TRUE(first.mesh.empty());  // image semantics renders, no mesh
    // Second frame uses the fine-tune path.
    FrameContext next = makeFrame(0.6);
    next.pose.frameId = 8;
    const auto second = channel->decode(channel->encode(next));
    EXPECT_TRUE(second.valid);
}

TEST(Channels, NamesAreDistinct) {
    EXPECT_NE(makeKeypointChannel({})->name(), makeTextChannel({})->name());
    EXPECT_NE(makeTraditionalChannel({})->name(),
              makeTraditionalChannel({false, false})->name());
}

}  // namespace
}  // namespace semholo::core
