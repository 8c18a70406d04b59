#include "semholo/capture/rig.hpp"

#include <gtest/gtest.h>

#include "semholo/body/body_model.hpp"
#include "semholo/mesh/metrics.hpp"

#include "pinned_digest.hpp"

namespace semholo::capture {
namespace {

TEST(Noise, DepthNoisePerturbsWithinModel) {
    DepthImage depth(64, 64, 2.0f);
    DepthNoiseModel model;
    model.dropoutRate = 0.0f;
    applyDepthNoise(depth, model, 1);
    double meanAbs = 0.0;
    for (const float z : depth.data()) {
        EXPECT_GT(z, 1.9f);
        EXPECT_LT(z, 2.1f);
        meanAbs += std::fabs(z - 2.0f);
    }
    meanAbs /= depth.data().size();
    EXPECT_GT(meanAbs, 1e-4);  // noise actually applied
}

TEST(Noise, DropoutRemovesReturns) {
    DepthImage depth(100, 100, 2.0f);
    DepthNoiseModel model;
    model.dropoutRate = 0.5f;
    applyDepthNoise(depth, model, 3);
    std::size_t dropped = 0;
    for (const float z : depth.data())
        if (z == 0.0f) ++dropped;
    EXPECT_GT(dropped, 4000u);
    EXPECT_LT(dropped, 6000u);
}

TEST(Noise, OutOfRangeDropped) {
    DepthImage depth(8, 8, 20.0f);  // beyond the 8 m working range
    applyDepthNoise(depth, DepthNoiseModel{}, 5);
    for (const float z : depth.data()) EXPECT_EQ(z, 0.0f);
}

TEST(Noise, NoiseGrowsWithRange) {
    DepthNoiseModel model;
    model.dropoutRate = 0.0f;
    model.quantizationStep = 0.0f;
    DepthImage near(64, 64, 1.0f), far(64, 64, 5.0f);
    applyDepthNoise(near, model, 7);
    applyDepthNoise(far, model, 7);
    auto meanAbsDev = [](const DepthImage& img, float ref) {
        double s = 0.0;
        for (const float z : img.data()) s += std::fabs(z - ref);
        return s / img.data().size();
    };
    EXPECT_GT(meanAbsDev(far, 5.0f), meanAbsDev(near, 1.0f) * 3.0);
}

TEST(Noise, ColorNoiseStaysInRange) {
    RGBImage img(32, 32, {0.95f, 0.5f, 0.02f});
    applyColorNoise(img, {0.05f}, 9);
    for (const auto& c : img.data()) {
        EXPECT_GE(c.x, 0.0f);
        EXPECT_LE(c.x, 1.0f);
        EXPECT_GE(c.z, 0.0f);
    }
}

TEST(Noise, Deterministic) {
    DepthImage a(16, 16, 2.0f), b(16, 16, 2.0f);
    applyDepthNoise(a, DepthNoiseModel{}, 42);
    applyDepthNoise(b, DepthNoiseModel{}, 42);
    EXPECT_EQ(a.data(), b.data());
}

TEST(CaptureRig, CamerasOnRingLookingIn) {
    RigConfig cfg;
    cfg.cameraCount = 6;
    const CaptureRig rig(cfg);
    ASSERT_EQ(rig.cameras().size(), 6u);
    for (const auto& cam : rig.cameras()) {
        const geom::Vec3f eye = cam.worldFromCamera.translation;
        EXPECT_NEAR((geom::Vec2f{eye.x, eye.z}.norm()), kRingRadius, 1e-4f);
        // Subject at origin projects to the image centre.
        geom::Vec2f pix;
        float depth;
        ASSERT_TRUE(cam.projectWorld({0, 0, 0}, pix, depth));
        EXPECT_NEAR(pix.x, cam.intrinsics.cx, 1.0f);
    }
}

class RigFixture : public ::testing::Test {
protected:
    static const body::BodyModel& model() {
        static const body::BodyModel m{body::ShapeParams{}, 56};
        return m;
    }
};

TEST_F(RigFixture, CaptureSeesSubjectFromAllViews) {
    RigConfig cfg;
    cfg.addNoise = false;
    const CaptureRig rig(cfg);
    const auto frames = rig.capture(model().templateMesh(), 1);
    ASSERT_EQ(frames.size(), 4u);
    for (const auto& f : frames) {
        std::size_t hits = 0;
        for (const float z : f.depth.data())
            if (z > 0.0f) ++hits;
        EXPECT_GT(hits, f.depth.data().size() / 50);
    }
}

TEST_F(RigFixture, FusedCloudLiesOnSubject) {
    RigConfig cfg;
    cfg.addNoise = false;
    const CaptureRig rig(cfg);
    const auto cloud = rig.captureCloud(model().templateMesh(), 1);
    ASSERT_GT(cloud.size(), 500u);
    const double err = mesh::pointToMeshError(cloud, model().templateMesh());
    EXPECT_LT(err, 0.01);
}

TEST_F(RigFixture, NoisyFusionStillAccurate) {
    const CaptureRig rig;  // noise on
    const auto cloud = rig.captureCloud(model().templateMesh(), 2);
    ASSERT_GT(cloud.size(), 500u);
    const double err = mesh::pointToMeshError(cloud, model().templateMesh());
    EXPECT_LT(err, 0.03);
}

TEST_F(RigFixture, FusionCoversBody) {
    RigConfig cfg;
    cfg.addNoise = false;
    const CaptureRig rig(cfg);
    const auto cloud = rig.captureCloud(model().templateMesh(), 1);
    const auto bounds = cloud.bounds();
    // Full height visible across the ring of cameras.
    EXPECT_GT(bounds.extent().y, 1.3f);
}

TEST_F(RigFixture, DefaultOutputsMatchPinnedDigest) {
    // The default rig with sensor noise on: every view's noisy depth and
    // colour, then the fused cloud. Recorded before the ring geometry,
    // the Kinect-class depth model and the fusion filter became
    // constants.
    const CaptureRig rig;
    pinned::Digest frames;
    for (const RGBDFrame& f : rig.capture(model().templateMesh(), 5)) {
        frames.add(f.depth.data());
        frames.add(f.color.data());
    }
    EXPECT_EQ(frames.h, 0x6d5b42aca046a685ull) << std::hex << frames.h;
    const mesh::PointCloud cloud = rig.captureCloud(model().templateMesh(), 5);
    pinned::Digest fused;
    fused.add(cloud.points);
    fused.add(cloud.colors);
    EXPECT_EQ(cloud.size(), 3386u);
    EXPECT_EQ(fused.h, 0xaae3f2b4ef1cbfc5ull) << std::hex << fused.h;
}

TEST(Noise, WorkingRangeIsPointThreeToEightMetres) {
    DepthNoiseModel model;
    model.dropoutRate = 0.0f;
    DepthImage depth(4, 1, 0.0f);
    depth.at(0, 0) = 0.29f;
    depth.at(1, 0) = 0.31f;
    depth.at(2, 0) = 7.9f;
    depth.at(3, 0) = 8.1f;
    applyDepthNoise(depth, model, 3);
    EXPECT_EQ(depth.at(0, 0), 0.0f);
    EXPECT_GT(depth.at(1, 0), 0.0f);
    EXPECT_GT(depth.at(2, 0), 0.0f);
    EXPECT_EQ(depth.at(3, 0), 0.0f);
}

}  // namespace
}  // namespace semholo::capture
