#include "semholo/capture/rasterizer.hpp"

#include <gtest/gtest.h>

#include "semholo/mesh/metrics.hpp"

#include "pinned_digest.hpp"

namespace semholo::capture {
namespace {

using geom::Camera;
using geom::CameraIntrinsics;
using geom::Vec3f;

Camera frontCamera(int w = 160, int h = 120) {
    return Camera::lookAt({0, 0, -3}, {0, 0, 0}, {0, 1, 0},
                          CameraIntrinsics::fromFov(w, h, 1.0f));
}

TEST(Rasterizer, SphereCoversCenterOfImage) {
    const auto sphere = mesh::makeUVSphere(0.5f, 16, 32);
    const RGBDFrame frame = rasterize(sphere, frontCamera());
    // Centre pixel hit at depth ~2.5 (camera at z=-3, surface at z=-0.5).
    const float z = frame.depth.at(80, 60);
    EXPECT_NEAR(z, 2.5f, 0.05f);
    // Corner pixel empty.
    EXPECT_EQ(frame.depth.at(2, 2), 0.0f);
}

TEST(Rasterizer, DepthIsNearestSurface) {
    // Two spheres, one behind the other: depth must be the front one.
    auto front = mesh::makeUVSphere(0.3f, 16, 32, {0, 0, -1});
    const auto back = mesh::makeUVSphere(0.6f, 16, 32, {0, 0, 2});
    front.append(back);
    const DepthImage depth = rasterizeDepth(front, frontCamera());
    EXPECT_NEAR(depth.at(80, 60), 3.0f - 1.0f - 0.3f, 0.05f);
}

TEST(Rasterizer, ColorsInterpolated) {
    auto sphere = mesh::makeUVSphere(0.5f, 16, 32);
    sphere.colors.assign(sphere.vertexCount(), Vec3f{1.0f, 0.0f, 0.0f});
    RasterizerOptions opt;
    opt.shade = false;
    const RGBDFrame frame = rasterize(sphere, frontCamera(), opt);
    const Vec3f c = frame.color.at(80, 60);
    EXPECT_NEAR(c.x, 1.0f, 1e-4f);
    EXPECT_NEAR(c.y, 0.0f, 1e-4f);
}

TEST(Rasterizer, BackgroundPreserved) {
    RasterizerOptions opt;
    opt.background = {0.1f, 0.2f, 0.3f};
    const RGBDFrame frame = rasterize(mesh::makeUVSphere(0.2f, 8, 16), frontCamera(), opt);
    const Vec3f bg = frame.color.at(0, 0);
    EXPECT_NEAR(bg.x, 0.1f, 1e-5f);
    EXPECT_NEAR(bg.z, 0.3f, 1e-5f);
}

TEST(Rasterizer, ShadingDarkensGrazingAngles) {
    auto sphere = mesh::makeUVSphere(0.5f, 32, 64);
    sphere.colors.assign(sphere.vertexCount(), Vec3f{1.0f, 1.0f, 1.0f});
    const RGBDFrame frame = rasterize(sphere, frontCamera());
    // Centre faces the camera head-on; find a lit pixel near the rim.
    const float center = frame.color.at(80, 60).x;
    float rim = 1.0f;
    for (int x = 0; x < 160; ++x) {
        if (frame.depth.at(x, 60) > 0.0f) {
            rim = frame.color.at(x, 60).x;
            break;
        }
    }
    EXPECT_GT(center, rim);
}

TEST(Rasterizer, UnprojectRoundTripsGeometry) {
    const auto sphere = mesh::makeUVSphere(0.5f, 24, 48);
    const Camera cam = frontCamera(320, 240);
    const RGBDFrame frame = rasterize(sphere, cam);
    const mesh::PointCloud cloud = unprojectToCloud(frame, cam, 2);
    ASSERT_GT(cloud.size(), 100u);
    // All back-projected points lie on the visible hemisphere surface.
    for (const Vec3f& p : cloud.points) EXPECT_NEAR(p.norm(), 0.5f, 0.02f);
}

TEST(Rasterizer, EmptyMeshRendersEmpty) {
    const RGBDFrame frame = rasterize(mesh::TriMesh{}, frontCamera());
    for (const float z : frame.depth.data()) EXPECT_EQ(z, 0.0f);
}

TEST(Image, MAEAndPSNR) {
    RGBImage a(8, 8, {0.5f, 0.5f, 0.5f});
    RGBImage b = a;
    EXPECT_GT(imagePSNR(a, b), 1e8);
    EXPECT_DOUBLE_EQ(imageMAE(a, b), 0.0);
    for (auto& c : b.data()) c.x += 0.1f;
    EXPECT_NEAR(imageMAE(a, b), 0.1 / 3.0, 1e-6);
    EXPECT_LT(imagePSNR(a, b), 30.0);
    EXPECT_GT(imagePSNR(a, b), 20.0);
}

TEST(Image, BoundsAndAccess) {
    Image<int> img(4, 3, 7);
    EXPECT_EQ(img.pixelCount(), 12u);
    EXPECT_EQ(img.at(3, 2), 7);
    img.at(1, 1) = 42;
    EXPECT_EQ(img.at(1, 1), 42);
    EXPECT_TRUE(img.inBounds(0, 0));
    EXPECT_FALSE(img.inBounds(4, 0));
    EXPECT_FALSE(img.inBounds(0, 3));
}

TEST(Rasterizer, DefaultOutputsMatchPinnedDigest) {
    // A coloured sphere under the default headlight shading: depth and
    // shaded colour of every pixel. Recorded before the ambient floor
    // became a constant.
    auto sphere = mesh::makeUVSphere(0.5f, 16, 32);
    sphere.colors.resize(sphere.vertexCount());
    for (std::size_t i = 0; i < sphere.vertexCount(); ++i)
        sphere.colors[i] = {0.9f, 0.5f + 0.4f * sphere.vertices[i].y, 0.2f};
    const RGBDFrame frame = rasterize(sphere, frontCamera());
    pinned::Digest d;
    d.add(frame.depth.data());
    d.add(frame.color.data());
    EXPECT_EQ(d.h, 0xd644f6c8dd159331ull) << std::hex << d.h;
}

}  // namespace
}  // namespace semholo::capture
