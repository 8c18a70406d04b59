#include "semholo/mesh/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "semholo/mesh/sampling.hpp"

namespace semholo::mesh {
namespace {

TEST(Metrics, IdenticalCloudsZeroError) {
    PointCloud pc;
    pc.points = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 1}};
    const auto stats = compareClouds(pc, pc);
    EXPECT_DOUBLE_EQ(stats.chamfer, 0.0);
    EXPECT_DOUBLE_EQ(stats.hausdorff, 0.0);
    EXPECT_GT(stats.psnr, 1e8);  // "infinite"
}

TEST(Metrics, TranslatedCloudHasExpectedDistance) {
    PointCloud a, b;
    for (int i = 0; i < 10; ++i)
        a.addPoint({static_cast<float>(i) * 10.0f, 0, 0});
    b = a;
    for (Vec3f& p : b.points) p.y += 2.0f;
    const auto stats = compareClouds(a, b);
    // Every nearest neighbour is exactly 2 away.
    EXPECT_NEAR(stats.chamfer, 2.0, 1e-5);
    EXPECT_NEAR(stats.hausdorff, 2.0, 1e-5);
    EXPECT_NEAR(stats.rmse, 2.0, 1e-5);
}

TEST(Metrics, AsymmetricDirectionsReported) {
    PointCloud a, b;
    a.addPoint({0, 0, 0});
    b.addPoint({0, 0, 0});
    b.addPoint({5, 0, 0});  // extra far point only in b
    const auto stats = compareClouds(a, b);
    EXPECT_NEAR(stats.meanForward, 0.0, 1e-6);   // a -> b perfect
    EXPECT_NEAR(stats.meanBackward, 2.5, 1e-6);  // b -> a averages 0 and 5
    EXPECT_NEAR(stats.hausdorff, 5.0, 1e-6);
}

TEST(Metrics, NormalConsistencyPerfectWhenAligned) {
    PointCloud a;
    a.points = {{0, 0, 0}, {1, 0, 0}};
    a.normals = {{0, 1, 0}, {0, 1, 0}};
    const auto stats = compareClouds(a, a);
    EXPECT_NEAR(stats.normalConsistency, 1.0, 1e-6);
}

TEST(Metrics, NormalConsistencyZeroWhenOrthogonal) {
    PointCloud a, b;
    a.points = {{0, 0, 0}};
    a.normals = {{0, 1, 0}};
    b.points = {{0, 0, 0}};
    b.normals = {{1, 0, 0}};
    const auto stats = compareClouds(a, b);
    EXPECT_NEAR(stats.normalConsistency, 0.0, 1e-6);
}

TEST(Metrics, PsnrDecreasesWithError) {
    PointCloud a;
    for (int i = 0; i < 100; ++i)
        a.addPoint({static_cast<float>(i % 10), static_cast<float>(i / 10), 0});
    PointCloud small = a, large = a;
    for (Vec3f& p : small.points) p.z += 0.01f;
    for (Vec3f& p : large.points) p.z += 1.0f;
    const auto sSmall = compareClouds(a, small);
    const auto sLarge = compareClouds(a, large);
    EXPECT_GT(sSmall.psnr, sLarge.psnr);
}

TEST(Metrics, CompareMeshesSelfIsTiny) {
    const TriMesh s = makeUVSphere(1.0f, 24, 48);
    const auto stats = compareMeshes(s, s, 4000);
    // Different sample draws of the same surface: error is bounded by the
    // sample spacing (~1/sqrt(density) ~ 0.03 for 4000 points on 4*pi).
    EXPECT_LT(stats.chamfer, 0.05);
}

TEST(Metrics, CompareMeshesDetectsScaleDifference) {
    const TriMesh a = makeUVSphere(1.0f, 24, 48);
    const TriMesh b = makeUVSphere(1.2f, 24, 48);
    const auto stats = compareMeshes(a, b, 4000);
    EXPECT_NEAR(stats.chamfer, 0.2, 0.05);
}

TEST(Metrics, PointToMeshErrorZeroOnSurface) {
    const TriMesh box = makeBox({1, 1, 1});
    PointCloud onSurface = sampleSurface(box, 500, 3);
    EXPECT_NEAR(pointToMeshError(onSurface, box), 0.0, 1e-5);
}

TEST(Metrics, PointToMeshErrorMeasuresOffset) {
    const TriMesh box = makeBox({1, 1, 1});
    PointCloud pc;
    pc.addPoint({0, 0, 2});  // 1 above the +z face
    EXPECT_NEAR(pointToMeshError(pc, box), 1.0, 1e-4);
}

// An empty side has no distances: NaN ("no data"), never a 0 that
// reads as a perfect match.
TEST(Metrics, EmptyInputsReportNoData) {
    PointCloud empty;
    PointCloud one;
    one.addPoint({0, 0, 0});
    for (const auto& stats : {compareClouds(empty, one), compareClouds(one, empty),
                              compareMeshes(TriMesh{}, makeBox({1, 1, 1}), 100)}) {
        EXPECT_TRUE(std::isnan(stats.meanForward));
        EXPECT_TRUE(std::isnan(stats.meanBackward));
        EXPECT_TRUE(std::isnan(stats.chamfer));
        EXPECT_TRUE(std::isnan(stats.hausdorff));
        EXPECT_TRUE(std::isnan(stats.rmse));
        EXPECT_TRUE(std::isnan(stats.psnr));
    }
    EXPECT_TRUE(std::isnan(pointToMeshError(empty, makeBox({1, 1, 1}))));
    EXPECT_TRUE(std::isnan(pointToMeshError(one, TriMesh{})));
}

TEST(Sampling, SurfaceSamplesLieOnMesh) {
    const TriMesh box = makeBox({1, 2, 0.5f});
    const PointCloud pc = sampleSurface(box, 1000, 17);
    ASSERT_EQ(pc.size(), 1000u);
    EXPECT_NEAR(pointToMeshError(pc, box), 0.0, 1e-5);
    EXPECT_TRUE(pc.hasNormals());
}

TEST(Sampling, DeterministicGivenSeed) {
    const TriMesh s = makeUVSphere(1.0f, 16, 32);
    const PointCloud a = sampleSurface(s, 100, 5);
    const PointCloud b = sampleSurface(s, 100, 5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.points[i], b.points[i]);
}

TEST(Sampling, AreaWeighting) {
    // A mesh with one huge and one tiny triangle: nearly all samples should
    // land on the huge one.
    TriMesh m;
    m.vertices = {{0, 0, 0},         {10, 0, 0}, {0, 10, 0},
                  {100, 100, 100},   {100.1f, 100, 100}, {100, 100.1f, 100}};
    m.triangles = {{0, 1, 2}, {3, 4, 5}};
    const PointCloud pc = sampleSurface(m, 1000, 23);
    std::size_t onBig = 0;
    for (const Vec3f& p : pc.points)
        if (p.norm() < 50.0f) ++onBig;
    EXPECT_GT(onBig, 990u);
}

TEST(Sampling, DecimateByDistanceEnforcesSpacing) {
    std::mt19937 rng(77);
    std::uniform_real_distribution<float> uni(0.0f, 1.0f);
    PointCloud pc;
    for (int i = 0; i < 2000; ++i) pc.addPoint({uni(rng), uni(rng), uni(rng)});
    const float minDist = 0.2f;
    const PointCloud dec = decimateByDistance(pc, minDist);
    EXPECT_LT(dec.size(), pc.size());
    for (std::size_t i = 0; i < dec.size(); ++i)
        for (std::size_t j = i + 1; j < dec.size(); ++j)
            EXPECT_GE((dec.points[i] - dec.points[j]).norm(), minDist * 0.999f);
}

}  // namespace
}  // namespace semholo::mesh
