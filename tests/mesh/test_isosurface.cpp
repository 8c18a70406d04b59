#include "semholo/mesh/isosurface.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "semholo/mesh/metrics.hpp"
#include "semholo/mesh/sampling.hpp"

namespace semholo::mesh {
namespace {

ScalarField sphereSDF(Vec3f center, float radius) {
    return [=](Vec3f p) { return (p - center).norm() - radius; };
}

geom::AABB cube(float half) {
    geom::AABB b;
    b.expand({-half, -half, -half});
    b.expand({half, half, half});
    return b;
}

TEST(IsoSurface, SphereIsWatertight) {
    const TriMesh m = extractIsoSurface(sphereSDF({}, 1.0f), cube(1.5f), 24);
    ASSERT_GT(m.triangleCount(), 0u);
    EXPECT_EQ(m.countBoundaryEdges(), 0u);
    EXPECT_EQ(m.countNonManifoldEdges(), 0u);
}

TEST(IsoSurface, SphereRadiusAccurate) {
    const float radius = 1.0f;
    const TriMesh m = extractIsoSurface(sphereSDF({}, radius), cube(1.5f), 48);
    for (const Vec3f& v : m.vertices) EXPECT_NEAR(v.norm(), radius, 0.01f);
}

TEST(IsoSurface, SphereAreaConvergesWithResolution) {
    const double analytic = 4.0 * M_PI;
    const TriMesh lo = extractIsoSurface(sphereSDF({}, 1.0f), cube(1.5f), 16);
    const TriMesh hi = extractIsoSurface(sphereSDF({}, 1.0f), cube(1.5f), 64);
    const double errLo = std::fabs(lo.surfaceArea() - analytic);
    const double errHi = std::fabs(hi.surfaceArea() - analytic);
    EXPECT_LT(errHi, errLo);
    EXPECT_NEAR(hi.surfaceArea(), analytic, analytic * 0.02);
}

TEST(IsoSurface, NormalsPointOutward) {
    const TriMesh m = extractIsoSurface(sphereSDF({}, 1.0f), cube(1.5f), 32);
    std::size_t outward = 0;
    for (const Triangle& t : m.triangles) {
        const Vec3f c = (m.vertices[t.a] + m.vertices[t.b] + m.vertices[t.c]) / 3.0f;
        if (m.triangleNormal(t).dot(c.normalized()) > 0.0f) ++outward;
    }
    // All triangles should face outward for an SDF (negative inside).
    EXPECT_EQ(outward, m.triangleCount());
}

TEST(IsoSurface, OffsetSphereCenterRespected) {
    const Vec3f center{0.4f, -0.2f, 0.3f};
    geom::AABB b = cube(2.0f);
    const TriMesh m = extractIsoSurface(sphereSDF(center, 0.8f), b, 40);
    for (const Vec3f& v : m.vertices) EXPECT_NEAR((v - center).norm(), 0.8f, 0.015f);
}

TEST(IsoSurface, EmptyFieldGivesEmptyMesh) {
    // Field entirely positive: no crossing.
    const TriMesh m =
        extractIsoSurface([](Vec3f) { return 1.0f; }, cube(1.0f), 16);
    EXPECT_TRUE(m.empty());
}

TEST(IsoSurface, FullFieldGivesEmptyMesh) {
    const TriMesh m =
        extractIsoSurface([](Vec3f) { return -1.0f; }, cube(1.0f), 16);
    EXPECT_TRUE(m.empty());
}

TEST(IsoSurface, NonZeroIsoValue) {
    // Extracting sdf = -0.2 of a unit sphere gives a sphere of radius 0.8.
    IsoSurfaceOptions opt;
    opt.isoValue = -0.2f;
    const TriMesh m = extractIsoSurface(sphereSDF({}, 1.0f), cube(1.5f), 40, opt);
    for (const Vec3f& v : m.vertices) EXPECT_NEAR(v.norm(), 0.8f, 0.012f);
}

TEST(IsoSurface, TwoBlobsProduceTwoComponents) {
    // Union of two disjoint spheres: still watertight.
    const ScalarField field = [](Vec3f p) {
        const float a = (p - Vec3f{-0.8f, 0, 0}).norm() - 0.5f;
        const float b = (p - Vec3f{0.8f, 0, 0}).norm() - 0.5f;
        return std::min(a, b);
    };
    const TriMesh m = extractIsoSurface(field, cube(1.6f), 40);
    EXPECT_EQ(m.countBoundaryEdges(), 0u);
    const double analytic = 2.0 * 4.0 * M_PI * 0.25;
    EXPECT_NEAR(m.surfaceArea(), analytic, analytic * 0.05);
}

TEST(IsoSurface, ResolutionControlsVertexBudget) {
    const TriMesh lo = extractIsoSurface(sphereSDF({}, 1.0f), cube(1.5f), 12);
    const TriMesh hi = extractIsoSurface(sphereSDF({}, 1.0f), cube(1.5f), 48);
    EXPECT_GT(hi.vertexCount(), lo.vertexCount() * 8);
}

TEST(IsoSurface, ChamferToAnalyticSphereDecreasesWithResolution) {
    const TriMesh reference = makeUVSphere(1.0f, 48, 96);
    const TriMesh lo = extractIsoSurface(sphereSDF({}, 1.0f), cube(1.5f), 12);
    const TriMesh hi = extractIsoSurface(sphereSDF({}, 1.0f), cube(1.5f), 48);
    const auto errLo = compareMeshes(reference, lo, 5000);
    const auto errHi = compareMeshes(reference, hi, 5000);
    EXPECT_LT(errHi.chamfer, errLo.chamfer);
}

TEST(IsoSurface, StoreExtractionMatchesDenseSampling) {
    // A sampler's store on 4-node blocks gives the mesh that sampling
    // every node on the default tiling gives.
    BlockSampler sampler(VoxelGrid(cube(1.5f), {16, 16, 16}), 4);
    sampler.sample(sphereSDF({}, 1.0f), {});
    const TriMesh fromStore = extractIsoSurface(sampler);
    const TriMesh fromGrid = extractIsoSurface(sphereSDF({}, 1.0f), cube(1.5f), 16);
    ASSERT_GT(fromStore.triangleCount(), 0u);
    EXPECT_EQ(fromStore.vertices, fromGrid.vertices);
    EXPECT_EQ(fromStore.triangles, fromGrid.triangles);
}

}  // namespace
}  // namespace semholo::mesh
