#include "semholo/mesh/simplify.hpp"

#include <gtest/gtest.h>

#include "semholo/mesh/isosurface.hpp"
#include "semholo/mesh/metrics.hpp"

#include "pinned_digest.hpp"

namespace semholo::mesh {
namespace {

TriMesh denseSphere() { return makeUVSphere(1.0f, 32, 64); }

TEST(Simplify, ReachesTargetTriangleBudget) {
    const TriMesh sphere = denseSphere();
    SimplifyOptions opt;
    opt.targetTriangles = 500;
    const auto result = simplify(sphere, opt);
    EXPECT_LE(result.mesh.triangleCount(), 520u);  // small overshoot allowed
    EXPECT_GT(result.mesh.triangleCount(), 100u);
    EXPECT_GT(result.collapsesApplied, 0u);
}

TEST(Simplify, AlreadySmallMeshUntouched) {
    const TriMesh box = makeBox({1, 1, 1});
    SimplifyOptions opt;
    opt.targetTriangles = 100;
    const auto result = simplify(box, opt);
    EXPECT_EQ(result.mesh.triangleCount(), 12u);
    EXPECT_EQ(result.collapsesApplied, 0u);
}

TEST(Simplify, ShapePreservedWithinTolerance) {
    const TriMesh sphere = denseSphere();
    SimplifyOptions opt;
    opt.targetTriangles = 400;
    const auto result = simplify(sphere, opt);
    // Simplified sphere still a sphere: radius error bounded.
    for (const auto& v : result.mesh.vertices)
        EXPECT_NEAR(v.norm(), 1.0f, 0.06f);
    const auto err = compareMeshes(sphere, result.mesh, 8000);
    EXPECT_LT(err.chamfer, 0.03);
}

TEST(Simplify, ProgressiveLadderMonotone) {
    const TriMesh sphere = denseSphere();
    double prevErr = 0.0;
    std::size_t prevTris = sphere.triangleCount();
    for (const std::size_t target : {2000u, 800u, 300u}) {
        SimplifyOptions opt;
        opt.targetTriangles = target;
        const auto result = simplify(sphere, opt);
        EXPECT_LT(result.mesh.triangleCount(), prevTris);
        prevTris = result.mesh.triangleCount();
        const double err = compareMeshes(sphere, result.mesh, 6000).chamfer;
        EXPECT_GE(err, prevErr * 0.5);  // coarser = not dramatically better
        prevErr = err;
    }
    EXPECT_GT(prevErr, 0.0);
}

TEST(Simplify, ColorsSurvive) {
    TriMesh sphere = denseSphere();
    sphere.colors.resize(sphere.vertexCount());
    for (std::size_t i = 0; i < sphere.vertexCount(); ++i)
        sphere.colors[i] = sphere.vertices[i].y > 0 ? geom::Vec3f{1, 0, 0}
                                                    : geom::Vec3f{0, 0, 1};
    SimplifyOptions opt;
    opt.targetTriangles = 600;
    const auto result = simplify(sphere, opt);
    ASSERT_TRUE(result.mesh.hasColors());
    // The hemisphere colouring survives: top vertices red-ish, bottom blue-ish.
    for (std::size_t i = 0; i < result.mesh.vertexCount(); ++i) {
        const auto& v = result.mesh.vertices[i];
        const auto& c = result.mesh.colors[i];
        if (v.y > 0.4f) {
            EXPECT_GT(c.x, c.z);
        }
        if (v.y < -0.4f) {
            EXPECT_GT(c.z, c.x);
        }
    }
}

TEST(Simplify, ClosedMeshStaysMostlyClosed) {
    const TriMesh sphere = denseSphere();
    SimplifyOptions opt;
    opt.targetTriangles = 800;
    const auto result = simplify(sphere, opt);
    // Greedy collapse on a closed surface should not open large holes.
    EXPECT_LT(result.mesh.countBoundaryEdges(), result.mesh.triangleCount() / 20);
}

TEST(Simplify, IndicesValidAfterCompaction) {
    const TriMesh blob = extractIsoSurface(
        [](geom::Vec3f p) { return p.norm() - 0.8f; },
        [] {
            geom::AABB b;
            b.expand({-1, -1, -1});
            b.expand({1, 1, 1});
            return b;
        }(),
        20);
    SimplifyOptions opt;
    opt.targetTriangles = blob.triangleCount() / 4;
    const auto result = simplify(blob, opt);
    for (const Triangle& t : result.mesh.triangles) {
        EXPECT_LT(t.a, result.mesh.vertexCount());
        EXPECT_LT(t.b, result.mesh.vertexCount());
        EXPECT_LT(t.c, result.mesh.vertexCount());
        EXPECT_NE(t.a, t.b);
        EXPECT_NE(t.b, t.c);
        EXPECT_NE(t.a, t.c);
    }
}

TEST(Simplify, EmptyMeshSafe) {
    const auto result = simplify(TriMesh{});
    EXPECT_TRUE(result.mesh.empty());
}

TEST(Simplify, DefaultOutputsMatchPinnedDigest) {
    // A budget tight enough that the fold-over guard rejects collapses:
    // the simplified mesh and both counters. Recorded before the normal
    // flip bound became a constant.
    SimplifyOptions opt;
    opt.targetTriangles = 12;
    const auto result = simplify(makeCylinder(1.0f, 0.02f, 32), opt);
    ASSERT_GT(result.collapsesRejected, 0u);
    EXPECT_EQ(result.collapsesApplied, 60u);
    EXPECT_EQ(result.collapsesRejected, 2u);
    pinned::Digest d;
    d.addMesh(result.mesh);
    EXPECT_EQ(d.h, 0xb647d3231bfce710ull) << std::hex << d.h;
}

}  // namespace
}  // namespace semholo::mesh
