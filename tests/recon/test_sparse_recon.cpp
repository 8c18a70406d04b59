#include "semholo/recon/keypoint_recon.hpp"

#include <gtest/gtest.h>

#include "semholo/body/animation.hpp"
#include "semholo/core/thread_pool.hpp"
#include "semholo/mesh/metrics.hpp"
#include "semholo/mesh/sampling.hpp"

namespace semholo::recon {
namespace {

using body::MotionGenerator;
using body::MotionKind;
using body::Pose;

void expectIdenticalMeshes(const mesh::TriMesh& a, const mesh::TriMesh& b) {
    ASSERT_EQ(a.vertexCount(), b.vertexCount());
    ASSERT_EQ(a.triangleCount(), b.triangleCount());
    for (std::size_t i = 0; i < a.vertexCount(); ++i) {
        EXPECT_EQ(a.vertices[i].x, b.vertices[i].x);
        EXPECT_EQ(a.vertices[i].y, b.vertices[i].y);
        EXPECT_EQ(a.vertices[i].z, b.vertices[i].z);
    }
    for (std::size_t i = 0; i < a.triangleCount(); ++i) {
        EXPECT_EQ(a.triangles[i].a, b.triangles[i].a);
        EXPECT_EQ(a.triangles[i].b, b.triangles[i].b);
        EXPECT_EQ(a.triangles[i].c, b.triangles[i].c);
    }
}

// With bone pruning disabled the sparse pipeline's field evaluates
// bit-identically to the dense path's, and the block-skip certificate is
// exact — so the reconstructions must agree bit for bit, including for
// poses with active expression coefficients (the face-warp region is the
// trickiest part of the certificate).
TEST(SparseRecon, BitIdenticalToDenseAcrossPosesAndResolutions) {
    const Pose poses[] = {Pose{}, MotionGenerator(MotionKind::Wave).poseAt(0.7),
                          MotionGenerator(MotionKind::Talk).poseAt(0.5)};
    for (const Pose& pose : poses) {
        for (const int res : {32, 48}) {
            ReconstructionOptions dense;
            dense.resolution = res;
            dense.mode = ReconMode::Dense;
            ReconstructionOptions sparse;
            sparse.resolution = res;
            sparse.mode = ReconMode::Sparse;
            sparse.bonePruning = false;  // bit-reproducible field required
            const auto rd = reconstructFromPose(pose, dense);
            const auto rs = reconstructFromPose(pose, sparse);
            ASSERT_TRUE(rd.success && rs.success);
            EXPECT_GT(rs.stats.blocksSkipped, 0u);
            expectIdenticalMeshes(rd.mesh, rs.mesh);
        }
    }
}

// Bone pruning changes each skipped smooth-min step by at most one
// rounding step, so the surface moves by (at most) float rounding.
// compareMeshes' point-to-point sampling has a resolution floor, so we
// measure exact point-to-surface distance instead.
TEST(SparseRecon, BonePruningStaysWithinTolerance) {
    const Pose pose = MotionGenerator(MotionKind::Wave).poseAt(0.3);
    ReconstructionOptions exact;
    exact.resolution = 48;
    exact.mode = ReconMode::Sparse;
    exact.bonePruning = false;
    ReconstructionOptions pruned = exact;
    pruned.bonePruning = true;
    const auto re = reconstructFromPose(pose, exact);
    const auto rp = reconstructFromPose(pose, pruned);
    ASSERT_TRUE(re.success && rp.success);
    EXPECT_GT(rp.stats.bonesPruned, 0u);
    const double err =
        mesh::pointToMeshError(mesh::sampleSurface(rp.mesh, 5000), re.mesh);
    EXPECT_LT(err, 5e-4);
}

TEST(SparseRecon, DeterministicAcrossWorkerCounts) {
    const Pose pose = MotionGenerator(MotionKind::Collaborate).poseAt(1.2);
    ReconstructionOptions opt;
    opt.resolution = 40;
    opt.mode = ReconMode::Sparse;

    core::ThreadPool one(1), two(2), four(4);
    opt.pool = &one;
    const auto r1 = reconstructFromPose(pose, opt);
    opt.pool = &two;
    const auto r2 = reconstructFromPose(pose, opt);
    opt.pool = &four;
    const auto r4 = reconstructFromPose(pose, opt);
    ASSERT_TRUE(r1.success && r2.success && r4.success);
    expectIdenticalMeshes(r1.mesh, r2.mesh);
    expectIdenticalMeshes(r1.mesh, r4.mesh);
}

TEST(SparseRecon, RespectsDeviceMemoryGate) {
    ReconstructionOptions opt;
    opt.resolution = 4096;  // absurd: even sparse cannot fit
    opt.mode = ReconMode::Sparse;
    opt.device = DeviceProfile::laptop();
    const auto result = reconstructFromPose(Pose{}, opt);
    EXPECT_FALSE(result.success);
    EXPECT_NE(result.failureReason.find("out of memory"), std::string::npos);
}

}  // namespace
}  // namespace semholo::recon
