#include "semholo/recon/keypoint_recon.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "semholo/body/animation.hpp"
#include "semholo/core/thread_pool.hpp"
#include "semholo/mesh/isosurface.hpp"
#include "semholo/mesh/metrics.hpp"
#include "semholo/mesh/sampling.hpp"

namespace semholo::recon {
namespace {

using body::MotionGenerator;
using body::MotionKind;
using body::Pose;

// FNV-1a over a mesh's bytes: vertex position bits, triangle indices and
// normal bits, each 32-bit word little-endian.
std::uint64_t meshDigest(const mesh::TriMesh& m) {
    std::uint64_t h = 1469598103934665603ull;
    auto word = [&h](std::uint32_t w) {
        for (int i = 0; i < 4; ++i) {
            h ^= (w >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    auto vec = [&word](const geom::Vec3f& v) {
        word(std::bit_cast<std::uint32_t>(v.x));
        word(std::bit_cast<std::uint32_t>(v.y));
        word(std::bit_cast<std::uint32_t>(v.z));
    };
    for (const geom::Vec3f& v : m.vertices) vec(v);
    for (const mesh::Triangle& t : m.triangles) {
        word(t.a);
        word(t.b);
        word(t.c);
    }
    for (const geom::Vec3f& n : m.normals) vec(n);
    return h;
}

TEST(DeviceProfile, MemoryFeasibilityMatchesFigure4) {
    const DeviceProfile laptop = DeviceProfile::laptop();
    const DeviceProfile workstation = DeviceProfile::workstation();
    // Laptop handles 128 and 256 but not 512 or 1024 (paper, section 4.2).
    EXPECT_TRUE(laptop.fitsInMemory(reconstructionWorkingSetBytes(128, ReconMode::Dense)));
    EXPECT_TRUE(laptop.fitsInMemory(reconstructionWorkingSetBytes(256, ReconMode::Dense)));
    EXPECT_FALSE(laptop.fitsInMemory(reconstructionWorkingSetBytes(512, ReconMode::Dense)));
    EXPECT_FALSE(laptop.fitsInMemory(reconstructionWorkingSetBytes(1024, ReconMode::Dense)));
    // Workstation handles all four.
    EXPECT_TRUE(workstation.fitsInMemory(reconstructionWorkingSetBytes(1024, ReconMode::Dense)));
}

TEST(DeviceProfile, HostUncapped) {
    EXPECT_TRUE(DeviceProfile::host().fitsInMemory(1ull << 60));
}

TEST(Reconstruction, MeshBytesMatchPinnedDigestAtEveryWorkerCount) {
    // Pins every position, index and normal bit of a 128^3 sparse
    // reconstruction, whatever the pool size.
    const Pose pose = MotionGenerator(MotionKind::Talk).poseAt(0.5);
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
        core::ThreadPool pool(workers);
        ReconstructionOptions opt;
        opt.resolution = 128;
        opt.pool = &pool;
        const ReconstructionResult r = reconstructFromPose(pose, opt);
        ASSERT_TRUE(r.success) << workers << " workers";
        EXPECT_EQ(meshDigest(r.mesh), 0xbb81398a3d79fb8aull) << workers << " workers";
    }
}

TEST(Reconstruction, MeshBytesMatchPinnedDigestAtBlockSize8) {
    // The pin above covers 4-node sampler blocks; 192^3 samples 8-node
    // blocks. Same Talk frame, every position, index and normal bit.
    ASSERT_EQ(resolveBlockSize(192), 8);
    const Pose pose = MotionGenerator(MotionKind::Talk).poseAt(0.5);
    for (const std::size_t workers : {1u, 4u}) {
        core::ThreadPool pool(workers);
        ReconstructionOptions opt;
        opt.resolution = 192;
        opt.pool = &pool;
        const ReconstructionResult r = reconstructFromPose(pose, opt);
        ASSERT_TRUE(r.success) << workers << " workers";
        EXPECT_EQ(meshDigest(r.mesh), 0x9c314668ba0ac886ull) << workers << " workers";
    }
}

TEST(Reconstruction, SparseWorkingSetModelCoversMeasuredStore) {
    // The device check runs on the model before anything is allocated,
    // so the model must not undercut the block store it stands for, in
    // either mode. Dense samples every node serially, so it runs at the
    // lower resolution only.
    const Pose pose = MotionGenerator(MotionKind::Talk).poseAt(0.5);
    for (const ReconMode mode : {ReconMode::Sparse, ReconMode::Dense}) {
        for (const int res : {128, 256}) {
            if (mode == ReconMode::Dense && res > 128) continue;
            SCOPED_TRACE(::testing::Message()
                         << (mode == ReconMode::Dense ? "dense " : "sparse ") << res);
            ReconstructionOptions opt;
            opt.resolution = res;
            opt.mode = mode;
            const ReconstructionResult r = reconstructFromPose(pose, opt);
            ASSERT_TRUE(r.success);
            EXPECT_GT(r.storeBytes, 0u);
            EXPECT_EQ(r.gridBytes,
                      reconstructionWorkingSetBytes(res, mode, resolveBlockSize(res)));
            EXPECT_GE(r.gridBytes, r.storeBytes);
        }
    }
}

TEST(Reconstruction, DenseMeshBytesMatchPinnedDigest) {
    // Pins the serial every-node baseline that Figure 4 and the sparse
    // bit-identity tests compare against.
    const Pose pose = MotionGenerator(MotionKind::Talk).poseAt(0.5);
    ReconstructionOptions opt;
    opt.resolution = 48;
    opt.mode = ReconMode::Dense;
    const ReconstructionResult r = reconstructFromPose(pose, opt);
    ASSERT_TRUE(r.success);
    EXPECT_EQ(meshDigest(r.mesh), 0xb4377cb850f71d00ull);
}

TEST(IsoSurfaceFromField, DefaultOptionsMeshBytesMatchPinnedDigest) {
    // Pins the field overload with default options (serial, no
    // certificate, welded) on an analytic rippled sphere.
    const mesh::ScalarField field = [](geom::Vec3f p) {
        return p.norm() - 0.8f + 0.05f * std::sin(5.0f * p.x) * std::sin(4.0f * p.y);
    };
    const geom::AABB bounds{{-1.1f, -1.0f, -0.95f}, {1.05f, 1.1f, 1.0f}};
    const mesh::TriMesh m = mesh::extractIsoSurface(field, bounds, 40);
    ASSERT_GT(m.triangleCount(), 1000u);
    EXPECT_EQ(meshDigest(m), 0x6363c39b33bb98a3ull);
}

TEST(Reconstruction, FromPoseProducesClosedMesh) {
    const Pose pose = MotionGenerator(MotionKind::Wave).poseAt(0.5);
    ReconstructionOptions opt;
    opt.resolution = 48;
    const auto result = reconstructFromPose(pose, opt);
    ASSERT_TRUE(result.success) << result.failureReason;
    EXPECT_GT(result.mesh.triangleCount(), 500u);
    EXPECT_EQ(result.mesh.countBoundaryEdges(), 0u);
    EXPECT_GT(result.fieldSampleMs, 0.0);
    EXPECT_GT(result.extractMs, 0.0);
}

TEST(Reconstruction, LaptopFailsAtHighResolutionInDenseMode) {
    ReconstructionOptions opt;
    opt.resolution = 512;
    opt.device = DeviceProfile::laptop();
    opt.mode = ReconMode::Dense;  // legacy path: full (R+1)^3 working set
    const auto result = reconstructFromPose(Pose{}, opt);
    EXPECT_FALSE(result.success);
    EXPECT_NE(result.failureReason.find("out of memory"), std::string::npos);
    EXPECT_TRUE(result.mesh.empty());
}

TEST(Reconstruction, SparseModeFitsLaptopAtHighResolution) {
    // The sparse working set touches only ~surface-proportional blocks, so
    // the resolutions Figure 4 marks laptop-infeasible become feasible.
    const DeviceProfile laptop = DeviceProfile::laptop();
    EXPECT_FALSE(laptop.fitsInMemory(
        reconstructionWorkingSetBytes(512, ReconMode::Dense)));
    EXPECT_TRUE(laptop.fitsInMemory(
        reconstructionWorkingSetBytes(512, ReconMode::Sparse)));
    EXPECT_TRUE(laptop.fitsInMemory(
        reconstructionWorkingSetBytes(1024, ReconMode::Sparse)));
    // Sparse still costs more than the bare grid: blocks near the surface
    // are fully evaluated.
    EXPECT_GT(reconstructionWorkingSetBytes(512, ReconMode::Sparse),
              static_cast<std::uint64_t>(513) * 513 * 513 * 4);
}

TEST(Reconstruction, QualityImprovesWithResolution) {
    // Figure 2: higher output resolution recovers more detail.
    const body::BodyModel model(body::ShapeParams{}, 72);
    const Pose pose = MotionGenerator(MotionKind::Talk).poseAt(0.6);
    const mesh::TriMesh groundTruth = model.deform(pose);

    ReconstructionOptions lo, hi;
    lo.resolution = 24;
    hi.resolution = 72;
    const auto reconLo = reconstructFromPose(pose, lo);
    const auto reconHi = reconstructFromPose(pose, hi);
    ASSERT_TRUE(reconLo.success && reconHi.success);
    const auto errLo = mesh::compareMeshes(groundTruth, reconLo.mesh, 8000);
    const auto errHi = mesh::compareMeshes(groundTruth, reconHi.mesh, 8000);
    EXPECT_LT(errHi.chamfer, errLo.chamfer);
}

TEST(Reconstruction, QualitySaturates) {
    // Figure 2: 512 ~ 1024 — beyond some resolution the missing clothing
    // detail dominates and quality stops improving proportionally.
    const body::BodyModel model(body::ShapeParams{}, 72);
    const Pose pose;
    const mesh::TriMesh groundTruth = model.deform(pose);

    ReconstructionOptions mid, high;
    mid.resolution = 64;
    high.resolution = 96;
    const auto reconMid = reconstructFromPose(pose, mid);
    const auto reconHigh = reconstructFromPose(pose, high);
    ASSERT_TRUE(reconMid.success && reconHigh.success);
    const double errMid = mesh::compareMeshes(groundTruth, reconMid.mesh, 8000).chamfer;
    const double errHigh =
        mesh::compareMeshes(groundTruth, reconHigh.mesh, 8000).chamfer;
    // Improvement from 64 -> 96 is much smaller than 1.5x.
    EXPECT_LT(errHigh, errMid * 1.05);
    EXPECT_GT(errHigh, errMid * 0.4);
}

TEST(Reconstruction, CostScalesRoughlyCubically) {
    // Figure 4: dense reconstruction time is dominated by the O(R^3) field
    // pass. Pinned to Dense — the sparse path's whole point is to break
    // this scaling.
    ReconstructionOptions a, b;
    a.mode = ReconMode::Dense;
    b.mode = ReconMode::Dense;
    a.resolution = 32;
    b.resolution = 64;
    const auto ra = reconstructFromPose(Pose{}, a);
    const auto rb = reconstructFromPose(Pose{}, b);
    ASSERT_TRUE(ra.success && rb.success);
    // Dense evaluates every node once and skips no block.
    EXPECT_EQ(ra.stats.nodesEvaluated, 33u * 33u * 33u);
    EXPECT_EQ(rb.stats.nodesEvaluated, 65u * 65u * 65u);
    EXPECT_EQ(ra.stats.blocksSkipped, 0u);
    EXPECT_EQ(rb.stats.blocksSkipped, 0u);
    const double ratio = rb.fieldSampleMs / std::max(1e-9, ra.fieldSampleMs);
    // 2x resolution => ~8x field cost; allow generous slack for timer noise.
    EXPECT_GT(ratio, 3.0);
}

TEST(Reconstruction, FromKeypointsMatchesGroundTruthPose) {
    const Pose pose = MotionGenerator(MotionKind::Collaborate).poseAt(2.5);
    const auto kps = body::jointKeypoints(pose);
    std::array<float, kJointCount> conf;
    conf.fill(1.0f);
    ReconstructionOptions opt;
    opt.resolution = 48;
    const auto result = reconstructFromKeypoints(kps, conf, opt);
    ASSERT_TRUE(result.success);
    EXPECT_GT(result.ikMs, 0.0);

    // Compare against the direct-from-pose reconstruction.
    const auto direct = reconstructFromPose(pose, opt);
    const auto err = mesh::compareMeshes(direct.mesh, result.mesh, 6000);
    EXPECT_LT(err.chamfer, 0.03);
}

TEST(Reconstruction, MissingFoldsAreTheQualityFloor) {
    // The ground-truth template has clothing folds; reconstruction from
    // keypoints cannot recover them at any resolution (section 4.2).
    const body::BodyModel model(body::ShapeParams{}, 72);
    const Pose pose;
    const mesh::TriMesh groundTruth = model.deform(pose);
    ReconstructionOptions opt;
    opt.resolution = 96;
    const auto recon = reconstructFromPose(pose, opt);
    ASSERT_TRUE(recon.success);
    const auto err = mesh::compareMeshes(groundTruth, recon.mesh, 10000);
    // Error floor at (roughly) the fold amplitude, not at zero.
    EXPECT_GT(err.chamfer, 0.002);
}

}  // namespace
}  // namespace semholo::recon
