#include "semholo/recon/keypoint_recon.hpp"

#include <chrono>

#include "semholo/core/thread_pool.hpp"
#include "semholo/mesh/isosurface.hpp"

namespace semholo::recon {

namespace {

double msSince(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

}  // namespace

int resolveBlockSize(int resolution) {
    // The guard box scales with blockSize * cellSize, and blocks only
    // skip when the certificate clears all of it: at low resolutions
    // 8-node blocks have guards so wide almost nothing certifies
    // (node_eval_fraction ~1 at 32^3/64^3 in BENCH_fig4). Halving the
    // edge halves the guard; the octree keeps the 8x block count from
    // costing 8x certificate tests.
    return resolution <= 160 ? 4 : 8;
}

ReconstructionResult reconstructFromPose(const body::Pose& pose,
                                         const ReconstructionOptions& options) {
    ReconstructionResult result;
    const int blockSize = resolveBlockSize(options.resolution);
    result.gridBytes = reconstructionWorkingSetBytes(options.resolution,
                                                     options.mode, blockSize);
    if (!options.device.fitsInMemory(result.gridBytes)) {
        result.failureReason = "out of memory on " + options.device.name;
        return result;
    }

    // Keypoints carry no garment information: the reconstruction field
    // has no clothing detail (Figure 2's unrecoverable folds). Dense
    // samples the full fold over every capsule.
    const bool dense = options.mode == ReconMode::Dense;
    body::BodyFieldOptions fieldOpt;
    fieldOpt.bonePruning = !dense && options.bonePruning;
    const body::BodyField body = body::makeBodyField(pose, fieldOpt);

    // The extractor emits one vertex per crossing edge (shared boundaries
    // welded by construction) and the capsule field never hits the iso
    // value exactly at grid nodes, so the post-weld pass is pure overhead
    // here — skip it.
    mesh::IsoSurfaceOptions iso;
    iso.weldVertices = false;

    auto t0 = std::chrono::steady_clock::now();
    // Both modes keep their values in the sampler's block store. Dense
    // passes default options: every node, serially, on the default
    // tiling — the single-core baseline the sparse speedup is gated
    // against.
    mesh::FieldSampleOptions sampling;
    if (!dense) {
        sampling.pool = options.pool != nullptr ? options.pool : &core::sharedPool();
        sampling.certificate = body.certificate;
        if (options.simdBatch) sampling.batch = body.batch;
        sampling.hierarchical = options.octreeCertificates;
        // Extraction fans out over the sampling pool; its output is
        // byte-identical for any worker count.
        iso.pool = sampling.pool;
    }
    const mesh::Vec3i res{options.resolution, options.resolution, options.resolution};
    mesh::BlockSampler sampler(mesh::VoxelGrid(body.bounds, res),
                               dense ? mesh::BlockTiling::kDefaultBlockSize : blockSize);
    result.stats = sampler.sample(body.field, sampling);
    result.storeBytes = sampler.storeBytes();
    result.fieldSampleMs = msSince(t0);
    result.stats.bonesPruned = body.stats->bonesPruned();

    t0 = std::chrono::steady_clock::now();
    result.mesh = mesh::extractIsoSurface(sampler, iso, &result.stats);
    result.extractMs = msSince(t0);
    result.success = !result.mesh.empty();
    if (!result.success) result.failureReason = "empty iso-surface";
    return result;
}

ReconstructionResult reconstructFromKeypoints(
    const std::array<geom::Vec3f, kJointCount>& keypoints,
    const std::array<float, kJointCount>& confidence,
    const ReconstructionOptions& options) {
    const auto t0 = std::chrono::steady_clock::now();
    const body::IkResult fit =
        body::fitPoseToKeypoints(keypoints, confidence, options.shape);
    const double ikMs = msSince(t0);

    ReconstructionResult result = reconstructFromPose(fit.pose, options);
    result.ikMs = ikMs;
    return result;
}

}  // namespace semholo::recon
