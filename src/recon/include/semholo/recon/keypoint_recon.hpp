// Keypoint-based mesh reconstruction — the X-Avatar stand-in at the heart
// of the paper's proof-of-concept (section 4).
//
// Input: keypoints (or an SMPL-X-style pose payload). Pipeline: align the
// keypoints to the parametric skeleton (IK), evaluate the skeleton-
// conditioned implicit field on an R^3 grid, and extract the iso-surface.
// The output resolution R in {128, 256, 512, 1024} is the Figure 2/4
// knob: field evaluation is O(R^3) and dominates, which is exactly why
// the paper measures <3 FPS at 128 and <1 FPS at higher resolutions.
#pragma once

#include <array>

#include "semholo/body/body_model.hpp"
#include "semholo/body/ik.hpp"
#include "semholo/capture/keypoints.hpp"
#include "semholo/mesh/recon_counters.hpp"
#include "semholo/recon/device_profile.hpp"

namespace semholo::core {
class ThreadPool;
}

namespace semholo::recon {

using body::kJointCount;
using mesh::TriMesh;

struct ReconstructionOptions {
    // Voxel grid resolution per axis (the paper's "output resolution").
    int resolution{128};
    // Shape parameters assumed for the subject (session constant).
    body::ShapeParams shape{};
    // Device the reconstruction nominally runs on; bounds grid memory.
    DeviceProfile device = DeviceProfile::workstation();
    // Field evaluation pipeline. Sparse tiles the grid into blocks of
    // resolveBlockSize(resolution) nodes, skips blocks the body field's
    // analytic certificate proves surface-free, and fans the rest out
    // over a worker pool; with bonePruning off the mesh is bit-identical
    // to Dense, with it on the surface agrees to ~1e-4 (rounding only).
    // Dense samples every node serially, on
    // BlockTiling::kDefaultBlockSize blocks: the baseline of Figure 4 and
    // of the sparse bit-identity tests. Both modes keep their values in a
    // BlockSampler's block store (B^3 floats per sampled block, one
    // value per certified block) and share the field, the lattice and
    // the extractor.
    ReconMode mode{ReconMode::Sparse};
    // Worker pool for sparse sampling; nullptr uses the process-wide
    // shared pool. Results do not depend on the pool's worker count.
    core::ThreadPool* pool{nullptr};
    // Per-query capsule pruning inside the field (sparse mode only).
    bool bonePruning{true};
    // Evaluate sampled blocks through BodyField::batch (SIMD lanes)
    // instead of one field call per node. Bit-identical output either
    // way; off is the scalar ablation row in bench_fig4.
    bool simdBatch{true};
    // Test skip certificates on a coarse-to-fine octree (sparse mode
    // only). Off reverts to flat per-block tests — the other ablation row.
    bool octreeCertificates{true};
};

// Sparse sampling's block edge length in nodes at a given grid
// resolution: smaller blocks at low resolutions so the guard box
// shrinks enough for certificates to fire — the octree amortizes the
// extra per-block tests.
int resolveBlockSize(int resolution);

struct ReconstructionResult {
    TriMesh mesh;
    bool success{false};
    // "out of memory" when the device profile cannot hold the grid.
    std::string failureReason;
    // Wall-clock cost split (measured on this host).
    double ikMs{0.0};
    double fieldSampleMs{0.0};
    double extractMs{0.0};
    double totalMs() const { return ikMs + fieldSampleMs + extractMs; }
    // Modelled working set the device check ran against
    // (reconstructionWorkingSetBytes).
    std::size_t gridBytes{0};
    // Measured bytes of the sampler's block store (table + arena).
    std::size_t storeBytes{0};
    // Sampler counters, the body field's pruning tally and the
    // extractor's counters.
    mesh::ReconCounters stats;
};

// Reconstruct from raw keypoint observations (includes the IK stage).
ReconstructionResult reconstructFromKeypoints(
    const std::array<geom::Vec3f, kJointCount>& keypoints,
    const std::array<float, kJointCount>& confidence,
    const ReconstructionOptions& options = {});

// Reconstruct from an already-aligned pose payload (the wire format of
// Table 2; skips IK).
ReconstructionResult reconstructFromPose(const body::Pose& pose,
                                         const ReconstructionOptions& options = {});

}  // namespace semholo::recon
