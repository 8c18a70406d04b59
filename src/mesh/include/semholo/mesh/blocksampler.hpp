// Block-sparse, parallel sampling of scalar fields into a VoxelGrid.
//
// Dense sampling evaluates the field at every grid node — the O(R^3)
// cost that makes Figure 4's FPS collapse cubically. A field that comes
// with an analytic certificate (FieldSampleOptions::certificate, e.g.
// body::BodyField::certificate) lets whole blocks of nodes be skipped:
// certificate(c, rGuard) is the field's promise that it has no
// iso-crossing within rGuard of the block's owned-node center c, where
// rGuard is the half-diagonal of the block's node region expanded by
// one cell on every side. The expansion is what makes skipping *exact*:
// every extraction cell that reads any node owned by a skipped block
// lies entirely inside the certified guard region, where the true field
// keeps the sign of f(c) — so the dense path would emit no triangles
// from those cells either. Skipped nodes are filled with f(c) (correct
// sign), sampled nodes are exact, and the extracted iso-surface is
// bit-identical to the dense path's. Without a certificate every block
// is sampled.
//
// Work fans out over a core::ThreadPool. Each block's values depend only
// on the field and the block, never on scheduling, so results are
// deterministic across worker counts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "semholo/mesh/recon_counters.hpp"
#include "semholo/mesh/voxelgrid.hpp"

namespace semholo::core {
class ThreadPool;
}  // namespace semholo::core

namespace semholo::mesh {

struct FieldSampleOptions {
    // Worker pool to fan blocks out over; nullptr runs serially. The
    // pool is borrowed, not owned.
    core::ThreadPool* pool{nullptr};
    // Analytic skip certificate: certificate(center, radius) returns
    // true when the field provably has no iso-crossing within 'radius'
    // of 'center'. Blocks are skip-tested if and only if it is set; an
    // empty certificate samples every node. Like the field, it is called
    // concurrently from pool workers.
    std::function<bool(geom::Vec3f center, float radius)> certificate;
    // Optional SoA batch evaluator paired with the field (must return
    // bit-identical values — see BatchScalarField). When set, fully
    // sampled blocks evaluate all their nodes in one call instead of one
    // std::function dispatch per node.
    BatchScalarField batch;
    // Test certificates on a coarse-to-fine octree of block nodes before
    // touching individual blocks: one certificate test at depth k covers
    // up to 8^k blocks, and a certified coarse node fills its whole
    // subtree from a single field probe. Only engages when a certificate
    // is set; verdicts stay exact (a coarse node's ball contains every
    // descendant block's guard region). Off runs the flat per-block test.
    bool hierarchical{true};
};

// The block decomposition shared by BlockSampler and the extractor.
// Per axis, a grid of R cells has R + 1 nodes, and block b owns nodes
// [b*B, min(b*B + B - 1, R)] for block size B, so ceil((R + 1) / B)
// blocks cover every node exactly once. A cell belongs to the block
// owning its low corner node; that block's guard region (its nodes
// plus one cell on every side) wholly contains the cell.
class BlockTiling {
public:
    // Tiling of a grid extracted without a sampler, and of the
    // field-sampling extractIsoSurface overload: 8-node blocks balance
    // skip granularity against per-block overhead on body-scale grids.
    static constexpr int kDefaultBlockSize = 8;
    // The extractor packs a block's halo sign row (blockSize + 2 nodes)
    // into one 64-bit word.
    static constexpr int kMaxBlockSize = 62;

    // Throws std::invalid_argument when blockSize is outside
    // [1, kMaxBlockSize].
    BlockTiling(Vec3i resolution, int blockSize);

    Vec3i blocks() const { return blocks_; }  // blocks per axis
    int count() const { return blocks_.x * blocks_.y * blocks_.z; }

    // Block index <-> block coordinate (x fastest).
    int index(Vec3i c) const { return c.x + blocks_.x * (c.y + blocks_.y * c.z); }
    Vec3i coord(int block) const {
        return {block % blocks_.x, (block / blocks_.x) % blocks_.y,
                block / (blocks_.x * blocks_.y)};
    }

    // The block's owned nodes, inclusive on both ends. The ceiling in the
    // constructor guarantees the last block covers the final (R-th) node
    // plane.
    struct NodeRange {
        Vec3i lo;
        Vec3i hi;
        std::uint64_t count() const {
            return static_cast<std::uint64_t>(hi.x - lo.x + 1) *
                   static_cast<std::uint64_t>(hi.y - lo.y + 1) *
                   static_cast<std::uint64_t>(hi.z - lo.z + 1);
        }
    };
    NodeRange nodes(int block) const {
        const Vec3i b = coord(block);
        const Vec3i lo{b.x * blockSize_, b.y * blockSize_, b.z * blockSize_};
        return {lo,
                {std::min(lo.x + blockSize_ - 1, res_.x), std::min(lo.y + blockSize_ - 1, res_.y),
                 std::min(lo.z + blockSize_ - 1, res_.z)}};
    }

    // The block owning cell (cx, cy, cz), i.e. owning node (cx, cy, cz).
    int cellBlock(int cx, int cy, int cz) const {
        return index({cx / blockSize_, cy / blockSize_, cz / blockSize_});
    }

private:
    Vec3i res_{};
    int blockSize_{kDefaultBlockSize};
    Vec3i blocks_{};
};

// Tiles a VoxelGrid into cubical node blocks and samples a field into it
// sparsely. Each sample() pass processes every block.
class BlockSampler {
public:
    // Throws std::invalid_argument when blockSize is outside
    // [1, BlockTiling::kMaxBlockSize].
    BlockSampler(VoxelGrid& grid, int blockSize);

    const BlockTiling& tiling() const { return tiling_; }

    // World-space AABB of the block's guard region (node region expanded
    // by one cell): the region whose field values the block's skip
    // certificate must cover.
    geom::AABB blockGuardBounds(int block) const;

    // Sample 'field' into the grid. Every block is either fully
    // evaluated or, if the options' certificate proves it surface-free,
    // filled with its center value. Returns the sampler's counters; the
    // other ReconCounters fields stay zero.
    ReconCounters sample(const ScalarField& field, const FieldSampleOptions& options);

    // Per-block surface-free verdicts from the most recent pass: 1 when
    // the block was skip-certified (no iso-crossing anywhere in its guard
    // region), 0 when it was fully sampled or never processed. Sparse
    // extraction uses this to visit only cells that can hold surface.
    const std::vector<std::uint8_t>& surfaceFree() const { return surfaceFree_; }

    // Bounding ball of an octree node's block range: contains the guard
    // region of every block in [lo, hi] (block coords, inclusive), so a
    // certificate that holds on the ball holds for every descendant.
    void nodeBall(Vec3i lo, Vec3i hi, Vec3f& center, float& radius) const;

private:
    void fillBlock(const BlockTiling::NodeRange& r, float value);
    // Evaluate or fill one block, counting into 'stats'.
    void processBlock(int block, const ScalarField& field,
                      const FieldSampleOptions& options, ReconCounters& stats);
    // An octree node left undecided by the serial top levels, with the
    // outputs of its own descent.
    struct Subtree {
        Vec3i lo, hi;
        ReconCounters stats;
        std::vector<int> work;
    };
    // Octree depth at which sample() hands nodes to pool tasks.
    static constexpr int kSplitDepth = 2;
    // Coarse-to-fine certificate descent over block range [lo, hi] at
    // octree depth 'depth': fills certified nodes' blocks and appends
    // blocks needing a leaf pass to 'work'. With 'split' set, nodes at
    // kSplitDepth (and single blocks above it) are appended there
    // undecided instead.
    void descend(Vec3i lo, Vec3i hi, int depth, const ScalarField& field,
                 const FieldSampleOptions& options, ReconCounters& stats,
                 std::vector<int>& work, std::vector<Subtree>* split);

    VoxelGrid& grid_;
    BlockTiling tiling_;
    float guardRadius_{0.0f};  // half-diagonal of a block's guard region
    std::vector<std::uint8_t> surfaceFree_;
};

}  // namespace semholo::mesh
