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

#include <cstdint>
#include <functional>
#include <vector>

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

struct FieldSampleStats {
    std::size_t blocksTotal{};
    std::size_t blocksSampled{};    // fully evaluated this pass
    std::size_t blocksSkipped{};    // certified surface-free, filled
    // Of blocksSkipped, how many were filled from a certified octree
    // ancestor rather than their own leaf test.
    std::size_t blocksCoarseFilled{};
    std::uint64_t nodesEvaluated{}; // field evaluations incl. block centers
    std::uint64_t nodesTotal{};     // grid nodes the dense path would touch
    std::uint64_t certTests{};      // analytic certificate invocations

    void merge(const FieldSampleStats& other);
    double evalFraction() const {
        return nodesTotal > 0
                   ? static_cast<double>(nodesEvaluated) /
                         static_cast<double>(nodesTotal)
                   : 0.0;
    }
};

// Tiles a VoxelGrid into cubical node blocks and samples a field into it
// sparsely. Each sample() pass processes every block.
class BlockSampler {
public:
    BlockSampler(VoxelGrid& grid, int blockSize);

    int blockCount() const { return blocks_.x * blocks_.y * blocks_.z; }
    Vec3i blockGrid() const { return blocks_; }
    int blockSize() const { return blockSize_; }

    // World-space AABB of the block's guard region (node region expanded
    // by one cell): the region whose field values the block's skip
    // certificate must cover.
    geom::AABB blockGuardBounds(int block) const;

    // Sample 'field' into the grid. Every block is either fully
    // evaluated or, if the options' certificate proves it surface-free,
    // filled with its center value.
    FieldSampleStats sample(const ScalarField& field,
                            const FieldSampleOptions& options);

    // Per-block surface-free verdicts from the most recent pass: 1 when
    // the block was skip-certified (no iso-crossing anywhere in its guard
    // region), 0 when it was fully sampled or never processed. Sparse
    // extraction uses this to visit only cells that can hold surface.
    const std::vector<std::uint8_t>& surfaceFree() const { return surfaceFree_; }

    // Flattened block index of the block owning cell (cx, cy, cz) — the
    // block whose guard region wholly contains that cell.
    int cellBlock(int cx, int cy, int cz) const {
        return (cx / blockSize_) +
               blocks_.x * ((cy / blockSize_) + blocks_.y * (cz / blockSize_));
    }

    // Bounding ball of an octree node's block range: contains the guard
    // region of every block in [lo, hi] (block coords, inclusive), so a
    // certificate that holds on the ball holds for every descendant.
    void nodeBall(Vec3i lo, Vec3i hi, Vec3f& center, float& radius) const;

private:
    struct BlockRange {
        Vec3i nodeLo;  // first owned node (inclusive)
        Vec3i nodeHi;  // last owned node (inclusive)
    };
    BlockRange blockRange(int block) const;
    Vec3i blockCoord(int block) const;
    int blockIndex(Vec3i c) const {
        return c.x + blocks_.x * (c.y + blocks_.y * c.z);
    }
    std::uint64_t ownedNodes(int block) const;
    void fillBlock(int block, float value);
    // Evaluate or fill one block; returns nodes evaluated and whether the
    // block was skipped.
    void processBlock(int block, const ScalarField& field,
                      const FieldSampleOptions& options, FieldSampleStats& stats);
    // An octree node left undecided by the serial top levels, with the
    // outputs of its own descent.
    struct Subtree {
        Vec3i lo, hi;
        FieldSampleStats stats;
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
                 const FieldSampleOptions& options, FieldSampleStats& stats,
                 std::vector<int>& work, std::vector<Subtree>* split);

    VoxelGrid& grid_;
    int blockSize_{8};
    Vec3i blocks_{};
    float guardRadius_{0.0f};  // half-diagonal of a block's guard region
    std::vector<std::uint8_t> surfaceFree_;
};

}  // namespace semholo::mesh
