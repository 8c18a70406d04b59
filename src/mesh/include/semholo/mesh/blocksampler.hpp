// Block-sparse, parallel sampling of scalar fields into a block store.
//
// Dense sampling evaluates the field at every grid node — the O(R^3)
// cost that makes Figure 4's FPS collapse cubically. A field that comes
// with an analytic certificate (FieldSampleOptions::certificate, e.g.
// body::BodyField::certificate) lets whole blocks of nodes be skipped:
// certificate(G) is the field's promise that it has no iso-crossing
// anywhere in the axis-aligned box G. The sampler asks it about a
// block's guard box: the box of the block's owned nodes expanded by one
// cell on every side. The expansion is what makes skipping *exact*:
// every extraction cell that reads any node owned by a skipped block
// lies entirely inside the certified guard box, where the true field
// keeps the sign of its value at the block's centre — so the dense path
// would emit no triangles from those cells either. A skipped block reads
// as that centre value at every node (correct sign), sampled nodes are
// exact, and the extracted iso-surface is bit-identical to the dense
// path's. The certificate sees the box itself, not a ball around it:
// the ball that circumscribes a cube reaches sqrt(3) times as far as the
// cube along its face normals, and a skip test over that ball fails
// wherever the surface passes near the block without entering it.
// Without a certificate every block is sampled.
//
// The sampler keeps the values itself, in a block store over its
// BlockTiling: one table entry per block holding either the block's one
// fill value (certified, or filled by a certified octree node) or its
// slot in an arena of B^3 floats per block left to sample. The arena is
// allocated on the calling thread once the certificate descent, leaf
// tests included, has fixed that work list, so with a certificate the
// store's size tracks the surface, not the (R+1)^3 volume. The store is
// the only place node values live: the sampler's VoxelGrid is the
// lattice alone, and the extractor reads the store.
//
// Work fans out over a core::ThreadPool. Each block's values depend only
// on the field and the block, never on scheduling, so results are
// deterministic across worker counts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
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
    // Analytic skip certificate: certificate(region) returns true when
    // the field provably has no iso-crossing anywhere in the box
    // 'region'. Blocks are skip-tested if and only if it is set; an
    // empty certificate samples every node. Like the field, it is called
    // concurrently from pool workers.
    std::function<bool(const geom::AABB& region)> certificate;
    // Optional SoA batch evaluator paired with the field (must return
    // bit-identical values — see BatchScalarField). When set, fully
    // sampled blocks evaluate all their nodes in one call instead of one
    // std::function dispatch per node.
    BatchScalarField batch;
    // Test certificates on a coarse-to-fine octree of block nodes before
    // touching individual blocks: one certificate test at depth k covers
    // up to 8^k blocks, and a certified coarse node fills its whole
    // subtree from a single field probe. Only engages when a certificate
    // is set; verdicts stay exact (a coarse node's box is the union of
    // its descendant blocks' guard boxes). Off runs the flat per-block
    // test.
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
    // Tiling of the field-sampling extractIsoSurface overload and of
    // dense reconstruction: 8-node blocks balance skip granularity
    // against per-block overhead on body-scale grids.
    static constexpr int kDefaultBlockSize = 8;
    // The extractor packs a block's halo sign row (blockSize + 2 nodes)
    // into one 64-bit word.
    static constexpr int kMaxBlockSize = 62;

    // Throws std::invalid_argument when blockSize is outside
    // [1, kMaxBlockSize].
    BlockTiling(Vec3i resolution, int blockSize);

    Vec3i blocks() const { return blocks_; }  // blocks per axis
    int blockSize() const { return blockSize_; }
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

// Tiles a grid's lattice into cubical node blocks, samples a field over
// it sparsely and stores the values block by block. Each sample() pass
// processes every block.
class BlockSampler {
public:
    // Samples over the lattice 'grid' (kept by value). Throws
    // std::invalid_argument when blockSize is outside
    // [1, BlockTiling::kMaxBlockSize].
    BlockSampler(const VoxelGrid& grid, int blockSize);

    const VoxelGrid& grid() const { return grid_; }
    const BlockTiling& tiling() const { return tiling_; }

    // World-space AABB of the block's guard region (node region expanded
    // by one cell): the region the block's skip certificate is asked
    // about.
    geom::AABB blockGuardBounds(int block) const;

    // Sample 'field' into the block store. Every block is either fully
    // evaluated or, if the options' certificate proves it surface-free,
    // filled with its center value. Returns the sampler's counters; the
    // other ReconCounters fields stay zero.
    ReconCounters sample(const ScalarField& field, const FieldSampleOptions& options);

    // One block's stored values: B^3 floats at 'values', addressed
    // ((z - lo.z) * B + (y - lo.y)) * B + (x - lo.x) from its first owned
    // node lo (an edge block owns fewer nodes and leaves the rest
    // unused), or, when 'values' is null, the one value 'fill' that every
    // node of the block reads.
    struct StoredBlock {
        const float* values;
        float fill;
    };
    StoredBlock block(Vec3i coord) const {
        const BlockEntry& e = table_[static_cast<std::size_t>(tiling_.index(coord))];
        if (e.slot == kFilled) return {nullptr, e.fill};
        return {arena_.get() + e.slot * blockFloats_, 0.0f};
    }

    // The stored value of node (x, y, z): 0 before the first sample().
    float value(int x, int y, int z) const {
        const int bs = tiling_.blockSize();
        const Vec3i b{x / bs, y / bs, z / bs};
        const StoredBlock sb = block(b);
        if (sb.values == nullptr) return sb.fill;
        return sb.values[static_cast<std::size_t>(((z - b.z * bs) * bs + (y - b.y * bs)) * bs +
                                                  (x - b.x * bs))];
    }

    // Bytes the block store holds: the table plus the arena.
    std::size_t storeBytes() const {
        return table_.capacity() * sizeof(BlockEntry) + arenaFloats_ * sizeof(float);
    }

    // Per-block surface-free verdicts from the most recent pass: 1 when
    // the block was skip-certified (no iso-crossing anywhere in its guard
    // region), 0 when it was fully sampled or never processed. Sparse
    // extraction uses this to visit only cells that can hold surface.
    const std::vector<std::uint8_t>& surfaceFree() const { return surfaceFree_; }

    // Box of an octree node's block range: the union of the guard boxes
    // of every block in [lo, hi] (block coords, inclusive), so a
    // certificate that holds on it holds for every descendant.
    geom::AABB nodeBox(Vec3i lo, Vec3i hi) const;

private:
    // One block's storage: its fill value, or (slot != kFilled) its
    // B^3 floats at arena_[slot * B^3], x fastest, then y, then z.
    struct BlockEntry {
        float fill{0.0f};
        std::uint32_t slot{kFilled};
    };
    static constexpr std::uint32_t kFilled = ~std::uint32_t{0};

    void fillBlock(int block, float value);
    // The leaf certificate test of one block: on success the block is
    // filled and true returned. Counts into 'stats'.
    bool certifyBlock(int block, const ScalarField& field, const FieldSampleOptions& options,
                      ReconCounters& stats);
    // Evaluate every owned node of a block with an arena slot into it,
    // counting into 'stats'.
    void sampleBlock(int block, const ScalarField& field, const FieldSampleOptions& options,
                     ReconCounters& stats);
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
    // octree depth 'depth', down to single blocks: fills certified
    // nodes' blocks and appends the blocks left to sample to 'work'.
    // With 'split' set, nodes at kSplitDepth (and single blocks above
    // it) are appended there undecided instead.
    void descend(Vec3i lo, Vec3i hi, int depth, const ScalarField& field,
                 const FieldSampleOptions& options, ReconCounters& stats,
                 std::vector<int>& work, std::vector<Subtree>* split);

    VoxelGrid grid_;
    BlockTiling tiling_;
    std::size_t blockFloats_{0};  // B^3: arena floats per block left to sample
    std::vector<BlockEntry> table_;
    std::unique_ptr<float[]> arena_;
    std::size_t arenaFloats_{0};
    std::vector<std::uint8_t> surfaceFree_;
};

}  // namespace semholo::mesh
