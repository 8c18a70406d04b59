#include "semholo/mesh/blocksampler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "semholo/core/thread_pool.hpp"

namespace semholo::mesh {

BlockTiling::BlockTiling(Vec3i resolution, int blockSize)
    : res_(resolution), blockSize_(blockSize) {
    if (blockSize < 1 || blockSize > kMaxBlockSize)
        throw std::invalid_argument("block size " + std::to_string(blockSize) +
                                    " outside [1, " + std::to_string(kMaxBlockSize) +
                                    "]");
    auto div = [blockSize](int nodes) { return (nodes + blockSize - 1) / blockSize; };
    blocks_ = {div(res_.x + 1), div(res_.y + 1), div(res_.z + 1)};
}

BlockSampler::BlockSampler(const VoxelGrid& grid, int blockSize)
    : grid_(grid),
      tiling_(grid.resolution(), blockSize),
      table_(static_cast<std::size_t>(tiling_.count())) {
    blockFloats_ = static_cast<std::size_t>(blockSize) * blockSize * blockSize;
    // Unknown until a block is processed: extraction must visit it.
    surfaceFree_.assign(static_cast<std::size_t>(tiling_.count()), 0);
}

geom::AABB BlockSampler::blockGuardBounds(int block) const {
    const BlockTiling::NodeRange r = tiling_.nodes(block);
    const Vec3f cell = grid_.cellSize();
    geom::AABB box;
    box.expand(grid_.nodePosition(r.lo.x, r.lo.y, r.lo.z) - cell);
    box.expand(grid_.nodePosition(r.hi.x, r.hi.y, r.hi.z) + cell);
    return box;
}

void BlockSampler::fillBlock(int block, float value) {
    table_[static_cast<std::size_t>(block)] = {value, kFilled};
}

geom::AABB BlockSampler::nodeBox(Vec3i lo, Vec3i hi) const {
    // Guard bounds are monotone in block coordinates, so the union over
    // the range is the box spanned by the two corner blocks' guards.
    return {blockGuardBounds(tiling_.index(lo)).lo, blockGuardBounds(tiling_.index(hi)).hi};
}

bool BlockSampler::certifyBlock(int block, const ScalarField& field,
                                const FieldSampleOptions& options,
                                ReconCounters& stats) {
    const BlockTiling::NodeRange r = tiling_.nodes(block);
    ++stats.certTests;
    surfaceFree_[static_cast<std::size_t>(block)] = 0;
    if (!options.certificate(blockGuardBounds(block))) return false;
    // Fill with the (correctly signed) value at the owned nodes' centre,
    // which the guard box holds, so extraction cells that straddle this
    // block see a consistent field.
    const Vec3f center =
        (grid_.nodePosition(r.lo.x, r.lo.y, r.lo.z) + grid_.nodePosition(r.hi.x, r.hi.y, r.hi.z)) *
        0.5f;
    fillBlock(block, field(center));
    stats.nodesTotal += r.count();
    ++stats.nodesEvaluated;
    ++stats.blocksSkipped;
    surfaceFree_[static_cast<std::size_t>(block)] = 1;
    return true;
}

void BlockSampler::sampleBlock(int block, const ScalarField& field,
                               const FieldSampleOptions& options, ReconCounters& stats) {
    const BlockTiling::NodeRange r = tiling_.nodes(block);
    const std::uint64_t owned = r.count();
    stats.nodesTotal += owned;

    // The block's B^3 arena floats, addressed x fastest from r.lo; an
    // edge block owns fewer nodes and leaves the rest unused.
    const int bs = tiling_.blockSize();
    float* dst = arena_.get() + table_[static_cast<std::size_t>(block)].slot * blockFloats_;
    auto local = [&](int x, int y, int z) {
        return static_cast<std::size_t>(((z - r.lo.z) * bs + (y - r.lo.y)) * bs + (x - r.lo.x));
    };
    if (options.batch) {
        // SoA batch evaluation: one call for the whole block instead of
        // one std::function dispatch per node. Buffers are thread_local
        // so parallel sampling allocates once per worker.
        static thread_local std::vector<float> xs, ys, zs, vals;
        const auto n = static_cast<std::size_t>(owned);
        xs.resize(n);
        ys.resize(n);
        zs.resize(n);
        vals.resize(n);
        std::size_t i = 0;
        for (int z = r.lo.z; z <= r.hi.z; ++z)
            for (int y = r.lo.y; y <= r.hi.y; ++y)
                for (int x = r.lo.x; x <= r.hi.x; ++x, ++i) {
                    const Vec3f p = grid_.nodePosition(x, y, z);
                    xs[i] = p.x;
                    ys[i] = p.y;
                    zs[i] = p.z;
                }
        options.batch(xs.data(), ys.data(), zs.data(), vals.data(), n);
        i = 0;
        for (int z = r.lo.z; z <= r.hi.z; ++z)
            for (int y = r.lo.y; y <= r.hi.y; ++y)
                for (int x = r.lo.x; x <= r.hi.x; ++x, ++i) dst[local(x, y, z)] = vals[i];
    } else {
        for (int z = r.lo.z; z <= r.hi.z; ++z)
            for (int y = r.lo.y; y <= r.hi.y; ++y)
                for (int x = r.lo.x; x <= r.hi.x; ++x)
                    dst[local(x, y, z)] = field(grid_.nodePosition(x, y, z));
    }
    stats.nodesEvaluated += owned;
    ++stats.blocksSampled;
    surfaceFree_[static_cast<std::size_t>(block)] = 0;
}

void BlockSampler::descend(Vec3i lo, Vec3i hi, int depth,
                           const ScalarField& field,
                           const FieldSampleOptions& options,
                           ReconCounters& stats, std::vector<int>& work,
                           std::vector<Subtree>* split) {
    const bool single = lo.x == hi.x && lo.y == hi.y && lo.z == hi.z;
    if (split != nullptr && (single || depth == kSplitDepth)) {
        // Undecided: descended later as its own (parallel) subtree.
        split->push_back({lo, hi, {}, {}});
        return;
    }
    if (single) {
        // Single block: the leaf certificate, and the sampling pass if it
        // fails.
        if (!certifyBlock(tiling_.index(lo), field, options, stats))
            work.push_back(tiling_.index(lo));
        return;
    }

    // One coarse test covers the whole range: the node box is the union
    // of every descendant's guard box, so a certificate that holds here
    // holds for each block individually — and the field's sign is
    // constant across the box, so one probe's value is a valid fill for
    // every block beneath (extraction cells touching filled nodes
    // lie wholly inside the certified region; see the header proof).
    // Fills write only this node's blocks, so concurrent subtrees never
    // touch the same table or surfaceFree_ entries.
    const geom::AABB box = nodeBox(lo, hi);
    ++stats.certTests;
    if (options.certificate(box)) {
        const float d = field(box.center());
        ++stats.nodesEvaluated;
        for (int z = lo.z; z <= hi.z; ++z)
            for (int y = lo.y; y <= hi.y; ++y)
                for (int x = lo.x; x <= hi.x; ++x) {
                    const int b = tiling_.index({x, y, z});
                    fillBlock(b, d);
                    ++stats.blocksSkipped;
                    ++stats.blocksCoarseFilled;
                    stats.nodesTotal += tiling_.nodes(b).count();
                    surfaceFree_[static_cast<std::size_t>(b)] = 1;
                }
        return;
    }

    // Not certifiable at this scale: recurse into up to eight octants.
    const Vec3i mid{lo.x + (hi.x - lo.x) / 2, lo.y + (hi.y - lo.y) / 2,
                    lo.z + (hi.z - lo.z) / 2};
    for (int oz = 0; oz < 2; ++oz)
        for (int oy = 0; oy < 2; ++oy)
            for (int ox = 0; ox < 2; ++ox) {
                const Vec3i clo{ox ? mid.x + 1 : lo.x, oy ? mid.y + 1 : lo.y,
                                oz ? mid.z + 1 : lo.z};
                const Vec3i chi{ox ? hi.x : mid.x, oy ? hi.y : mid.y,
                                oz ? hi.z : mid.z};
                if (clo.x > chi.x || clo.y > chi.y || clo.z > chi.z) continue;
                descend(clo, chi, depth + 1, field, options, stats, work,
                        split);
            }
}

ReconCounters BlockSampler::sample(const ScalarField& field,
                                   const FieldSampleOptions& options) {
    ReconCounters total;
    const int count = tiling_.count();
    total.blocksTotal = static_cast<std::uint64_t>(count);

    // Runs fn(i, stats) for every i in [0, n) on the pool, in chunks so
    // task overhead stays negligible, and sums the chunks' counters.
    // Chunk boundaries may vary with pool size, but every block's values
    // are a pure function of (field, block), so the store is identical
    // for any worker count; the counters are sums and commute.
    const std::size_t workers = options.pool != nullptr ? options.pool->size() : 1;
    auto inChunks = [&](std::size_t n, auto&& fn) {
        const std::size_t chunks = std::min(n, std::max<std::size_t>(1, workers * 8));
        std::vector<ReconCounters> perChunk(chunks);
        core::parallelFor(options.pool, chunks, [&](std::size_t c) {
            for (std::size_t i = n * c / chunks; i < n * (c + 1) / chunks; ++i)
                fn(i, perChunk[c]);
        });
        for (const ReconCounters& s : perChunk) total += s;
    };

    // The blocks to sample: every block the certificates leave undecided.
    std::vector<int> work;
    work.reserve(static_cast<std::size_t>(count));
    const bool useOctree =
        options.hierarchical && static_cast<bool>(options.certificate) && count > 1;
    if (useOctree) {
        // The top levels decide few nodes, so they run serially and
        // leave up to 64 undecided subtrees, each descended (certificate
        // tests, field probes, fills) as one pool task. A node's verdict
        // depends only on its own range, so every subtree reaches the
        // verdicts the serial descent would; concatenating the subtrees'
        // work lists in split order (the serial DFS order) reproduces the
        // serial work list exactly, and the stats are sums.
        std::vector<Subtree> subtrees;
        const Vec3i blocks = tiling_.blocks();
        descend({0, 0, 0}, {blocks.x - 1, blocks.y - 1, blocks.z - 1}, 0,
                field, options, total, work, &subtrees);
        core::parallelFor(options.pool, subtrees.size(), [&](std::size_t i) {
            Subtree& s = subtrees[i];
            descend(s.lo, s.hi, kSplitDepth, field, options, s.stats, s.work,
                    nullptr);
        });
        for (const Subtree& s : subtrees) {
            total += s.stats;
            work.insert(work.end(), s.work.begin(), s.work.end());
        }
    } else if (options.certificate) {
        // Flat: one leaf test per block, then the undecided ones in order.
        inChunks(static_cast<std::size_t>(count), [&](std::size_t b, ReconCounters& stats) {
            certifyBlock(static_cast<int>(b), field, options, stats);
        });
        for (int b = 0; b < count; ++b)
            if (surfaceFree_[static_cast<std::size_t>(b)] == 0) work.push_back(b);
    } else {
        for (int b = 0; b < count; ++b) work.push_back(b);
    }

    // The work list is final: each of its blocks gets an arena slot, in
    // list order. The arena is allocated here, on the calling thread,
    // not grown by the workers that fill it (per-thread heaps would keep
    // the memory).
    arenaFloats_ = work.size() * blockFloats_;
    arena_ = std::make_unique_for_overwrite<float[]>(arenaFloats_);
    for (std::size_t i = 0; i < work.size(); ++i)
        table_[static_cast<std::size_t>(work[i])].slot = static_cast<std::uint32_t>(i);
    inChunks(work.size(), [&](std::size_t i, ReconCounters& stats) {
        sampleBlock(work[i], field, options, stats);
    });
    return total;
}

}  // namespace semholo::mesh
