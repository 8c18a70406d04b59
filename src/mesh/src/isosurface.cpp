#include "semholo/mesh/isosurface.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "semholo/core/thread_pool.hpp"
#include "semholo/geometry/simd.hpp"

namespace semholo::mesh {

namespace {

// The six tetrahedra of a cube, as corner indices (cube corners numbered
// with bit 0 = +x, bit 1 = +y, bit 2 = +z). This decomposition shares
// the main diagonal 0-7 so faces of adjacent tetrahedra match up. Every
// tet is the chain 0 ⊂ a ⊂ b ⊂ 7 of corner bit sets, which is what the
// edge addressing below relies on.
constexpr std::array<std::array<int, 4>, 6> kTets{{
    {0, 5, 1, 7},
    {0, 1, 3, 7},
    {0, 3, 2, 7},
    {0, 2, 6, 7},
    {0, 6, 4, 7},
    {0, 4, 5, 7},
}};

// ---------------------------------------------------------------------
// Case table.
//
// The 6-tet decomposition uses 19 edge classes per cell: 12 axis edges,
// 6 face diagonals and the main diagonal. Every tet corner pair (ca,cb)
// is nested (ca ⊂ cb or cb ⊂ ca as bit sets), so each edge is uniquely
// addressed by its *base* node (the corner with fewer bits, ca & cb)
// plus a direction dir = ca ^ cb in {1..7}: seven slots per node, not
// three — the diagonals are first-class citizens here. Cell-local edge
// id = baseCorner * 7 + (dir - 1) with baseCorner in {0..6}.
//
// Per cube sign configuration (8 corner bits, bit set = value < iso) the
// table stores the flattened triangle list as triples of cell-local edge
// ids in the legacy extractor's emission order, plus the inputs of its
// per-triangle orientation test: the cube corners whose centroid is the
// inside reference point and the outward/complemented flag. The winding
// itself is NOT baked: in exact arithmetic the side-test sign is an
// invariant of the configuration, but the legacy test runs in float,
// where a near-degenerate sliver's tiny cross product can carry the
// opposite sign — so emission replays the same float test on the actual
// interpolated vertex positions, reproducing legacy's winding bit for
// bit, slivers included.
//
// The table also says which crossing edges a cell numbers first.
// Vertices are numbered by first use in the canonical triangle stream
// (cells in (z, y, x) order), and the first cell holding the edge from
// node n in direction d is, per axis, max(0, n + d - 1). So a cell whose
// coordinate on an axis is > 0 numbers exactly the edges whose far
// corner (base corner | dir) is set on that axis, and a cell at 0
// numbers all of them. Every tet holding a crossing edge emits a
// triangle on it, so that first cell always uses the edge.
// ---------------------------------------------------------------------

constexpr int kSlotsPerNode = 7;

struct CaseTable {
    struct Tri {
        std::array<std::uint8_t, 3> e;  // cell-local edge ids, legacy order
        std::uint8_t refA, refB;        // corners averaged into insideRef
                                        // (refB = 0xff when only one)
        bool outward;                   // legacy's !complemented flag
    };
    std::array<std::uint16_t, 256> offset{};
    std::array<std::uint8_t, 256> count{};  // triangles per config
    std::vector<Tri> tris;
    // Indexed by the axes on which the cell's coordinate is > 0 (bit 0 =
    // x): bit e of firstEdges is set when the cell numbers cell-local
    // edge e, and firstCount[config] counts those edges that cross.
    std::array<std::uint64_t, 8> firstEdges{};
    std::array<std::array<std::uint8_t, 256>, 8> firstCount{};
};

CaseTable buildCaseTable() {
    CaseTable t;
    t.tris.reserve(2048);

    for (int config = 0; config < 256; ++config) {
        t.offset[config] = static_cast<std::uint16_t>(t.tris.size());
        for (const auto& tet : kTets) {
            int mask = 0;
            for (int i = 0; i < 4; ++i)
                if ((config >> tet[i]) & 1) mask |= 1 << i;
            if (mask == 0 || mask == 15) continue;

            auto edgeId = [&](int i, int j) {
                const int base = tet[i] & tet[j];
                const int dir = tet[i] ^ tet[j];
                return static_cast<std::uint8_t>(base * kSlotsPerNode + dir - 1);
            };

            int insideCount = 0;
            for (int i = 0; i < 4; ++i)
                if (mask & (1 << i)) ++insideCount;

            int m = mask;
            bool complemented = false;
            if (insideCount > 2) {
                m = (~m) & 15;
                complemented = true;
            }
            // The legacy inside reference is the centroid of the corners
            // selected by m (1 or 2 of them after complementing).
            std::uint8_t refA = 0xff, refB = 0xff;
            for (int i = 0; i < 4; ++i) {
                if (m & (1 << i)) {
                    if (refA == 0xff)
                        refA = static_cast<std::uint8_t>(tet[i]);
                    else
                        refB = static_cast<std::uint8_t>(tet[i]);
                }
            }
            const bool outward = !complemented;

            using EP = std::pair<int, int>;
            auto emit = [&](EP ea, EP eb, EP ec) {
                t.tris.push_back({{edgeId(ea.first, ea.second),
                                   edgeId(eb.first, eb.second),
                                   edgeId(ec.first, ec.second)},
                                  refA,
                                  refB,
                                  outward});
            };

            switch (m) {
                case 1:
                    emit({0, 1}, {0, 2}, {0, 3});
                    break;
                case 2:
                    emit({1, 0}, {1, 2}, {1, 3});
                    break;
                case 4:
                    emit({2, 0}, {2, 1}, {2, 3});
                    break;
                case 8:
                    emit({3, 0}, {3, 1}, {3, 2});
                    break;
                case 3:
                    emit({0, 2}, {0, 3}, {1, 3});
                    emit({0, 2}, {1, 3}, {1, 2});
                    break;
                case 5:
                    emit({0, 1}, {2, 1}, {2, 3});
                    emit({0, 1}, {2, 3}, {0, 3});
                    break;
                case 6:
                    emit({1, 0}, {2, 0}, {2, 3});
                    emit({1, 0}, {2, 3}, {1, 3});
                    break;
                case 9:
                    emit({0, 1}, {3, 1}, {3, 2});
                    emit({0, 1}, {3, 2}, {0, 2});
                    break;
                case 10:
                    emit({1, 0}, {3, 0}, {3, 2});
                    emit({1, 0}, {3, 2}, {1, 2});
                    break;
                case 12:
                    emit({2, 0}, {3, 0}, {3, 1});
                    emit({2, 0}, {3, 1}, {2, 1});
                    break;
                default:
                    break;
            }
        }
        t.count[config] =
            static_cast<std::uint8_t>(t.tris.size() - t.offset[config]);
    }

    for (int axes = 0; axes < 8; ++axes) {
        for (int base = 0; base < 7; ++base) {
            for (int dir = 1; dir < 8; ++dir) {
                const int far = base | dir;
                if ((base & dir) != 0 || (far & axes) != axes) continue;
                t.firstEdges[axes] |= 1ull << (base * kSlotsPerNode + dir - 1);
                for (int config = 0; config < 256; ++config)
                    if (((config >> base) & 1) != ((config >> far) & 1))
                        ++t.firstCount[axes][config];
            }
        }
    }
    return t;
}

const CaseTable& caseTable() {
    static const CaseTable table = buildCaseTable();
    return table;
}

// ---------------------------------------------------------------------
// Block-local extractor.
//
// The grid is tiled into the sampler's blocks and the work goes out in
// z-slabs of blocks: a slab's blocks own node rows z in [lo, hi] of
// every y, and no other slab does, so a slab sums, scans and hands out
// its own rows' offsets. Every step runs per slab on the pool, with a
// barrier between steps. Serial are only the work-block count that
// sizes each slab's storage, the scan over the slab totals and the sort
// of the few degenerate triangles.
//
//   pass 1   per-block node sign rows (one 64-bit word of (value < iso)
//            bits per (z, y) row, SIMD compares over the contiguous x
//            runs), then the active-cell list and exact per-row counts
//            of crossing edges, triangles and first-used vertices, all
//            from word arithmetic. The slab sums its rows.
//   prefix   the slab totals are scanned in slab order; each slab then
//            scans its own rows and hands out its blocks' row segments.
//   pass 2a  every owned crossing edge's interpolated position, written
//            at its lattice index (below).
//   pass 2b  triangles from the case table into their canonical slots,
//            positions read back from pass 2a. One cross product per
//            triangle serves the winding (the legacy float side test,
//            replayed), the degenerate test (area 0.5 |n|) and the face
//            normal (after a flip, the final winding's cross product is
//            the exact negation). A vertex takes its final index in the
//            cell that uses it first (see the case-table header).
//   pass 2c  triangle indices rewritten from lattice to final numbering,
//            and every triangle moved down past the degenerate ones
//            before it (area < 1e-12, TriMesh::removeDegenerateTriangles'
//            test): numbered first, then dropped, as in the legacy
//            extractor.
//   normals  each slab sums the face normals of the vertices its cells
//            numbered. Only its own triangles and the next cell layer's
//            can use them; it scans those in ascending order, which is
//            TriMesh::computeVertexNormals' summation order.
// Writes are disjoint and every sum runs in a fixed order, so the output
// is byte-identical for any worker count, and a null or one-worker pool
// runs the same code inline.
//
// Output ordering is canonical and decomposition-independent:
//   triangles  ascending (z, y, x) over cells, kTets / case-table order
//              within a cell;
//   vertices   by first use in that triangle stream.
// The passes address vertices in lattice order, ascending (z, y, x,
// slot) over crossing in-range edges with slot = direction - 1 of the
// edge's base node: convenient for disjoint writes, but it spreads a
// triangle's indices across whole grid rows. First-use order keeps the
// index deltas the mesh codec's varint stage feeds on as local as the
// legacy extractor's. A crossing edge's lattice vertex is emitted by the
// block owning its base node (node / blockSize per axis), so the vertex
// set is exactly "one vertex per crossing edge" — the same set the
// legacy hash dedup produces.
//
// Sign rows cover nodes [lo, min(hi + 2, res)] per axis: pass 2b looks
// up crossing edges based at halo nodes (hi + 1) owned by neighbour
// blocks, and *their* preceding slots reach endpoints at hi + 2. Node
// values are read from the sampler's block store: a halo row crosses
// into the neighbour blocks' runs, and a certified neighbour is one fill
// value. Halo overlap costs a few redundant compares, not
// synchronisation.
// ---------------------------------------------------------------------

inline std::uint64_t maskBits(int n) {
    return n >= 64 ? ~0ull : ((1ull << n) - 1ull);
}

struct BlockGeom {
    Vec3i lo{};     // first owned node, per axis
    Vec3i owned{};  // owned node counts (vertex rows are owned.z * owned.y)
    Vec3i walk{};   // pass-2b node walk extent: min(hi + 1, res) - lo + 1
    Vec3i halo{};   // sign-row extent: min(hi + 2, res) - lo + 1
    Vec3i cells{};  // owned cell counts
};

// The extractor's view of one tiling block: its owned nodes and the
// walk / halo / cell extents derived from them at the grid's edge.
inline BlockGeom blockGeom(const BlockTiling& tiling, const Vec3i& res, std::size_t b) {
    const BlockTiling::NodeRange r = tiling.nodes(static_cast<int>(b));
    const Vec3i& hi = r.hi;
    BlockGeom g;
    g.lo = r.lo;
    g.owned = {hi.x - g.lo.x + 1, hi.y - g.lo.y + 1, hi.z - g.lo.z + 1};
    g.walk = {std::min(hi.x + 1, res.x) - g.lo.x + 1, std::min(hi.y + 1, res.y) - g.lo.y + 1,
              std::min(hi.z + 1, res.z) - g.lo.z + 1};
    g.halo = {std::min(hi.x + 2, res.x) - g.lo.x + 1, std::min(hi.y + 2, res.y) - g.lo.y + 1,
              std::min(hi.z + 2, res.z) - g.lo.z + 1};
    g.cells = {std::max(0, std::min(hi.x, res.x - 1) - g.lo.x + 1),
               std::max(0, std::min(hi.y, res.y - 1) - g.lo.y + 1),
               std::max(0, std::min(hi.z, res.z - 1) - g.lo.z + 1)};
    return g;
}

// Bit j = (p[j] < iso) for the n <= 64 contiguous values at p; the
// compare vectorises.
inline std::uint64_t signBits(const float* p, int n, float iso) {
    constexpr int W = 4;
    using V = geom::simd::f32xN<W>;
    const V isoW = V::broadcast(iso);
    std::uint64_t w = 0;
    int x = 0;
    for (; x + W <= n; x += W) {
        const auto m = geom::simd::cmpLt(V::load(p + x), isoW);
        std::int32_t lanes[W];
        static_assert(sizeof(m) == sizeof(lanes));
        std::memcpy(lanes, &m, sizeof(lanes));
        for (int j = 0; j < W; ++j) w |= static_cast<std::uint64_t>(lanes[j] & 1) << (x + j);
    }
    for (; x < n; ++x) w |= static_cast<std::uint64_t>(p[x] < iso ? 1u : 0u) << x;
    return w;
}

// Crossing bits of one (z, y) node row: bit i of cw[s] is set iff the
// edge from node lo.x + i in direction s + 1 crosses the iso value and
// both endpoints are grid nodes. 'nodeBits' limits the bit range.
inline void crossWords(const std::uint64_t* rows, const BlockGeom& g, int lz, int ly,
                       int nodeBits, std::array<std::uint64_t, 7>& cw) {
    const std::uint64_t row = rows[static_cast<std::size_t>(lz) * g.halo.y + ly];
    const std::uint64_t nodeMask = maskBits(nodeBits);
    for (int s = 0; s < kSlotsPerNode; ++s) {
        const int dir = s + 1;
        const int dx = dir & 1;
        const int dy = (dir >> 1) & 1;
        const int dz = (dir >> 2) & 1;
        if (lz + dz >= g.halo.z || ly + dy >= g.halo.y) {
            cw[s] = 0;
            continue;
        }
        std::uint64_t w =
            (row ^ (rows[static_cast<std::size_t>(lz + dz) * g.halo.y + (ly + dy)] >> dx)) &
            nodeMask;
        if (dx != 0) w &= maskBits(g.halo.x - 1);
        cw[s] = w;
    }
}

// The node values one work block's passes read: its owned nodes and its
// halo, which passes the block by up to two nodes per axis. Each source
// block is a base pointer with node, row and slice strides: a stored
// block's B^3 floats (strides 1, B and B^2) or a fill-valued block's one
// value (strides 0).
class BlockValues {
public:
    BlockValues(const BlockSampler& store, const BlockGeom& g, Vec3i bc)
        : bs_(store.tiling().blockSize()) {
        const auto bs = static_cast<std::size_t>(bs_);
        // The last block the halo reaches on each axis (the halo is at
        // most bs + 2 nodes).
        auto last = [this](int halo) { return halo > bs_ ? (halo > 2 * bs_ ? 2 : 1) : 0; };
        const Vec3i d{last(g.halo.x), last(g.halo.y), last(g.halo.z)};
        for (int dz = 0; dz <= d.z; ++dz)
            for (int dy = 0; dy <= d.y; ++dy)
                for (int dx = 0; dx <= d.x; ++dx) {
                    const std::size_t k = index(dx, dy, dz);
                    const BlockSampler::StoredBlock b =
                        store.block({bc.x + dx, bc.y + dy, bc.z + dz});
                    if (b.values != nullptr) {
                        src_[k] = {b.values, 1, bs, bs * bs};
                    } else {
                        fills_[k] = b.fill;
                        src_[k] = {&fills_[k], 0, 0, 0};
                    }
                }
    }

    // Sources may point into the object itself.
    BlockValues(const BlockValues&) = delete;
    BlockValues& operator=(const BlockValues&) = delete;

    // The node at offset (lx, ly, lz), each component at most bs: an
    // owned node or one a crossing edge reaches in the next block.
    float at(int lx, int ly, int lz) const {
        const int dx = lx >= bs_ ? 1 : 0, dy = ly >= bs_ ? 1 : 0, dz = lz >= bs_ ? 1 : 0;
        const Source& s = src_[index(dx, dy, dz)];
        return read(s, ly - dy * bs_, lz - dz * bs_)[static_cast<std::size_t>(lx - dx * bs_) *
                                                     s.node];
    }

    // The block's halo sign rows into rows[0, halo.z * halo.y): bit j of
    // row (rz, ry) = (value at offset (j, ry, rz) < iso). Rows are at most
    // bs + 2 <= 64 bits, filled source by source: each source covers up
    // to bs rows per axis and a run of up to bs bits of each row, and a
    // fill-valued one compares once.
    void signRows(const BlockGeom& g, float iso, std::uint64_t* rows) const {
        std::fill_n(rows, static_cast<std::size_t>(g.halo.z) * g.halo.y, 0);
        for (int z0 = 0, dz = 0; z0 < g.halo.z; z0 += bs_, ++dz)
            for (int y0 = 0, dy = 0; y0 < g.halo.y; y0 += bs_, ++dy)
                for (int x0 = 0, dx = 0; x0 < g.halo.x; x0 += bs_, ++dx) {
                    const Source& src = src_[index(dx, dy, dz)];
                    const int nx = std::min(bs_, g.halo.x - x0);
                    const int ny = std::min(bs_, g.halo.y - y0);
                    const int nz = std::min(bs_, g.halo.z - z0);
                    const std::uint64_t fill = *src.base < iso ? maskBits(nx) << x0 : 0;
                    for (int lz = 0; lz < nz; ++lz) {
                        std::uint64_t* r =
                            rows + static_cast<std::size_t>(z0 + lz) * g.halo.y + y0;
                        if (src.node == 0)
                            for (int ly = 0; ly < ny; ++ly) r[ly] |= fill;
                        else
                            for (int ly = 0; ly < ny; ++ly)
                                r[ly] |= signBits(read(src, ly, lz), nx, iso) << x0;
                    }
                }
    }

private:
    struct Source {
        const float* base;
        std::size_t node, row, slice;
    };
    static std::size_t index(int dx, int dy, int dz) {
        return static_cast<std::size_t>((dz * 3 + dy) * 3 + dx);
    }
    // Node row (ly, lz) of a source block.
    static const float* read(const Source& s, int ly, int lz) {
        return s.base + static_cast<std::size_t>(lz) * s.slice +
               static_cast<std::size_t>(ly) * s.row;
    }

    int bs_;
    std::array<Source, 27> src_;  // index(dx, dy, dz)
    std::array<float, 27> fills_;  // the fill-valued sources' values
};

// A float triple for scratch arrays that a pass fills completely before
// any read: unlike Vec3f it is trivially constructible, so allocating
// one skips the zero fill.
struct Float3 {
    float x, y, z;
};

// One block on the work list, and where its pass-1 results sit in its
// slab's arrays.
struct WorkBlock {
    std::uint32_t index;       // tiling block index
    std::uint32_t signOff;     // Slab::signRows
    std::uint32_t cellBegin;   // Slab::cells
    std::uint32_t cellEnd;
    std::uint32_t nodeRowOff;  // Slab::vertRows, one entry per owned node row
    std::uint32_t cellRowOff;  // Slab::triRows / newRows, one per owned cell row

    // Where the block's owned node row / cell row (lz, ly) sits.
    std::size_t ownNodeRow(const BlockGeom& g, int lz, int ly) const {
        return nodeRowOff + static_cast<std::size_t>(lz * g.owned.y + ly);
    }
    std::size_t ownCellRow(const BlockGeom& g, int lz, int ly) const {
        return cellRowOff + static_cast<std::size_t>(lz * g.cells.y + ly);
    }
};

// Pass 2b's edge map slot of the edge from walk node (lx, ly, lz) in
// direction slot + 1.
inline std::size_t edgeSlot(const BlockGeom& g, int lx, int ly, int lz, int slot) {
    return static_cast<std::size_t>((lz * g.walk.y + ly) * g.walk.x + lx) * kSlotsPerNode +
           static_cast<std::size_t>(slot);
}

// One z-slab of tiling blocks. The arrays Extraction::reserve sizes on
// the calling thread live in the extraction's arena; the ones the
// workers grow stay on the heap.
struct Slab {
    explicit Slab(std::pmr::memory_resource* arena)
        : blocks(arena), signRows(arena), vertRows(arena), triRows(arena), newRows(arena) {}

    std::pmr::vector<WorkBlock> blocks;        // not certified, ascending index
    std::pmr::vector<std::uint64_t> signRows;  // halo sign bits, (z, y) rows
    std::vector<std::uint32_t> cells;          // packed active cells + configs
    // Per block row, pass 1 writes a count and the prefix replaces it
    // with the row segment's first global index.
    std::pmr::vector<std::uint32_t> vertRows;  // crossing edges per node row
    std::pmr::vector<std::uint32_t> triRows;   // triangles per cell row
    std::pmr::vector<std::uint32_t> newRows;   // vertices numbered per cell row
    std::vector<std::uint32_t> degenerate;  // pass 2b: triangles to drop
    std::vector<Triangle> tail;  // last triangles, before later slabs move over them
    // Pass 1 writes totals; the prefix replaces them with the slab's
    // first global index.
    std::uint64_t verts{0}, tris{0}, news{0};
    std::uint64_t blocksExtracted{0}, activeCells{0};
};

// Pass-1 core: appends the block's per-row counts and active cells to
// its slab, all from the sign rows (no field values touched). Returns
// the block's crossing-edge count.
std::uint32_t computeTopology(const BlockGeom& g, const CaseTable& table,
                              const std::uint64_t* rows, Slab& S) {
    std::array<std::uint64_t, 7> cw;
    std::uint32_t vCount = 0;
    for (int lz = 0; lz < g.owned.z; ++lz) {
        for (int ly = 0; ly < g.owned.y; ++ly) {
            crossWords(rows, g, lz, ly, g.owned.x, cw);
            std::uint32_t c = 0;
            for (int s = 0; s < kSlotsPerNode; ++s)
                c += static_cast<std::uint32_t>(std::popcount(cw[s]));
            S.vertRows.push_back(c);
            vCount += c;
        }
    }

    const std::uint64_t cellMask = maskBits(g.cells.x);
    for (int lz = 0; lz < g.cells.z; ++lz) {
        for (int ly = 0; ly < g.cells.y; ++ly) {
            const std::uint64_t a0 = rows[static_cast<std::size_t>(lz) * g.halo.y + ly];
            const std::uint64_t a1 = rows[static_cast<std::size_t>(lz) * g.halo.y + ly + 1];
            const std::uint64_t a2 = rows[static_cast<std::size_t>(lz + 1) * g.halo.y + ly];
            const std::uint64_t a3 =
                rows[static_cast<std::size_t>(lz + 1) * g.halo.y + ly + 1];
            const std::uint64_t allIn =
                a0 & (a0 >> 1) & a1 & (a1 >> 1) & a2 & (a2 >> 1) & a3 & (a3 >> 1);
            const std::uint64_t allOut = ~a0 & (~a0 >> 1) & ~a1 & (~a1 >> 1) & ~a2 &
                                         (~a2 >> 1) & ~a3 & (~a3 >> 1);
            std::uint64_t mixed = ~(allIn | allOut) & cellMask;
            // Axes on which the cells' coordinate is > 0, for the
            // first-use counts; x is per cell.
            const int rowAxes = (g.lo.y + ly > 0 ? 2 : 0) | (g.lo.z + lz > 0 ? 4 : 0);
            std::uint32_t rowT = 0;
            std::uint32_t rowN = 0;
            while (mixed != 0) {
                const int lx = std::countr_zero(mixed);
                mixed &= mixed - 1;
                const int config =
                    static_cast<int>((a0 >> lx) & 1) |
                    (static_cast<int>((a0 >> (lx + 1)) & 1) << 1) |
                    (static_cast<int>((a1 >> lx) & 1) << 2) |
                    (static_cast<int>((a1 >> (lx + 1)) & 1) << 3) |
                    (static_cast<int>((a2 >> lx) & 1) << 4) |
                    (static_cast<int>((a2 >> (lx + 1)) & 1) << 5) |
                    (static_cast<int>((a3 >> lx) & 1) << 6) |
                    (static_cast<int>((a3 >> (lx + 1)) & 1) << 7);
                S.cells.push_back(static_cast<std::uint32_t>(lx) |
                                  (static_cast<std::uint32_t>(ly) << 6) |
                                  (static_cast<std::uint32_t>(lz) << 12) |
                                  (static_cast<std::uint32_t>(config) << 18));
                rowT += table.count[config];
                rowN += table.firstCount[rowAxes | (g.lo.x + lx > 0 ? 1 : 0)][config];
            }
            S.triRows.push_back(rowT);
            S.newRows.push_back(rowN);
        }
    }
    return vCount;
}

// Where one extraction's working arrays live: a block bump-allocated on
// the calling thread and released, whole, when the call returns; a call
// that outgrows it draws further blocks from the heap. The block is the
// power of two at or above twice what the thread's previous extraction
// used: the next frame's surface fits, and the frame-to-frame drift of
// the surface leaves the block's size, and so the allocator's handling
// of it, unchanged. Room a call never writes costs address space, not
// resident memory. One block replaces an allocation per array (about
// 170 at 128^3), and on glibc it also keeps a frame loop's heap
// resident: glibc raises its trim threshold to twice the largest freed
// block it had mapped (mallopt(3), M_MMAP_THRESHOLD), so freeing one
// block of the frame's whole working set keeps the frame's other churn
// (the output mesh, the sampler's store) from handing the heap back to
// the kernel, only for the next frame to page it in again.
class ExtractionArena final : public std::pmr::memory_resource {
public:
    explicit ExtractionArena(std::size_t bytes)
        : block_(bytes > 0 ? std::make_unique_for_overwrite<std::byte[]>(bytes) : nullptr),
          arena_(block_.get(), bytes, std::pmr::new_delete_resource()) {}

    // Room for n Ts that the caller writes before reading.
    template <typename T>
    T* array(std::size_t n) {
        return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
    }
    // Bytes handed out so far.
    std::size_t used() const { return used_; }

private:
    void* do_allocate(std::size_t bytes, std::size_t align) override {
        // Pass 1's workers append within the capacity reserve() gave
        // them; the lock makes an append past it safe, not a race.
        const std::lock_guard lock(mutex_);
        used_ += bytes;
        return arena_.allocate(bytes, align);
    }
    void do_deallocate(void*, std::size_t, std::size_t) override {}
    bool do_is_equal(const std::pmr::memory_resource& other) const noexcept override {
        return this == &other;
    }

    std::unique_ptr<std::byte[]> block_;
    std::pmr::monotonic_buffer_resource arena_;
    std::mutex mutex_;
    std::size_t used_{0};
};

// The state one extraction's passes share. Every pass is a member run
// for one slab at a time; the slabs of one pass may run concurrently.
struct Extraction {
    Extraction(const BlockSampler& sampler, const IsoSurfaceOptions& options, TriMesh& mesh,
               ExtractionArena& arena)
        : store(sampler),
          grid(sampler.grid()),
          res(grid.resolution()),
          tiling(sampler.tiling()),
          table(caseTable()),
          iso(options.isoValue),
          surfaceFree(sampler.surfaceFree()),
          slot(static_cast<std::size_t>(tiling.count()), &arena),
          vertRowBase(static_cast<std::size_t>(res.z + 1) * (res.y + 1), 0, &arena),
          triRowBase(static_cast<std::size_t>(res.z) * res.y, 0, &arena),
          newRowBase(triRowBase.size(), 0, &arena),
          layerTri(static_cast<std::size_t>(res.z) + 1, &arena),
          layerVert(layerTri.size(), &arena),
          drop(&arena),
          out(mesh) {
        const auto n = static_cast<std::size_t>(tiling.blocks().z);
        slabs.reserve(n);
        for (std::size_t s = 0; s < n; ++s) slabs.emplace_back(&arena);
    }

    // Slab s owns node rows [lo.z, hi.z] and cell layers [z0, z1).
    BlockTiling::NodeRange slabNodes(std::size_t s) const {
        return tiling.nodes(tiling.index({0, 0, static_cast<int>(s)}));
    }
    std::pair<int, int> slabLayers(std::size_t s) const {
        const BlockTiling::NodeRange r = slabNodes(s);
        return {std::min(r.lo.z, res.z), std::min(r.hi.z + 1, res.z)};
    }
    std::size_t nodeRow(int z, int y) const {
        return static_cast<std::size_t>(z) * (res.y + 1) + static_cast<std::size_t>(y);
    }
    std::size_t cellRow(int z, int y) const {
        return static_cast<std::size_t>(z) * res.y + static_cast<std::size_t>(y);
    }
    Vec3f position(std::uint32_t lattice) const {
        const Float3& p = latticePos[lattice];
        return {p.x, p.y, p.z};
    }
    std::size_t dropsBefore(std::uint32_t t) const {
        return static_cast<std::size_t>(std::lower_bound(drop.begin(), drop.end(), t) -
                                        drop.begin());
    }
    void reserve(std::size_t s);
    void checkSound(const BlockGeom& g, Vec3i bc, const std::uint64_t* rows) const;
    void topology(std::size_t s);
    void offsets(std::size_t s);
    void positions(std::size_t s);
    void triangles(std::size_t s);
    void saveTail(std::size_t s);
    void renumber(std::size_t s);
    void normals(std::size_t s);

    const BlockSampler& store;  // where node values are read
    const VoxelGrid& grid;
    const Vec3i res;
    const BlockTiling tiling;
    const CaseTable& table;
    const float iso;
    // Work list: every block not certified surface-free. Certified
    // blocks hold no crossing edge anywhere in their node set (the
    // certificate's guard box covers one node ring beyond the block),
    // so skipping them drops neither vertices nor triangles.
    const std::vector<std::uint8_t>& surfaceFree;
    std::vector<Slab> slabs;
    std::pmr::vector<std::int32_t> slot;  // block -> place in its slab's work list, or -1
    // Per (z, y) row: pass 1 sums counts, the prefix turns them into the
    // row's first global index and then the next free one.
    std::pmr::vector<std::uint32_t> vertRowBase;
    std::pmr::vector<std::uint32_t> triRowBase;
    std::pmr::vector<std::uint32_t> newRowBase;
    // First triangle and first numbered vertex of each cell layer.
    std::pmr::vector<std::uint32_t> layerTri;
    std::pmr::vector<std::uint32_t> layerVert;
    Float3* latticePos{nullptr};  // pass 2a, by lattice index
    std::uint32_t* remap{nullptr};  // pass 2b: lattice -> first-use index
    Float3* faceNormals{nullptr};  // pass 2b, by pass-2b triangle slot
    std::pmr::vector<std::uint32_t> drop;  // degenerate pass-2b slots, ascending
    TriMesh& out;
};

// Room for the slab's pass-1 arrays, sized for full blocks, in the
// arena. Grown by the pool's workers instead, they would spread over the
// workers' heaps and raise the process's resident memory by megabytes.
void Extraction::reserve(std::size_t s) {
    const BlockTiling::NodeRange full = tiling.nodes(0);
    const int ny = full.hi.y - full.lo.y + 1;
    const int nz = full.hi.z - full.lo.z + 1;
    const Vec3i bg = tiling.blocks();
    std::size_t work = 0;
    for (int by = 0; by < bg.y; ++by)
        for (int bx = 0; bx < bg.x; ++bx)
            if (surfaceFree[static_cast<std::size_t>(
                    tiling.index({bx, by, static_cast<int>(s)}))] == 0)
                ++work;
    Slab& S = slabs[s];
    S.blocks.reserve(work);
    S.signRows.reserve(work * static_cast<std::size_t>((nz + 2) * (ny + 2)));
    S.vertRows.reserve(work * static_cast<std::size_t>(nz * ny));
    S.triRows.reserve(work * static_cast<std::size_t>(nz * ny));
    S.newRows.reserve(work * static_cast<std::size_t>(nz * ny));
}

// Pass 1's guard against an unsound store. A certified block's guard box
// holds no crossing, so each node of it that a work block's sign rows
// cover reads the certified block's sign. The passes rely on that:
// every crossing edge a work block's cells use must be owned by a work
// block, which counts it, and every one a work block owns must be first
// used by a work block's cell, which numbers it. Otherwise pass 2 would
// index past the arrays the counts sized. So for each certified
// neighbour N = W + e of work block W, with e in {0, 1}^3 (N owns nodes
// of W's cells) or e in {-1, 0}^3 (N owns cells that use W's nodes),
// the nodes of W's cells inside N's guard box are checked: per axis the
// first node where e = -1, the last where e = +1, all where e = 0.
void Extraction::checkSound(const BlockGeom& g, Vec3i bc, const std::uint64_t* rows) const {
    // The bits N's sign requires set and clear, per row class on y and
    // on z: 0 = the first row, 1 = an inner one, 2 = the last (past the
    // owned rows).
    std::uint64_t set[3][3]{}, clear[3][3]{};
    const Vec3i bg = tiling.blocks();
    bool any = false;
    // Offset e is sign times the axes in 'axes': the seven in {-1, 0}^3
    // and the seven in {0, 1}^3.
    for (int axes = 1; axes < 8; ++axes)
        for (const int sign : {-1, 1}) {
            const Vec3i e{sign * (axes & 1), sign * ((axes >> 1) & 1), sign * (axes >> 2)};
            const Vec3i n{bc.x + e.x, bc.y + e.y, bc.z + e.z};
            if (n.x < 0 || n.y < 0 || n.z < 0 || n.x >= bg.x || n.y >= bg.y || n.z >= bg.z ||
                surfaceFree[static_cast<std::size_t>(tiling.index(n))] == 0)
                continue;
            const std::uint64_t bits =
                e.x < 0 ? 1 : e.x > 0 ? 1ull << g.owned.x : maskBits(g.walk.x);
            auto& want = store.block(n).fill < iso ? set : clear;
            for (int cz = e.z > 0 ? 2 : 0; cz <= (e.z < 0 ? 0 : 2); ++cz)
                for (int cy = e.y > 0 ? 2 : 0; cy <= (e.y < 0 ? 0 : 2); ++cy)
                    want[cz][cy] |= bits;
            any = true;
        }
    if (!any) return;
    auto rowClass = [](int l, int owned) { return l == 0 ? 0 : l < owned ? 1 : 2; };
    for (int lz = 0; lz < g.walk.z; ++lz) {
        const int cz = rowClass(lz, g.owned.z);
        for (int ly = 0; ly < g.walk.y; ++ly) {
            const int cy = rowClass(ly, g.owned.y);
            const std::uint64_t row = rows[static_cast<std::size_t>(lz) * g.halo.y + ly];
            if (((row & clear[cz][cy]) | (~row & set[cz][cy])) != 0)
                throw std::logic_error(
                    "extractIsoSurface: block (" + std::to_string(bc.x) + ", " +
                    std::to_string(bc.y) + ", " + std::to_string(bc.z) +
                    ") reads a crossing inside a certified neighbour's guard box: the "
                    "store's skip certificate is unsound");
        }
    }
}

// Pass 1: the slab's work list, sign rows, topology and row sums.
void Extraction::topology(std::size_t s) {
    Slab& S = slabs[s];
    const Vec3i bg = tiling.blocks();
    for (int by = 0; by < bg.y; ++by) {
        for (int bx = 0; bx < bg.x; ++bx) {
            const auto b =
                static_cast<std::size_t>(tiling.index({bx, by, static_cast<int>(s)}));
            if (surfaceFree[b] != 0) {
                slot[b] = -1;
                continue;
            }
            slot[b] = static_cast<std::int32_t>(S.blocks.size());
            const BlockGeom g = blockGeom(tiling, res, b);
            WorkBlock w{};
            w.index = static_cast<std::uint32_t>(b);
            w.signOff = static_cast<std::uint32_t>(S.signRows.size());
            w.cellBegin = static_cast<std::uint32_t>(S.cells.size());
            w.nodeRowOff = static_cast<std::uint32_t>(S.vertRows.size());
            w.cellRowOff = static_cast<std::uint32_t>(S.triRows.size());
            S.signRows.resize(w.signOff + static_cast<std::size_t>(g.halo.z) * g.halo.y);
            std::uint64_t* rows = S.signRows.data() + w.signOff;
            BlockValues(store, g, {bx, by, static_cast<int>(s)}).signRows(g, iso, rows);
            checkSound(g, {bx, by, static_cast<int>(s)}, rows);
            const std::uint32_t vCount = computeTopology(g, table, rows, S);
            w.cellEnd = static_cast<std::uint32_t>(S.cells.size());
            if (vCount > 0 || w.cellEnd > w.cellBegin) ++S.blocksExtracted;
            S.activeCells += w.cellEnd - w.cellBegin;
            for (int lz = 0; lz < g.owned.z; ++lz)
                for (int ly = 0; ly < g.owned.y; ++ly) {
                    const std::uint32_t c = S.vertRows[w.ownNodeRow(g, lz, ly)];
                    vertRowBase[nodeRow(g.lo.z + lz, g.lo.y + ly)] += c;
                    S.verts += c;
                }
            for (int lz = 0; lz < g.cells.z; ++lz)
                for (int ly = 0; ly < g.cells.y; ++ly) {
                    const std::size_t k = w.ownCellRow(g, lz, ly);
                    triRowBase[cellRow(g.lo.z + lz, g.lo.y + ly)] += S.triRows[k];
                    newRowBase[cellRow(g.lo.z + lz, g.lo.y + ly)] += S.newRows[k];
                    S.tris += S.triRows[k];
                    S.news += S.newRows[k];
                }
            S.blocks.push_back(w);
        }
    }
}

// The slab's rows scanned from its first global indices, then handed
// out to its blocks' row segments.
void Extraction::offsets(std::size_t s) {
    Slab& S = slabs[s];
    const BlockTiling::NodeRange zr = slabNodes(s);
    const auto [z0, z1] = slabLayers(s);
    auto scan = [](std::uint32_t& r, std::uint64_t& next) {
        const std::uint32_t c = r;
        r = static_cast<std::uint32_t>(next);
        next += c;
    };
    for (int z = zr.lo.z; z <= zr.hi.z; ++z)
        for (int y = 0; y <= res.y; ++y) scan(vertRowBase[nodeRow(z, y)], S.verts);
    for (int z = z0; z < z1; ++z) {
        layerTri[static_cast<std::size_t>(z)] = static_cast<std::uint32_t>(S.tris);
        layerVert[static_cast<std::size_t>(z)] = static_cast<std::uint32_t>(S.news);
        for (int y = 0; y < res.y; ++y) {
            scan(triRowBase[cellRow(z, y)], S.tris);
            scan(newRowBase[cellRow(z, y)], S.news);
        }
    }
    // Blocks sharing a row (same by, ascending bx) take consecutive runs
    // of it: the work list ascends with bx fastest.
    auto handOut = [](std::uint32_t& seg, std::uint32_t& cur) {
        const std::uint32_t c = seg;
        seg = cur;
        cur += c;
    };
    for (const WorkBlock& w : S.blocks) {
        const BlockGeom g = blockGeom(tiling, res, w.index);
        for (int lz = 0; lz < g.owned.z; ++lz)
            for (int ly = 0; ly < g.owned.y; ++ly)
                handOut(S.vertRows[w.ownNodeRow(g, lz, ly)],
                        vertRowBase[nodeRow(g.lo.z + lz, g.lo.y + ly)]);
        for (int lz = 0; lz < g.cells.z; ++lz)
            for (int ly = 0; ly < g.cells.y; ++ly) {
                const std::size_t k = w.ownCellRow(g, lz, ly);
                handOut(S.triRows[k], triRowBase[cellRow(g.lo.z + lz, g.lo.y + ly)]);
                handOut(S.newRows[k], newRowBase[cellRow(g.lo.z + lz, g.lo.y + ly)]);
            }
    }
}

// Pass 2a: every crossing edge the slab's blocks own, interpolated once
// and written at its lattice index.
void Extraction::positions(std::size_t s) {
    const Slab& S = slabs[s];
    std::array<std::uint64_t, 7> cw;
    for (const WorkBlock& w : S.blocks) {
        const BlockGeom g = blockGeom(tiling, res, w.index);
        // Most work blocks own no crossing edge: the view of their values
        // is built at the first one.
        std::optional<BlockValues> v;
        const std::uint64_t* rows = S.signRows.data() + w.signOff;
        for (int lz = 0; lz < g.owned.z; ++lz) {
            for (int ly = 0; ly < g.owned.y; ++ly) {
                const int gy = g.lo.y + ly;
                const int gz = g.lo.z + lz;
                std::uint32_t ord = S.vertRows[w.ownNodeRow(g, lz, ly)];
                crossWords(rows, g, lz, ly, g.owned.x, cw);
                std::uint64_t u = cw[0] | cw[1] | cw[2] | cw[3] | cw[4] | cw[5] | cw[6];
                if (u != 0 && !v)
                    v.emplace(store, g, tiling.coord(static_cast<int>(w.index)));
                while (u != 0) {
                    const int lx = std::countr_zero(u);
                    u &= u - 1;
                    const int gx = g.lo.x + lx;
                    const float vA = v->at(lx, ly, lz);
                    for (int sl = 0; sl < kSlotsPerNode; ++sl) {
                        if (((cw[sl] >> lx) & 1) == 0) continue;
                        const int dir = sl + 1;
                        const int dx = dir & 1;
                        const int dy = (dir >> 1) & 1;
                        const int dz = (dir >> 2) & 1;
                        const int ex = gx + dx;
                        const int ey = gy + dy;
                        const int ez = gz + dz;
                        const float vB = v->at(lx + dx, ly + dy, lz + dz);
                        const float denom = vB - vA;
                        float t = std::fabs(denom) > 1e-12f ? (iso - vA) / denom : 0.5f;
                        t = geom::clamp(t, 0.0f, 1.0f);
                        const Vec3f p = geom::lerp(grid.nodePosition(gx, gy, gz),
                                                   grid.nodePosition(ex, ey, ez), t);
                        latticePos[ord++] = {p.x, p.y, p.z};
                    }
                }
            }
        }
    }
}

// Pass 2b: the slab's triangles, their face normals, and the first-use
// index of every vertex its cells number.
void Extraction::triangles(std::size_t s) {
    Slab& S = slabs[s];
    std::vector<std::uint32_t> edgeMap;  // reused across the slab's blocks
    std::array<std::uint64_t, 7> cw;
    for (const WorkBlock& w : S.blocks) {
        if (w.cellEnd == w.cellBegin) continue;
        const BlockGeom g = blockGeom(tiling, res, w.index);
        const std::uint64_t* rows = S.signRows.data() + w.signOff;
        edgeMap.resize(static_cast<std::size_t>(g.walk.x) * g.walk.y * g.walk.z *
                       kSlotsPerNode);
        const Vec3i bc = tiling.coord(static_cast<int>(w.index));

        // Edge -> lattice index, walking rows in canonical order. Rows
        // owned by this block start at its own segment base; halo rows (z
        // or y one past the owned range) start at the owner block's — its
        // numbering of the same row prefix is identical because the
        // crossing bits are a pure function of the shared grid. Ordinals
        // continue across the x boundary into the neighbour's segment by
        // construction of the prefix. A halo row whose owner is not on the
        // work list is certificate-empty: no crossings, nothing to index.
        for (int lz = 0; lz < g.walk.z; ++lz) {
            for (int ly = 0; ly < g.walk.y; ++ly) {
                std::uint32_t ord;
                if (lz < g.owned.z && ly < g.owned.y) {
                    ord = S.vertRows[w.ownNodeRow(g, lz, ly)];
                } else {
                    // The owner is the next block up in y and/or z.
                    const Vec3i oc{bc.x, bc.y + (ly >= g.owned.y ? 1 : 0),
                                   bc.z + (lz >= g.owned.z ? 1 : 0)};
                    const auto ob = static_cast<std::size_t>(tiling.index(oc));
                    const std::int32_t os = slot[ob];
                    if (os < 0) continue;
                    const Slab& OS = slabs[static_cast<std::size_t>(oc.z)];
                    const WorkBlock& ow = OS.blocks[static_cast<std::size_t>(os)];
                    const BlockGeom og = blockGeom(tiling, res, ob);
                    ord = OS.vertRows[ow.ownNodeRow(og, g.lo.z + lz - og.lo.z,
                                                 g.lo.y + ly - og.lo.y)];
                }
                crossWords(rows, g, lz, ly, g.walk.x, cw);
                std::uint64_t u = cw[0] | cw[1] | cw[2] | cw[3] | cw[4] | cw[5] | cw[6];
                while (u != 0) {
                    const int lx = std::countr_zero(u);
                    u &= u - 1;
                    for (int sl = 0; sl < kSlotsPerNode; ++sl) {
                        if (((cw[sl] >> lx) & 1) == 0) continue;
                        edgeMap[edgeSlot(g, lx, ly, lz, sl)] = ord++;
                    }
                }
            }
        }

        // Triangles straight from the case table; the active-cell list
        // ascends (z, y, x), so a running index per cell row lands every
        // triangle, and every vertex the cell numbers, in its canonical
        // slot.
        int curRow = -1;
        std::uint32_t tIdx = 0;
        std::uint32_t vIdx = 0;
        for (std::uint32_t ci = w.cellBegin; ci < w.cellEnd; ++ci) {
            const std::uint32_t packed = S.cells[ci];
            const int lx = static_cast<int>(packed & 63u);
            const int ly = static_cast<int>((packed >> 6) & 63u);
            const int lz = static_cast<int>((packed >> 12) & 63u);
            const int config = static_cast<int>((packed >> 18) & 255u);
            const int row = lz * g.cells.y + ly;
            if (row != curRow) {
                curRow = row;
                tIdx = S.triRows[w.cellRowOff + static_cast<std::size_t>(row)];
                vIdx = S.newRows[w.cellRowOff + static_cast<std::size_t>(row)];
            }
            const int gx = g.lo.x + lx;
            const int gy = g.lo.y + ly;
            const int gz = g.lo.z + lz;
            std::uint64_t unnumbered =
                table.firstEdges[(gx > 0 ? 1 : 0) | (gy > 0 ? 2 : 0) | (gz > 0 ? 4 : 0)];
            auto cornerPos = [&](int c) {
                return grid.nodePosition(gx + (c & 1), gy + ((c >> 1) & 1),
                                         gz + ((c >> 2) & 1));
            };
            const std::uint16_t off = table.offset[config];
            const int n = table.count[config];
            for (int k = 0; k < n; ++k) {
                const CaseTable::Tri& tri = table.tris[off + k];
                std::array<std::uint8_t, 3> e = tri.e;
                std::array<std::uint32_t, 3> id;
                for (int v = 0; v < 3; ++v) {
                    const int cornerBits = e[v] / kSlotsPerNode;
                    const int nx = lx + (cornerBits & 1);
                    const int ny = ly + ((cornerBits >> 1) & 1);
                    const int nz = lz + ((cornerBits >> 2) & 1);
                    id[v] = edgeMap[edgeSlot(g, nx, ny, nz, e[v] % kSlotsPerNode)];
                }
                // Legacy emitTriangle, bit for bit: same inside reference
                // (centroid of 1 or 2 corners — += then /= count, both
                // exact re-associations), same cross / dot order, same
                // comparison.
                Vec3f insideRef = cornerPos(tri.refA);
                if (tri.refB != 0xff) {
                    insideRef += cornerPos(tri.refB);
                    insideRef /= 2.0f;
                }
                const Vec3f pa = position(id[0]);
                const Vec3f pb = position(id[1]);
                const Vec3f pc = position(id[2]);
                const Vec3f nrm = (pb - pa).cross(pc - pa);
                const Vec3f centroid = (pa + pb + pc) / 3.0f;
                const float side = nrm.dot(centroid - insideRef);
                const bool flip = tri.outward ? side < 0.0f : side > 0.0f;
                if (flip) {
                    std::swap(id[1], id[2]);
                    std::swap(e[1], e[2]);
                }
                for (int v = 0; v < 3; ++v) {
                    if (((unnumbered >> e[v]) & 1) == 0) continue;
                    unnumbered &= ~(1ull << e[v]);
                    remap[id[v]] = vIdx;
                    out.vertices[vIdx++] = position(id[v]);
                }
                out.triangles[tIdx] = {id[0], id[1], id[2]};
                // A flipped winding's cross product negates nrm exactly,
                // up to the sign of zero components, which a sum that
                // starts at +0 cannot see.
                if (0.5f * nrm.norm() < 1e-12f)
                    S.degenerate.push_back(tIdx);
                else if (flip)
                    faceNormals[tIdx] = {-nrm.x, -nrm.y, -nrm.z};
                else
                    faceNormals[tIdx] = {nrm.x, nrm.y, nrm.z};
                ++tIdx;
            }
        }
    }
}

// Pass 2c moves every triangle down by the number of degenerate ones
// before it. A later slab's moves land over up to that many of this
// slab's last triangles, so those are copied aside first.
void Extraction::saveTail(std::size_t s) {
    const auto [z0, z1] = slabLayers(s);
    const std::uint32_t t0 = layerTri[static_cast<std::size_t>(z0)];
    const std::uint32_t t1 = layerTri[static_cast<std::size_t>(z1)];
    const auto overwritten = std::min<std::size_t>(dropsBefore(t1), t1 - t0);
    const auto end = out.triangles.begin() + t1;
    slabs[s].tail.assign(end - static_cast<std::ptrdiff_t>(overwritten), end);
}

// Pass 2c: the slab's triangles in first-use numbering, moved down past
// the degenerate ones.
void Extraction::renumber(std::size_t s) {
    const auto [z0, z1] = slabLayers(s);
    const std::uint32_t t1 = layerTri[static_cast<std::size_t>(z1)];
    const std::vector<Triangle>& tail = slabs[s].tail;
    const auto tailBegin = static_cast<std::uint32_t>(t1 - tail.size());
    std::size_t d = dropsBefore(layerTri[static_cast<std::size_t>(z0)]);
    for (std::uint32_t t = layerTri[static_cast<std::size_t>(z0)]; t < t1; ++t) {
        if (d < drop.size() && drop[d] == t) {
            ++d;
            continue;
        }
        const Triangle tri = t >= tailBegin ? tail[t - tailBegin] : out.triangles[t];
        out.triangles[t - d] = {remap[tri.a], remap[tri.b], remap[tri.c]};
    }
}

// The normals of the vertices the slab's cells numbered: face normals
// summed in ascending triangle order, as TriMesh::computeVertexNormals
// does, then normalised.
void Extraction::normals(std::size_t s) {
    const auto [z0, z1] = slabLayers(s);
    const std::uint32_t v0 = layerVert[static_cast<std::size_t>(z0)];
    const std::uint32_t v1 = layerVert[static_cast<std::size_t>(z1)];
    if (v0 == v1) return;
    // A vertex first used in layer z is used in layers z and z + 1 only
    // (the cells holding its edge). Face normals keep their pass-2b
    // slots; the triangles sit d lower.
    const std::uint32_t tEnd = layerTri[static_cast<std::size_t>(std::min(z1 + 1, res.z))];
    std::size_t d = dropsBefore(layerTri[static_cast<std::size_t>(z0)]);
    for (std::uint32_t t = layerTri[static_cast<std::size_t>(z0)]; t < tEnd; ++t) {
        if (d < drop.size() && drop[d] == t) {
            ++d;
            continue;
        }
        const Triangle& tri = out.triangles[t - d];
        const Float3& f = faceNormals[t];
        for (const std::uint32_t v : {tri.a, tri.b, tri.c})
            if (v - v0 < v1 - v0) out.normals[v] += Vec3f{f.x, f.y, f.z};
    }
    for (std::uint32_t v = v0; v < v1; ++v) out.normals[v] = out.normals[v].normalized();
}

}  // namespace

TriMesh extractIsoSurface(const BlockSampler& sampler, const IsoSurfaceOptions& options,
                          ReconCounters* stats) {
    TriMesh out;
    const Vec3i res = sampler.grid().resolution();
    if (res.x < 1 || res.y < 1 || res.z < 1) return out;

    // The working arrays, in one block sized from this thread's previous
    // extraction.
    thread_local std::size_t lastArenaBytes = 0;
    ExtractionArena arena(lastArenaBytes > 0 ? std::bit_ceil(2 * lastArenaBytes) : 0);
    Extraction x(sampler, options, out, arena);
    core::ThreadPool* pool = options.pool;
    const std::size_t numSlabs = x.slabs.size();
    auto eachSlab = [&](auto&& pass) { core::parallelFor(pool, numSlabs, pass); };

    for (std::size_t s = 0; s < numSlabs; ++s) x.reserve(s);
    eachSlab([&](std::size_t s) { x.topology(s); });

    // The prefix over the slab totals: serial, one entry per slab.
    std::uint64_t vTotal = 0, tTotal = 0, nTotal = 0;
    std::uint64_t blocksExtracted = 0, activeCells = 0;
    for (Slab& S : x.slabs) {
        vTotal += std::exchange(S.verts, vTotal);
        tTotal += std::exchange(S.tris, tTotal);
        nTotal += std::exchange(S.news, nTotal);
        blocksExtracted += S.blocksExtracted;
        activeCells += S.activeCells;
    }
    // Each crossing edge has exactly one first-using cell.
    assert(nTotal == vTotal);
    if (stats != nullptr) {
        stats->blocksExtracted = blocksExtracted;
        stats->activeCells = activeCells;
        stats->vertices = vTotal;
        stats->triangles = tTotal;
    }
    x.layerTri.back() = static_cast<std::uint32_t>(tTotal);
    x.layerVert.back() = static_cast<std::uint32_t>(nTotal);
    x.latticePos = arena.array<Float3>(vTotal);
    x.remap = arena.array<std::uint32_t>(vTotal);
    x.faceNormals = arena.array<Float3>(tTotal);

    // Zero-filling the outputs, and faulting in their pages, is serial
    // work: it runs as the first task of pass 2a, which touches neither.
    // The storage is reserved here, so it comes from this thread's heap
    // like the rest of the mesh, not from whichever worker fills it.
    out.vertices.reserve(vTotal);
    out.triangles.reserve(tTotal);
    if (!options.weldVertices) out.normals.reserve(vTotal);
    core::parallelFor(pool, numSlabs + 1, [&](std::size_t i) {
        if (i == 0) {
            out.vertices.resize(vTotal);
            out.triangles.resize(tTotal);
            // The welded mesh's normals come from its own faces, below.
            if (!options.weldVertices) out.normals.resize(vTotal);
            return;
        }
        x.offsets(i - 1);
        x.positions(i - 1);
    });

    eachSlab([&](std::size_t s) { x.triangles(s); });

    // Each slab's degenerate list follows its blocks, not its triangle
    // order.
    for (const Slab& S : x.slabs)
        x.drop.insert(x.drop.end(), S.degenerate.begin(), S.degenerate.end());
    std::sort(x.drop.begin(), x.drop.end());
    if (!x.drop.empty())
        for (std::size_t s = 0; s + 1 < numSlabs; ++s) x.saveTail(s);
    eachSlab([&](std::size_t s) { x.renumber(s); });
    out.triangles.resize(tTotal - x.drop.size());

    if (options.weldVertices) {
        const float eps = 1e-5f * sampler.grid().bounds().diagonal();
        out.weldVertices(eps);
        out.computeVertexNormals();
    } else {
        eachSlab([&](std::size_t s) { x.normals(s); });
    }
    lastArenaBytes = arena.used();
    return out;
}

TriMesh extractIsoSurface(const ScalarField& field, const geom::AABB& bounds,
                          int resolution, const IsoSurfaceOptions& options,
                          const FieldSampleOptions& sampling, ReconCounters* stats) {
    // A certificate proves a region holds no zero crossing; a certified
    // block may still cross any other level, so the store would be
    // unsound there.
    if (sampling.certificate && options.isoValue != 0.0f)
        throw std::invalid_argument(
            "extractIsoSurface: a skip certificate only certifies iso level 0, not " +
            std::to_string(options.isoValue));
    BlockSampler sampler(VoxelGrid(bounds, {resolution, resolution, resolution}),
                         BlockTiling::kDefaultBlockSize);
    const ReconCounters sampled = sampler.sample(field, sampling);
    if (stats != nullptr) *stats = sampled;
    return extractIsoSurface(sampler, options, stats);
}

}  // namespace semholo::mesh
