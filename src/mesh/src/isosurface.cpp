#include "semholo/mesh/isosurface.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <unordered_map>
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
// Legacy extractor (reference implementation). Serial cell scan, hashed
// edge dedup, per-triangle geometric orientation. Kept verbatim: the
// block extractor below is validated against it (canonical triangle-set
// equality) and benchmarked against it within one run.
// ---------------------------------------------------------------------

struct EdgeKey {
    std::uint64_t a, b;
    bool operator==(const EdgeKey&) const = default;
};

struct EdgeKeyHash {
    std::size_t operator()(const EdgeKey& k) const {
        return std::hash<std::uint64_t>{}(k.a * 0x9e3779b97f4a7c15ull ^ k.b);
    }
};

// Shared marching-tetrahedra pass. When 'sampler' is non-null, cells in
// blocks it certified surface-free are skipped outright — those cells
// provably emit no triangles, so skipping them preserves both the
// triangle set and the vertex insertion order (bit-identical output).
TriMesh extractLegacyImpl(const VoxelGrid& grid, const IsoSurfaceOptions& options,
                          const BlockSampler* sampler) {
    TriMesh out;
    const Vec3i res = grid.resolution();
    if (res.x < 1 || res.y < 1 || res.z < 1) return out;

    // Global node id for edge-interpolation vertex dedup.
    const std::uint64_t nx = static_cast<std::uint64_t>(res.x) + 1;
    const std::uint64_t ny = static_cast<std::uint64_t>(res.y) + 1;
    auto nodeId = [nx, ny](int x, int y, int z) {
        return (static_cast<std::uint64_t>(z) * ny + static_cast<std::uint64_t>(y)) * nx +
               static_cast<std::uint64_t>(x);
    };

    std::unordered_map<EdgeKey, std::uint32_t, EdgeKeyHash> edgeVertex;

    // Emit (or reuse) the vertex where the iso-surface crosses the edge
    // between grid nodes idA and idB.
    auto edgePoint = [&](std::uint64_t idA, Vec3f pA, float vA, std::uint64_t idB,
                         Vec3f pB, float vB) -> std::uint32_t {
        if (idA > idB) {
            std::swap(idA, idB);
            std::swap(pA, pB);
            std::swap(vA, vB);
        }
        const EdgeKey key{idA, idB};
        if (const auto it = edgeVertex.find(key); it != edgeVertex.end())
            return it->second;
        const float denom = vB - vA;
        float t = std::fabs(denom) > 1e-12f ? (options.isoValue - vA) / denom : 0.5f;
        t = geom::clamp(t, 0.0f, 1.0f);
        const auto idx = static_cast<std::uint32_t>(out.vertices.size());
        out.vertices.push_back(geom::lerp(pA, pB, t));
        edgeVertex.emplace(key, idx);
        return idx;
    };

    std::array<Vec3f, 8> corner;
    std::array<float, 8> value;
    std::array<std::uint64_t, 8> id;

    // Orient each triangle so its normal points away from the inside of
    // the tetrahedron (towards higher field values when inside = below
    // iso). Per-triangle orientation keeps the winding globally
    // consistent without a case table.
    auto emitTriangle = [&](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                            Vec3f insideRef, bool outward) {
        if (a == b || b == c || a == c) return;
        const Vec3f& pa = out.vertices[a];
        const Vec3f& pb = out.vertices[b];
        const Vec3f& pc = out.vertices[c];
        const Vec3f n = (pb - pa).cross(pc - pa);
        const Vec3f centroid = (pa + pb + pc) / 3.0f;
        const float side = n.dot(centroid - insideRef);
        const bool flip = outward ? side < 0.0f : side > 0.0f;
        if (flip)
            out.triangles.push_back({a, c, b});
        else
            out.triangles.push_back({a, b, c});
    };

    const std::vector<std::uint8_t>* surfaceFree =
        sampler != nullptr ? &sampler->surfaceFree() : nullptr;

    for (int z = 0; z < res.z; ++z) {
        for (int y = 0; y < res.y; ++y) {
            for (int x = 0; x < res.x; ++x) {
                if (surfaceFree != nullptr &&
                    (*surfaceFree)[static_cast<std::size_t>(
                        sampler->tiling().cellBlock(x, y, z))] != 0)
                    continue;
                for (int i = 0; i < 8; ++i) {
                    const int cx = x + (i & 1);
                    const int cy = y + ((i >> 1) & 1);
                    const int cz = z + ((i >> 2) & 1);
                    corner[i] = grid.nodePosition(cx, cy, cz);
                    value[i] = grid.at(cx, cy, cz);
                    id[i] = nodeId(cx, cy, cz);
                }

                for (const auto& tet : kTets) {
                    int mask = 0;
                    for (int i = 0; i < 4; ++i)
                        if (value[tet[i]] < options.isoValue) mask |= 1 << i;
                    if (mask == 0 || mask == 15) continue;

                    auto vtx = [&](int i, int j) {
                        return edgePoint(id[tet[i]], corner[tet[i]], value[tet[i]],
                                         id[tet[j]], corner[tet[j]], value[tet[j]]);
                    };

                    // Centroid of the inside corners: the reference point
                    // the surface should face away from.
                    Vec3f insideRef{};
                    int insideCount = 0;
                    for (int i = 0; i < 4; ++i) {
                        if (mask & (1 << i)) {
                            insideRef += corner[tet[i]];
                            ++insideCount;
                        }
                    }
                    insideRef /= static_cast<float>(insideCount);

                    // Work with the canonical 1- or 2-inside pattern.
                    int m = mask;
                    bool complemented = false;
                    if (insideCount > 2) {
                        m = (~m) & 15;
                        complemented = true;
                        // Reference flips to the (former) outside corners.
                        Vec3f ref{};
                        int n = 0;
                        for (int i = 0; i < 4; ++i) {
                            if (m & (1 << i)) {
                                ref += corner[tet[i]];
                                ++n;
                            }
                        }
                        insideRef = ref / static_cast<float>(n);
                    }
                    // After complementing, insideRef points at corners on
                    // the *outside*, so orientation must face towards it.
                    const bool outward = !complemented;

                    switch (m) {
                        case 1:
                            emitTriangle(vtx(0, 1), vtx(0, 2), vtx(0, 3), insideRef,
                                         outward);
                            break;
                        case 2:
                            emitTriangle(vtx(1, 0), vtx(1, 2), vtx(1, 3), insideRef,
                                         outward);
                            break;
                        case 4:
                            emitTriangle(vtx(2, 0), vtx(2, 1), vtx(2, 3), insideRef,
                                         outward);
                            break;
                        case 8:
                            emitTriangle(vtx(3, 0), vtx(3, 1), vtx(3, 2), insideRef,
                                         outward);
                            break;
                        case 3: {  // inside (canonical): {0,1}
                            const auto q0 = vtx(0, 2), q1 = vtx(0, 3), q2 = vtx(1, 3),
                                       q3 = vtx(1, 2);
                            emitTriangle(q0, q1, q2, insideRef, outward);
                            emitTriangle(q0, q2, q3, insideRef, outward);
                            break;
                        }
                        case 5: {  // {0,2}
                            const auto q0 = vtx(0, 1), q1 = vtx(2, 1), q2 = vtx(2, 3),
                                       q3 = vtx(0, 3);
                            emitTriangle(q0, q1, q2, insideRef, outward);
                            emitTriangle(q0, q2, q3, insideRef, outward);
                            break;
                        }
                        case 6: {  // {1,2}
                            const auto q0 = vtx(1, 0), q1 = vtx(2, 0), q2 = vtx(2, 3),
                                       q3 = vtx(1, 3);
                            emitTriangle(q0, q1, q2, insideRef, outward);
                            emitTriangle(q0, q2, q3, insideRef, outward);
                            break;
                        }
                        case 9: {  // {0,3}
                            const auto q0 = vtx(0, 1), q1 = vtx(3, 1), q2 = vtx(3, 2),
                                       q3 = vtx(0, 2);
                            emitTriangle(q0, q1, q2, insideRef, outward);
                            emitTriangle(q0, q2, q3, insideRef, outward);
                            break;
                        }
                        case 10: {  // {1,3}
                            const auto q0 = vtx(1, 0), q1 = vtx(3, 0), q2 = vtx(3, 2),
                                       q3 = vtx(1, 2);
                            emitTriangle(q0, q1, q2, insideRef, outward);
                            emitTriangle(q0, q2, q3, insideRef, outward);
                            break;
                        }
                        case 12: {  // {2,3}
                            const auto q0 = vtx(2, 0), q1 = vtx(3, 0), q2 = vtx(3, 1),
                                       q3 = vtx(2, 1);
                            emitTriangle(q0, q1, q2, insideRef, outward);
                            emitTriangle(q0, q2, q3, insideRef, outward);
                            break;
                        }
                        default:
                            break;
                    }
                }
            }
        }
    }

    out.removeDegenerateTriangles();

    if (options.weldVertices) {
        const float eps = 1e-5f * grid.bounds().diagonal();
        out.weldVertices(eps);
    }
    out.computeVertexNormals();
    return out;
}

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
    return t;
}

const CaseTable& caseTable() {
    static const CaseTable table = buildCaseTable();
    return table;
}

// ---------------------------------------------------------------------
// Block-local two-pass extractor.
//
// The grid is tiled into blocks (the sampler's tiling when present, 8^3
// otherwise). Pass 1 builds per-block node sign rows — one 64-bit word
// of (value < iso) bits per (z, y) row — with SIMD compares over the
// contiguous x runs, then derives per-block active-cell lists and exact
// per-row vertex / triangle counts from pure word arithmetic. A serial
// prefix over those counts fixes every block's output offsets, and
// pass 2 writes vertices and table triangles directly into their final
// slots: disjoint writes, no locks, byte-identical for any worker count.
//
// Output ordering is canonical and decomposition-independent:
//   vertices   ascending (z, y, x, slot) over crossing in-range edges,
//              slot = direction - 1 of the edge's base node;
//   triangles  ascending (z, y, x) over cells, kTets / case-table order
//              within a cell.
// A crossing edge's vertex is emitted by the block owning its base node
// (node / blockSize per axis), so the vertex set is exactly "one vertex
// per crossing edge" — the same set the legacy hash dedup produces.
//
// Sign rows cover nodes [lo, min(hi + 2, res)] per axis: pass 2 assigns
// ordinals to crossing edges based at halo nodes (hi + 1) owned by
// neighbour blocks, and *their* preceding slots reach endpoints at
// hi + 2. Rows are read straight from the shared grid, so halo overlap
// costs a few redundant compares, not synchronisation.
// ---------------------------------------------------------------------

inline std::uint64_t maskBits(int n) {
    return n >= 64 ? ~0ull : ((1ull << n) - 1ull);
}

struct BlockGeom {
    Vec3i lo{};     // first owned node, per axis
    Vec3i owned{};  // owned node counts (vertex rows are owned.z * owned.y)
    Vec3i walk{};   // pass-2 node walk extent: min(hi + 1, res) - lo + 1
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

inline std::size_t gridIndex(const Vec3i& res, int x, int y, int z) {
    return (static_cast<std::size_t>(z) * (res.y + 1) + static_cast<std::size_t>(y)) *
               (res.x + 1) +
           static_cast<std::size_t>(x);
}

// Sign rows for one block: bit j of row (rz, ry) = (value(lo.x + j,
// lo.y + ry, lo.z + rz) < iso). x runs are contiguous in the grid, so
// the compare vectorises; rows are at most bs + 2 <= 64 bits.
void buildSignRows(const VoxelGrid& grid, const BlockGeom& g, float iso,
                   std::vector<std::uint64_t>& rows) {
    rows.assign(static_cast<std::size_t>(g.halo.z) * g.halo.y, 0);
    const Vec3i res = grid.resolution();
    const float* vals = grid.values().data();
    constexpr int W = 4;
    using V = geom::simd::f32xN<W>;
    const V isoW = V::broadcast(iso);
    for (int rz = 0; rz < g.halo.z; ++rz) {
        for (int ry = 0; ry < g.halo.y; ++ry) {
            const float* base = vals + gridIndex(res, g.lo.x, g.lo.y + ry, g.lo.z + rz);
            std::uint64_t w = 0;
            int x = 0;
            for (; x + W <= g.halo.x; x += W) {
                const auto m = geom::simd::cmpLt(V::load(base + x), isoW);
                std::int32_t lanes[W];
                static_assert(sizeof(m) == sizeof(lanes));
                std::memcpy(lanes, &m, sizeof(lanes));
                for (int j = 0; j < W; ++j)
                    w |= static_cast<std::uint64_t>(lanes[j] & 1) << (x + j);
            }
            for (; x < g.halo.x; ++x)
                w |= static_cast<std::uint64_t>(base[x] < iso ? 1u : 0u) << x;
            rows[static_cast<std::size_t>(rz) * g.halo.y + ry] = w;
        }
    }
}

// Crossing bits of one (z, y) node row: bit i of cw[s] is set iff the
// edge from node lo.x + i in direction s + 1 crosses the iso value and
// both endpoints are grid nodes. 'nodeBits' limits the bit range.
inline void crossWords(const std::vector<std::uint64_t>& rows, const BlockGeom& g,
                       int lz, int ly, int nodeBits, std::array<std::uint64_t, 7>& cw) {
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

// One work block's pass-1 topology and its prefix-sum segment bases.
struct Block {
    std::vector<std::uint64_t> signRows;  // halo sign bits, (z,y) rows
    std::vector<std::uint32_t> cells;     // packed active cells + configs
    std::vector<std::uint16_t> rowVerts;  // crossing edges per owned node row
    std::vector<std::uint16_t> rowTris;   // table triangles per owned cell row
    std::vector<std::uint32_t> segBaseV;  // per-row global vertex offsets
    std::vector<std::uint32_t> segBaseT;  // per-row global triangle offsets
    std::uint32_t vertexCount{0};
    std::uint32_t triangleCount{0};
};

// Pass-1 core: active-cell list, case configs and exact per-row counts,
// all from the sign rows (no field values touched).
void computeTopology(const BlockGeom& g, const CaseTable& table, Block& B) {
    B.rowVerts.assign(static_cast<std::size_t>(g.owned.z) * g.owned.y, 0);
    std::array<std::uint64_t, 7> cw;
    std::uint32_t vCount = 0;
    for (int lz = 0; lz < g.owned.z; ++lz) {
        for (int ly = 0; ly < g.owned.y; ++ly) {
            crossWords(B.signRows, g, lz, ly, g.owned.x, cw);
            int c = 0;
            for (int s = 0; s < kSlotsPerNode; ++s) c += std::popcount(cw[s]);
            B.rowVerts[static_cast<std::size_t>(lz) * g.owned.y + ly] =
                static_cast<std::uint16_t>(c);
            vCount += static_cast<std::uint32_t>(c);
        }
    }
    B.vertexCount = vCount;

    B.cells.clear();
    B.rowTris.assign(static_cast<std::size_t>(g.cells.z) * g.cells.y, 0);
    std::uint32_t tCount = 0;
    const std::uint64_t cellMask = maskBits(g.cells.x);
    for (int lz = 0; lz < g.cells.z; ++lz) {
        for (int ly = 0; ly < g.cells.y; ++ly) {
            const std::uint64_t a0 =
                B.signRows[static_cast<std::size_t>(lz) * g.halo.y + ly];
            const std::uint64_t a1 =
                B.signRows[static_cast<std::size_t>(lz) * g.halo.y + ly + 1];
            const std::uint64_t a2 =
                B.signRows[static_cast<std::size_t>(lz + 1) * g.halo.y + ly];
            const std::uint64_t a3 =
                B.signRows[static_cast<std::size_t>(lz + 1) * g.halo.y + ly + 1];
            const std::uint64_t allIn =
                a0 & (a0 >> 1) & a1 & (a1 >> 1) & a2 & (a2 >> 1) & a3 & (a3 >> 1);
            const std::uint64_t allOut = ~a0 & (~a0 >> 1) & ~a1 & (~a1 >> 1) & ~a2 &
                                         (~a2 >> 1) & ~a3 & (~a3 >> 1);
            std::uint64_t mixed = ~(allIn | allOut) & cellMask;
            std::uint16_t rowT = 0;
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
                B.cells.push_back(static_cast<std::uint32_t>(lx) |
                                  (static_cast<std::uint32_t>(ly) << 6) |
                                  (static_cast<std::uint32_t>(lz) << 12) |
                                  (static_cast<std::uint32_t>(config) << 18));
                rowT = static_cast<std::uint16_t>(rowT + table.count[config]);
            }
            B.rowTris[static_cast<std::size_t>(lz) * g.cells.y + ly] = rowT;
            tCount += rowT;
        }
    }
    B.triangleCount = tCount;
    B.segBaseV.assign(B.rowVerts.size(), 0);
    B.segBaseT.assign(B.rowTris.size(), 0);
}

// Chunked fan-out: one task per chunk (ThreadPool::parallelFor submits a
// future per index, so feeding it raw block counts would drown in task
// overhead). fn(begin, end) over [0, count).
template <typename F>
void parallelChunks(core::ThreadPool* pool, std::size_t count, F&& fn) {
    if (count == 0) return;
    if (pool == nullptr || pool->size() <= 1 || count <= 1) {
        fn(std::size_t{0}, count);
        return;
    }
    const std::size_t chunks =
        std::min(count, std::max<std::size_t>(1, pool->size() * 4));
    pool->parallelFor(chunks, [&](std::size_t c) {
        fn(count * c / chunks, count * (c + 1) / chunks);
    });
}

TriMesh extractBlockImpl(const VoxelGrid& grid, const BlockSampler* sampler,
                         const IsoSurfaceOptions& options, ReconCounters* stats) {
    TriMesh out;
    const Vec3i res = grid.resolution();
    if (res.x < 1 || res.y < 1 || res.z < 1) return out;

    const BlockTiling tiling = sampler != nullptr
                                   ? sampler->tiling()
                                   : BlockTiling(res, BlockTiling::kDefaultBlockSize);
    const std::size_t numBlocks = static_cast<std::size_t>(tiling.count());
    const CaseTable& table = caseTable();
    const float iso = options.isoValue;

    // Work list: every block not certified surface-free. Certified
    // blocks hold no crossing edge anywhere in their node set (the
    // certificate's guard ball covers one node ring beyond the block),
    // so skipping them drops neither vertices nor triangles. blocks[i]
    // holds work[i]'s topology; slot maps a block index to i, or -1.
    const std::vector<std::uint8_t>* surfaceFree =
        sampler != nullptr ? &sampler->surfaceFree() : nullptr;
    std::vector<std::uint32_t> work;
    work.reserve(surfaceFree != nullptr ? numBlocks / 4 + 1 : numBlocks);
    std::vector<std::int32_t> slot(numBlocks, -1);
    for (std::size_t b = 0; b < numBlocks; ++b) {
        if (surfaceFree != nullptr && (*surfaceFree)[b] != 0) continue;
        slot[b] = static_cast<std::int32_t>(work.size());
        work.push_back(static_cast<std::uint32_t>(b));
    }
    std::vector<Block> blocks(work.size());

    // ---- Pass 1: sign rows + topology (parallel over blocks) ----
    parallelChunks(options.pool, work.size(), [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
            const BlockGeom g = blockGeom(tiling, res, work[i]);
            buildSignRows(grid, g, iso, blocks[i].signRows);
            computeTopology(g, table, blocks[i]);
        }
    });

    // ---- Prefix: canonical global offsets ----
    // Per (z, y) row totals first, then an exclusive scan in row-major
    // (z, y) order, then per-block segment bases handed out left to
    // right (the work list ascends with bx fastest, so within one row
    // consecutive x segments get consecutive offset runs).
    std::vector<std::uint32_t> rowBaseV(
        static_cast<std::size_t>(res.z + 1) * (res.y + 1), 0);
    std::vector<std::uint32_t> rowBaseT(static_cast<std::size_t>(res.z) * res.y, 0);
    std::uint64_t blocksExtracted = 0;
    std::uint64_t activeCells = 0;
    for (std::size_t i = 0; i < work.size(); ++i) {
        const BlockGeom g = blockGeom(tiling, res, work[i]);
        const Block& B = blocks[i];
        if (B.vertexCount > 0 || !B.cells.empty()) ++blocksExtracted;
        activeCells += B.cells.size();
        for (int lz = 0; lz < g.owned.z; ++lz)
            for (int ly = 0; ly < g.owned.y; ++ly)
                rowBaseV[static_cast<std::size_t>(g.lo.z + lz) * (res.y + 1) +
                         (g.lo.y + ly)] +=
                    B.rowVerts[static_cast<std::size_t>(lz) * g.owned.y + ly];
        for (int lz = 0; lz < g.cells.z; ++lz)
            for (int ly = 0; ly < g.cells.y; ++ly)
                rowBaseT[static_cast<std::size_t>(g.lo.z + lz) * res.y + (g.lo.y + ly)] +=
                    B.rowTris[static_cast<std::size_t>(lz) * g.cells.y + ly];
    }
    std::uint64_t vTotal = 0;
    for (std::uint32_t& r : rowBaseV) {
        const std::uint32_t c = r;
        r = static_cast<std::uint32_t>(vTotal);
        vTotal += c;
    }
    std::uint64_t tTotal = 0;
    for (std::uint32_t& r : rowBaseT) {
        const std::uint32_t c = r;
        r = static_cast<std::uint32_t>(tTotal);
        tTotal += c;
    }
    for (std::size_t i = 0; i < work.size(); ++i) {
        const BlockGeom g = blockGeom(tiling, res, work[i]);
        Block& B = blocks[i];
        for (int lz = 0; lz < g.owned.z; ++lz) {
            for (int ly = 0; ly < g.owned.y; ++ly) {
                std::uint32_t& cur =
                    rowBaseV[static_cast<std::size_t>(g.lo.z + lz) * (res.y + 1) +
                             (g.lo.y + ly)];
                B.segBaseV[static_cast<std::size_t>(lz) * g.owned.y + ly] = cur;
                cur += B.rowVerts[static_cast<std::size_t>(lz) * g.owned.y + ly];
            }
        }
        for (int lz = 0; lz < g.cells.z; ++lz) {
            for (int ly = 0; ly < g.cells.y; ++ly) {
                std::uint32_t& cur =
                    rowBaseT[static_cast<std::size_t>(g.lo.z + lz) * res.y + (g.lo.y + ly)];
                B.segBaseT[static_cast<std::size_t>(lz) * g.cells.y + ly] = cur;
                cur += B.rowTris[static_cast<std::size_t>(lz) * g.cells.y + ly];
            }
        }
    }

    out.vertices.resize(vTotal);
    out.triangles.resize(tTotal);

    if (stats != nullptr) {
        stats->blocksExtracted = blocksExtracted;
        stats->activeCells = activeCells;
        stats->vertices = vTotal;
        stats->triangles = tTotal;
    }

    // ---- Pass 2: geometry into final slots (parallel over blocks) ----
    const float* vals = grid.values().data();
    parallelChunks(options.pool, work.size(), [&](std::size_t i0, std::size_t i1) {
        std::vector<std::uint32_t> edgeMap;  // reused across the chunk's blocks
        std::array<std::uint64_t, 7> cw;
        for (std::size_t i = i0; i < i1; ++i) {
            const BlockGeom g = blockGeom(tiling, res, work[i]);
            const Block& B = blocks[i];
            if (B.vertexCount == 0 && B.cells.empty()) continue;
            edgeMap.resize(static_cast<std::size_t>(g.walk.x) * g.walk.y * g.walk.z *
                           kSlotsPerNode);
            const Vec3i bc = tiling.coord(static_cast<int>(work[i]));

            // Edge -> global vertex index, walking rows in canonical
            // order. Rows owned by this block start at segBaseV; halo
            // rows (z or y one past the owned range) start at the owner
            // block's segBaseV — its numbering of the same row prefix is
            // identical because the crossing bits are a pure function of
            // the shared grid. Ordinals continue across the x boundary
            // into the neighbour's segment by construction of the
            // prefix. A halo row whose owner is not on the work list is
            // certificate-empty: no crossings, nothing to index.
            for (int lz = 0; lz < g.walk.z; ++lz) {
                for (int ly = 0; ly < g.walk.y; ++ly) {
                    const int gy = g.lo.y + ly;
                    const int gz = g.lo.z + lz;
                    const bool ownRow = lz < g.owned.z && ly < g.owned.y;
                    std::uint32_t ord;
                    if (ownRow) {
                        ord = B.segBaseV[static_cast<std::size_t>(lz) * g.owned.y + ly];
                    } else {
                        // The owner is the next block up in y and/or z.
                        const auto ob = static_cast<std::size_t>(tiling.index(
                            {bc.x, bc.y + (ly >= g.owned.y ? 1 : 0),
                             bc.z + (lz >= g.owned.z ? 1 : 0)}));
                        const std::int32_t os = slot[ob];
                        if (os < 0) continue;
                        const Block& OB = blocks[static_cast<std::size_t>(os)];
                        const BlockGeom og = blockGeom(tiling, res, ob);
                        ord = OB.segBaseV[static_cast<std::size_t>(gz - og.lo.z) *
                                              og.owned.y +
                                          (gy - og.lo.y)];
                    }
                    crossWords(B.signRows, g, lz, ly, g.walk.x, cw);
                    std::uint64_t u = cw[0] | cw[1] | cw[2] | cw[3] | cw[4] | cw[5] | cw[6];
                    while (u != 0) {
                        const int lx = std::countr_zero(u);
                        u &= u - 1;
                        for (int s = 0; s < kSlotsPerNode; ++s) {
                            if (((cw[s] >> lx) & 1) == 0) continue;
                            const std::uint32_t idx = ord++;
                            edgeMap[(static_cast<std::size_t>(
                                         (lz * g.walk.y + ly) * g.walk.x + lx)) *
                                        kSlotsPerNode +
                                    s] = idx;
                            if (!ownRow || lx >= g.owned.x) continue;
                            const int gx = g.lo.x + lx;
                            const int dir = s + 1;
                            const int ex = gx + (dir & 1);
                            const int ey = gy + ((dir >> 1) & 1);
                            const int ez = gz + ((dir >> 2) & 1);
                            const float vA = vals[gridIndex(res, gx, gy, gz)];
                            const float vB = vals[gridIndex(res, ex, ey, ez)];
                            const float denom = vB - vA;
                            float t = std::fabs(denom) > 1e-12f ? (iso - vA) / denom : 0.5f;
                            t = geom::clamp(t, 0.0f, 1.0f);
                            out.vertices[idx] = geom::lerp(grid.nodePosition(gx, gy, gz),
                                                           grid.nodePosition(ex, ey, ez), t);
                        }
                    }
                }
            }

            // Triangles straight from the case table; the active-cell
            // list ascends (z, y, x), so a running index per cell row
            // lands every triangle in its canonical slot. The winding
            // replays the legacy extractor's float side test on the
            // actual interpolated positions (see the case-table header).
            // Positions are recomputed here rather than read back from
            // out.vertices: a triangle may reference a halo vertex
            // another block's task is writing concurrently, and the
            // recomputation is bit-identical by construction.
            int curRow = -1;
            std::uint32_t tIdx = 0;
            for (const std::uint32_t packed : B.cells) {
                const int lx = static_cast<int>(packed & 63u);
                const int ly = static_cast<int>((packed >> 6) & 63u);
                const int lz = static_cast<int>((packed >> 12) & 63u);
                const int config = static_cast<int>((packed >> 18) & 255u);
                const int row = lz * g.cells.y + ly;
                if (row != curRow) {
                    curRow = row;
                    tIdx = B.segBaseT[static_cast<std::size_t>(row)];
                }
                auto edgePos = [&](int e) {
                    const int cornerBits = e / kSlotsPerNode;
                    const int dir = e % kSlotsPerNode + 1;
                    const int gx = g.lo.x + lx + (cornerBits & 1);
                    const int gy = g.lo.y + ly + ((cornerBits >> 1) & 1);
                    const int gz = g.lo.z + lz + ((cornerBits >> 2) & 1);
                    const int ex = gx + (dir & 1);
                    const int ey = gy + ((dir >> 1) & 1);
                    const int ez = gz + ((dir >> 2) & 1);
                    const float vA = vals[gridIndex(res, gx, gy, gz)];
                    const float vB = vals[gridIndex(res, ex, ey, ez)];
                    const float denom = vB - vA;
                    float t = std::fabs(denom) > 1e-12f ? (iso - vA) / denom : 0.5f;
                    t = geom::clamp(t, 0.0f, 1.0f);
                    return geom::lerp(grid.nodePosition(gx, gy, gz),
                                      grid.nodePosition(ex, ey, ez), t);
                };
                auto cornerPos = [&](int c) {
                    return grid.nodePosition(g.lo.x + lx + (c & 1),
                                             g.lo.y + ly + ((c >> 1) & 1),
                                             g.lo.z + lz + ((c >> 2) & 1));
                };
                const std::uint16_t off = table.offset[config];
                const int n = table.count[config];
                for (int k = 0; k < n; ++k) {
                    const CaseTable::Tri& tri = table.tris[off + k];
                    std::uint32_t id[3];
                    for (int v = 0; v < 3; ++v) {
                        const int cornerBits = tri.e[v] / kSlotsPerNode;
                        const int s = tri.e[v] % kSlotsPerNode;
                        const int nx = lx + (cornerBits & 1);
                        const int ny = ly + ((cornerBits >> 1) & 1);
                        const int nz = lz + ((cornerBits >> 2) & 1);
                        id[v] = edgeMap[(static_cast<std::size_t>(
                                             (nz * g.walk.y + ny) * g.walk.x + nx)) *
                                            kSlotsPerNode +
                                        s];
                    }
                    // Legacy emitTriangle, bit for bit: same inside
                    // reference (centroid of 1 or 2 corners — += then
                    // /= count, both exact re-associations), same cross
                    // / dot order, same comparison.
                    Vec3f insideRef = cornerPos(tri.refA);
                    if (tri.refB != 0xff) {
                        insideRef += cornerPos(tri.refB);
                        insideRef /= 2.0f;
                    }
                    const Vec3f pa = edgePos(tri.e[0]);
                    const Vec3f pb = edgePos(tri.e[1]);
                    const Vec3f pc = edgePos(tri.e[2]);
                    const Vec3f nrm = (pb - pa).cross(pc - pa);
                    const Vec3f centroid = (pa + pb + pc) / 3.0f;
                    const float side = nrm.dot(centroid - insideRef);
                    const bool flip = tri.outward ? side < 0.0f : side > 0.0f;
                    out.triangles[tIdx++] = flip ? Triangle{id[0], id[2], id[1]}
                                                 : Triangle{id[0], id[1], id[2]};
                }
            }
        }
    });

    // Renumber vertices by first use in the (canonical) triangle stream.
    // The lattice (z, y, x, slot) numbering the passes emit under is
    // convenient for disjoint writes but spreads a triangle's indices
    // across whole grid rows, which ruins the delta locality the mesh
    // codec's varint stage feeds on. First-use order restores the legacy
    // extractor's index locality and is still a pure function of the
    // canonical triangle order, so worker-count and block-decomposition
    // invariance are untouched.
    if (vTotal > 0) {
        constexpr std::uint32_t kUnseen = 0xffffffffu;
        std::vector<std::uint32_t> remap(vTotal, kUnseen);
        std::vector<Vec3f> reordered(vTotal);
        std::uint32_t next = 0;
        for (Triangle& tri : out.triangles) {
            for (std::uint32_t* idx : {&tri.a, &tri.b, &tri.c}) {
                std::uint32_t& r = remap[*idx];
                if (r == kUnseen) {
                    r = next;
                    reordered[next] = out.vertices[*idx];
                    ++next;
                }
                *idx = r;
            }
        }
        // Every crossing edge is referenced by an active tet, so this
        // loop only runs on malformed input; kept for safety.
        for (std::size_t v = 0; v < vTotal; ++v) {
            if (remap[v] == kUnseen) reordered[next++] = out.vertices[v];
        }
        out.vertices = std::move(reordered);
    }

    // Same post-pass as the legacy extractor, in the same order.
    out.removeDegenerateTriangles();

    if (options.weldVertices) {
        const float eps = 1e-5f * grid.bounds().diagonal();
        out.weldVertices(eps);
    }
    out.computeVertexNormals();
    return out;
}

}  // namespace

TriMesh extractIsoSurface(const VoxelGrid& grid, const BlockSampler* sampler,
                          const IsoSurfaceOptions& options, ReconCounters* stats) {
    return extractBlockImpl(grid, sampler, options, stats);
}

TriMesh extractIsoSurface(const VoxelGrid& grid, const IsoSurfaceOptions& options) {
    return extractBlockImpl(grid, nullptr, options, nullptr);
}

TriMesh extractIsoSurface(const VoxelGrid& grid, const BlockSampler& sampler,
                          const IsoSurfaceOptions& options) {
    return extractBlockImpl(grid, &sampler, options, nullptr);
}

TriMesh extractIsoSurface(const ScalarField& field, const geom::AABB& bounds,
                          int resolution, const IsoSurfaceOptions& options) {
    VoxelGrid grid(bounds, {resolution, resolution, resolution});
    grid.sample(field);
    return extractIsoSurface(grid, options);
}

TriMesh extractIsoSurface(const ScalarField& field, const geom::AABB& bounds,
                          int resolution, const IsoSurfaceOptions& options,
                          const FieldSampleOptions& sampling, ReconCounters* stats) {
    VoxelGrid grid(bounds, {resolution, resolution, resolution});
    BlockSampler sampler(grid, BlockTiling::kDefaultBlockSize);
    const ReconCounters sampled = sampler.sample(field, sampling);
    if (stats != nullptr) *stats = sampled;
    return extractIsoSurface(grid, &sampler, options, stats);
}

TriMesh extractIsoSurfaceLegacy(const VoxelGrid& grid, const IsoSurfaceOptions& options) {
    return extractLegacyImpl(grid, options, nullptr);
}

TriMesh extractIsoSurfaceLegacy(const VoxelGrid& grid, const BlockSampler& sampler,
                                const IsoSurfaceOptions& options) {
    return extractLegacyImpl(grid, options, &sampler);
}

}  // namespace semholo::mesh
