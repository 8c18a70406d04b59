#include "semholo/mesh/simplify.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <set>

namespace semholo::mesh {

namespace {

// Reject collapses that flip any incident face normal by more than this
// cosine bound (guards against fold-overs).
constexpr float kMaxNormalFlipCos = -0.2f;

// Symmetric 4x4 quadric, 10 unique coefficients:
// [a b c d; b e f g; c f h i; d g i j].
struct Quadric {
    double a{}, b{}, c{}, d{}, e{}, f{}, g{}, h{}, i{}, j{};

    void addPlane(double nx, double ny, double nz, double w, double area) {
        a += area * nx * nx;
        b += area * nx * ny;
        c += area * nx * nz;
        d += area * nx * w;
        e += area * ny * ny;
        f += area * ny * nz;
        g += area * ny * w;
        h += area * nz * nz;
        i += area * nz * w;
        j += area * w * w;
    }
    Quadric operator+(const Quadric& o) const {
        Quadric r = *this;
        r.a += o.a; r.b += o.b; r.c += o.c; r.d += o.d; r.e += o.e;
        r.f += o.f; r.g += o.g; r.h += o.h; r.i += o.i; r.j += o.j;
        return r;
    }
    double evaluate(Vec3f v) const {
        const double x = v.x, y = v.y, z = v.z;
        return a * x * x + 2 * b * x * y + 2 * c * x * z + 2 * d * x + e * y * y +
               2 * f * y * z + 2 * g * y + h * z * z + 2 * i * z + j;
    }
    // Solve for the minimising position; false when (near-)singular.
    bool optimalPosition(Vec3f& out) const {
        // 3x3 system [a b c; b e f; c f h] v = -[d g i].
        const double det = a * (e * h - f * f) - b * (b * h - f * c) +
                           c * (b * f - e * c);
        if (std::fabs(det) < 1e-12) return false;
        const double inv = 1.0 / det;
        const double rx = -(d * (e * h - f * f) - g * (b * h - c * f) +
                            i * (b * f - c * e)) * inv;
        const double ry = -(a * (g * h - i * f) - b * (d * h - i * c) +
                            c * (d * f - g * c)) * inv;
        const double rz = -(a * (e * i - f * g) - b * (b * i - c * g) +
                            d * (b * f - c * e)) * inv;
        if (!std::isfinite(rx) || !std::isfinite(ry) || !std::isfinite(rz))
            return false;
        out = {static_cast<float>(rx), static_cast<float>(ry),
               static_cast<float>(rz)};
        return true;
    }
};

struct Candidate {
    double cost;
    std::uint32_t v1, v2;
    Vec3f position;
    std::uint64_t stamp;  // sum of vertex versions at enqueue time
    bool operator>(const Candidate& o) const { return cost > o.cost; }
};

}  // namespace

SimplifyResult simplify(const TriMesh& input, const SimplifyOptions& options) {
    SimplifyResult result;
    TriMesh work = input;
    if (work.triangleCount() <= options.targetTriangles) {
        result.mesh = std::move(work);
        return result;
    }
    const bool hasColors = work.hasColors();

    // Per-vertex quadrics from incident face planes.
    std::vector<Quadric> quadrics(work.vertexCount());
    for (const Triangle& t : work.triangles) {
        const Vec3f n = work.triangleNormal(t);
        const float area = work.triangleArea(t);
        const double w = -static_cast<double>(n.dot(work.vertices[t.a]));
        for (const std::uint32_t v : {t.a, t.b, t.c})
            quadrics[v].addPlane(n.x, n.y, n.z, w, area);
    }

    // Adjacency: triangles per vertex (indices into work.triangles).
    std::vector<std::vector<std::uint32_t>> facesOf(work.vertexCount());
    for (std::uint32_t ti = 0; ti < work.triangleCount(); ++ti) {
        const Triangle& t = work.triangles[ti];
        facesOf[t.a].push_back(ti);
        facesOf[t.b].push_back(ti);
        facesOf[t.c].push_back(ti);
    }
    std::vector<bool> faceAlive(work.triangleCount(), true);
    std::vector<std::uint32_t> version(work.vertexCount(), 0);
    std::vector<std::uint32_t> remap(work.vertexCount());
    for (std::uint32_t v = 0; v < work.vertexCount(); ++v) remap[v] = v;

    auto resolve = [&remap](std::uint32_t v) {
        while (remap[v] != v) v = remap[v];
        return v;
    };

    std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>> heap;
    auto enqueue = [&](std::uint32_t v1, std::uint32_t v2) {
        v1 = resolve(v1);
        v2 = resolve(v2);
        if (v1 == v2) return;
        const Quadric q = quadrics[v1] + quadrics[v2];
        Vec3f pos;
        if (!q.optimalPosition(pos))
            pos = (work.vertices[v1] + work.vertices[v2]) * 0.5f;
        heap.push({q.evaluate(pos), v1, v2, pos,
                   static_cast<std::uint64_t>(version[v1]) + version[v2]});
    };

    std::set<std::pair<std::uint32_t, std::uint32_t>> seeded;
    for (const Triangle& t : work.triangles) {
        auto seed = [&](std::uint32_t a, std::uint32_t b) {
            if (a > b) std::swap(a, b);
            if (seeded.insert({a, b}).second) enqueue(a, b);
        };
        seed(t.a, t.b);
        seed(t.b, t.c);
        seed(t.c, t.a);
    }

    std::size_t aliveTriangles = work.triangleCount();
    while (aliveTriangles > options.targetTriangles && !heap.empty()) {
        const Candidate cand = heap.top();
        heap.pop();
        const std::uint32_t v1 = resolve(cand.v1);
        const std::uint32_t v2 = resolve(cand.v2);
        if (v1 == v2) continue;
        // Lazy invalidation: stale if either vertex changed since enqueue.
        if (static_cast<std::uint64_t>(version[v1]) + version[v2] != cand.stamp ||
            v1 != cand.v1 || v2 != cand.v2)
            continue;

        // Normal-flip guard over surviving faces of both vertices.
        bool flips = false;
        for (const std::uint32_t vi : {v1, v2}) {
            for (const std::uint32_t ti : facesOf[vi]) {
                if (!faceAlive[ti]) continue;
                Triangle t = work.triangles[ti];
                t.a = resolve(t.a);
                t.b = resolve(t.b);
                t.c = resolve(t.c);
                // Faces containing both vertices die; skip them.
                const bool hasV1 = t.a == v1 || t.b == v1 || t.c == v1;
                const bool hasV2 = t.a == v2 || t.b == v2 || t.c == v2;
                if (hasV1 && hasV2) continue;
                const Vec3f before = work.triangleNormal(t);
                Triangle moved = t;
                auto sub = [&](std::uint32_t& idx) {
                    if (idx == v1 || idx == v2) idx = v1;  // v1 is kept
                };
                sub(moved.a);
                sub(moved.b);
                sub(moved.c);
                const Vec3f oldPos = work.vertices[v1];
                work.vertices[v1] = cand.position;
                const Vec3f after = work.triangleNormal(moved);
                work.vertices[v1] = oldPos;
                if (before.dot(after) < kMaxNormalFlipCos) {
                    flips = true;
                    break;
                }
            }
            if (flips) break;
        }
        if (flips) {
            ++result.collapsesRejected;
            continue;
        }

        // Apply: merge v2 into v1 at the optimal position.
        work.vertices[v1] = cand.position;
        if (hasColors)
            work.colors[v1] = (work.colors[v1] + work.colors[v2]) * 0.5f;
        quadrics[v1] = quadrics[v1] + quadrics[v2];
        remap[v2] = v1;
        ++version[v1];

        // Kill degenerate faces; move v2's faces to v1.
        for (const std::uint32_t ti : facesOf[v2]) {
            if (!faceAlive[ti]) continue;
            Triangle t = work.triangles[ti];
            const std::uint32_t a = resolve(t.a), b = resolve(t.b), c = resolve(t.c);
            if (a == b || b == c || a == c) {
                faceAlive[ti] = false;
                --aliveTriangles;
            } else {
                facesOf[v1].push_back(ti);
            }
        }
        ++result.collapsesApplied;

        // Refresh candidate edges around the merged vertex.
        std::set<std::uint32_t> neighbors;
        for (const std::uint32_t ti : facesOf[v1]) {
            if (!faceAlive[ti]) continue;
            const Triangle& t = work.triangles[ti];
            for (const std::uint32_t v : {t.a, t.b, t.c}) {
                const std::uint32_t rv = resolve(v);
                if (rv != v1) neighbors.insert(rv);
            }
        }
        for (const std::uint32_t n : neighbors) enqueue(v1, n);
    }

    // Compact the result.
    std::vector<std::uint32_t> newIndex(work.vertexCount(),
                                        std::numeric_limits<std::uint32_t>::max());
    TriMesh out;
    for (std::uint32_t ti = 0; ti < work.triangleCount(); ++ti) {
        if (!faceAlive[ti]) continue;
        Triangle t = work.triangles[ti];
        std::array<std::uint32_t, 3> vs{resolve(t.a), resolve(t.b), resolve(t.c)};
        if (vs[0] == vs[1] || vs[1] == vs[2] || vs[0] == vs[2]) continue;
        Triangle nt;
        std::uint32_t* slots[3] = {&nt.a, &nt.b, &nt.c};
        for (int k = 0; k < 3; ++k) {
            const std::uint32_t v = vs[static_cast<std::size_t>(k)];
            if (newIndex[v] == std::numeric_limits<std::uint32_t>::max()) {
                newIndex[v] = static_cast<std::uint32_t>(out.vertices.size());
                out.vertices.push_back(work.vertices[v]);
                if (hasColors) out.colors.push_back(work.colors[v]);
            }
            *slots[k] = newIndex[v];
        }
        out.triangles.push_back(nt);
    }
    out.computeVertexNormals();
    result.mesh = std::move(out);
    return result;
}

}  // namespace semholo::mesh
