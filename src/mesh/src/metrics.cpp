#include "semholo/mesh/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "semholo/core/thread_pool.hpp"
#include "semholo/mesh/kdtree.hpp"
#include "semholo/mesh/sampling.hpp"

namespace semholo::mesh {

namespace {

// Fixed chunk size (independent of worker count) so per-chunk partial
// sums merge in a deterministic order: results are identical however
// many workers the pool has, including one.
constexpr std::size_t kMetricsChunk = 4096;

struct DirectionalStats {
    double mean{};
    double max{};
    double sumSq{};
    double normalDot{};
    std::size_t count{};
};

DirectionalStats directed(const PointCloud& from, const PointCloud& to,
                          const KdTree& toTree) {
    const bool haveNormals = from.hasNormals() && to.hasNormals();
    const std::size_t n = from.points.size();
    auto scan = [&](std::size_t begin, std::size_t end) {
        DirectionalStats s;
        for (std::size_t i = begin; i < end; ++i) {
            const auto hit = toTree.nearest(from.points[i]);
            if (!hit.valid()) continue;
            const double d = std::sqrt(static_cast<double>(hit.distance2));
            s.mean += d;
            s.sumSq += static_cast<double>(hit.distance2);
            s.max = std::max(s.max, d);
            if (haveNormals)
                s.normalDot += std::fabs(static_cast<double>(
                    from.normals[i].dot(to.normals[hit.index])));
            ++s.count;
        }
        return s;
    };

    const std::size_t chunks = (n + kMetricsChunk - 1) / kMetricsChunk;
    std::vector<DirectionalStats> partial(chunks);
    core::parallelFor(&core::sharedPool(), chunks, [&](std::size_t c) {
        partial[c] = scan(c * kMetricsChunk, std::min(n, (c + 1) * kMetricsChunk));
    });
    DirectionalStats s;
    for (const DirectionalStats& p : partial) {
        s.mean += p.mean;
        s.sumSq += p.sumSq;
        s.max = std::max(s.max, p.max);
        s.normalDot += p.normalDot;
        s.count += p.count;
    }
    if (s.count > 0) {
        s.mean /= static_cast<double>(s.count);
        s.normalDot /= static_cast<double>(s.count);
    }
    return s;
}

// An empty side has no distances to report: every field is NaN, never
// a 0 that reads as a perfect match.
GeometryErrorStats noData() {
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan, nan, nan, nan, nan, nan};
}

}  // namespace

GeometryErrorStats compareClouds(const PointCloud& a, const PointCloud& b) {
    if (a.empty() || b.empty()) return noData();
    GeometryErrorStats out;

    KdTree treeA(a.points);
    KdTree treeB(b.points);
    const DirectionalStats ab = directed(a, b, treeB);
    const DirectionalStats ba = directed(b, a, treeA);

    out.meanForward = ab.mean;
    out.meanBackward = ba.mean;
    out.chamfer = 0.5 * (ab.mean + ba.mean);
    out.hausdorff = std::max(ab.max, ba.max);
    const std::size_t n = ab.count + ba.count;
    out.rmse = n > 0 ? std::sqrt((ab.sumSq + ba.sumSq) / static_cast<double>(n)) : 0.0;
    if (a.hasNormals() && b.hasNormals())
        out.normalConsistency = 0.5 * (ab.normalDot + ba.normalDot);

    // MPEG point-to-point PSNR: peak = diagonal of the reference (a).
    const double peak = a.bounds().diagonal();
    const double mseSym =
        n > 0 ? (ab.sumSq + ba.sumSq) / static_cast<double>(n) : 0.0;
    if (peak > 0.0 && mseSym > 0.0)
        out.psnr = 10.0 * std::log10(peak * peak / mseSym);
    else
        out.psnr = mseSym == 0.0 ? 1e9 : 0.0;
    return out;
}

GeometryErrorStats compareMeshes(const TriMesh& a, const TriMesh& b,
                                 std::size_t samplesPerMesh, std::uint64_t seed) {
    const PointCloud ca = sampleSurface(a, samplesPerMesh, seed);
    const PointCloud cb = sampleSurface(b, samplesPerMesh, seed + 1);
    return compareClouds(ca, cb);
}

double pointToMeshError(const PointCloud& cloud, const TriMesh& reference) {
    if (cloud.empty() || reference.triangles.empty())
        return std::numeric_limits<double>::quiet_NaN();

    // Candidate pruning: KD-tree over triangle centroids; test the
    // triangles whose centroids are nearest, plus a conservative radius.
    std::vector<Vec3f> centroids;
    centroids.reserve(reference.triangles.size());
    float maxTriRadius = 0.0f;
    for (const Triangle& t : reference.triangles) {
        const Vec3f c = (reference.vertices[t.a] + reference.vertices[t.b] +
                         reference.vertices[t.c]) /
                        3.0f;
        centroids.push_back(c);
        maxTriRadius = std::max({maxTriRadius, (reference.vertices[t.a] - c).norm(),
                                 (reference.vertices[t.b] - c).norm(),
                                 (reference.vertices[t.c] - c).norm()});
    }
    KdTree tree(centroids);

    auto scan = [&](std::size_t begin, std::size_t end) {
        double sum = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
            const Vec3f& p = cloud.points[i];
            const auto near = tree.nearest(p);
            if (!near.valid()) continue;
            const float searchRadius =
                std::sqrt(near.distance2) + 2.0f * maxTriRadius;
            const auto candidates = tree.radiusSearch(p, searchRadius);
            float best = std::numeric_limits<float>::max();
            for (const std::uint32_t ti : candidates) {
                const Triangle& t = reference.triangles[ti];
                const Vec3f cp = geom::closestPointOnTriangle(
                    p, reference.vertices[t.a], reference.vertices[t.b],
                    reference.vertices[t.c]);
                best = std::min(best, (p - cp).norm2());
            }
            if (best < std::numeric_limits<float>::max())
                sum += std::sqrt(static_cast<double>(best));
        }
        return sum;
    };

    const std::size_t n = cloud.points.size();
    const std::size_t chunks = (n + kMetricsChunk - 1) / kMetricsChunk;
    std::vector<double> partial(chunks, 0.0);
    core::parallelFor(&core::sharedPool(), chunks, [&](std::size_t c) {
        partial[c] = scan(c * kMetricsChunk, std::min(n, (c + 1) * kMetricsChunk));
    });
    double total = 0.0;
    for (const double p : partial) total += p;
    return total / static_cast<double>(n);
}

}  // namespace semholo::mesh
