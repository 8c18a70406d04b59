#include "semholo/recon/texture.hpp"

#include <cmath>

#include "semholo/mesh/kdtree.hpp"
#include "semholo/mesh/sampling.hpp"

namespace semholo::recon {

// Neighbours averaged per vertex by the learned-texture stand-in.
constexpr std::size_t kMaxNeighbors = 64;

double projectTexture(TriMesh& target, const TriMesh& reference,
                      std::size_t referenceSamples) {
    if (target.empty() || reference.empty() || !reference.hasColors()) return 0.0;
    const mesh::PointCloud samples =
        mesh::sampleSurface(reference, referenceSamples, 97);
    if (samples.empty() || !samples.hasColors()) return 0.0;
    const mesh::KdTree tree(samples.points);

    target.colors.resize(target.vertexCount());
    double totalDist = 0.0;
    for (std::size_t i = 0; i < target.vertexCount(); ++i) {
        const auto hit = tree.nearest(target.vertices[i]);
        target.colors[i] = samples.colors[hit.index];
        totalDist += std::sqrt(static_cast<double>(hit.distance2));
    }
    return totalDist / static_cast<double>(target.vertexCount());
}

void applyLearnedTexture(TriMesh& mesh, const LearnedTextureOptions& options) {
    if (!mesh.hasColors()) return;
    const float radius = options.radiusFraction * mesh.bounds().diagonal();
    const mesh::KdTree tree(mesh.vertices);
    std::vector<geom::Vec3f> smoothed(mesh.vertexCount());
    for (std::size_t i = 0; i < mesh.vertexCount(); ++i) {
        const auto neighbors = tree.radiusSearch(mesh.vertices[i], radius);
        geom::Vec3f sum{};
        float weight = 0.0f;
        std::size_t used = 0;
        for (const std::uint32_t n : neighbors) {
            if (used++ >= kMaxNeighbors) break;
            const float d = (mesh.vertices[n] - mesh.vertices[i]).norm();
            const float w = std::exp(-d * d / (radius * radius * 0.25f));
            sum += mesh.colors[n] * w;
            weight += w;
        }
        smoothed[i] = weight > 0.0f ? sum / weight : mesh.colors[i];
    }
    mesh.colors = std::move(smoothed);
}

double colorError(const TriMesh& a, const TriMesh& b) {
    if (!a.hasColors() || !b.hasColors() || a.vertexCount() != b.vertexCount())
        return 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < a.vertexCount(); ++i)
        total += (a.colors[i] - b.colors[i]).norm();
    return total / static_cast<double>(a.vertexCount());
}

}  // namespace semholo::recon
