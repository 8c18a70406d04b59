#include "semholo/capture/rasterizer.hpp"

#include <algorithm>
#include <cmath>

namespace semholo::capture {

namespace {

using geom::Camera;
using geom::Vec2f;
using geom::Vec3f;

// Headlight shading floor: faces seen edge-on keep this much of their
// colour.
constexpr float kAmbient = 0.35f;

struct ProjectedVertex {
    Vec2f pixel;
    float depth;   // camera-space z
    bool valid;
};

// Render with a per-pixel callback: shared by colour and depth paths.
template <typename PixelFn>
void rasterizeCore(const mesh::TriMesh& mesh, const Camera& camera, int width,
                   int height, DepthImage& depth, PixelFn&& writePixel) {
    std::vector<ProjectedVertex> projected(mesh.vertexCount());
    for (std::size_t i = 0; i < mesh.vertexCount(); ++i) {
        Vec2f pix;
        float z;
        const bool ok = camera.projectWorld(mesh.vertices[i], pix, z);
        projected[i] = {pix, z, ok};
    }

    for (std::size_t ti = 0; ti < mesh.triangleCount(); ++ti) {
        const mesh::Triangle& t = mesh.triangles[ti];
        const ProjectedVertex& a = projected[t.a];
        const ProjectedVertex& b = projected[t.b];
        const ProjectedVertex& c = projected[t.c];
        if (!a.valid || !b.valid || !c.valid) continue;

        const float minX = std::min({a.pixel.x, b.pixel.x, c.pixel.x});
        const float maxX = std::max({a.pixel.x, b.pixel.x, c.pixel.x});
        const float minY = std::min({a.pixel.y, b.pixel.y, c.pixel.y});
        const float maxY = std::max({a.pixel.y, b.pixel.y, c.pixel.y});
        const int x0 = std::max(0, static_cast<int>(std::floor(minX)));
        const int x1 = std::min(width - 1, static_cast<int>(std::ceil(maxX)));
        const int y0 = std::max(0, static_cast<int>(std::floor(minY)));
        const int y1 = std::min(height - 1, static_cast<int>(std::ceil(maxY)));
        if (x0 > x1 || y0 > y1) continue;

        const Vec2f e0 = b.pixel - a.pixel;
        const Vec2f e1 = c.pixel - a.pixel;
        const float denom = e0.x * e1.y - e0.y * e1.x;
        if (std::fabs(denom) < 1e-9f) continue;
        const float invDenom = 1.0f / denom;

        for (int y = y0; y <= y1; ++y) {
            for (int x = x0; x <= x1; ++x) {
                const Vec2f p{static_cast<float>(x) + 0.5f,
                              static_cast<float>(y) + 0.5f};
                const Vec2f d = p - a.pixel;
                const float v = (d.x * e1.y - d.y * e1.x) * invDenom;
                const float w = (e0.x * d.y - e0.y * d.x) * invDenom;
                const float u = 1.0f - v - w;
                if (u < 0.0f || v < 0.0f || w < 0.0f) continue;
                // Perspective-correct interpolation of depth: interpolate
                // 1/z linearly in screen space.
                const float invZ = u / a.depth + v / b.depth + w / c.depth;
                if (invZ <= 0.0f) continue;
                const float z = 1.0f / invZ;
                float& zb = depth.at(x, y);
                if (zb != 0.0f && zb <= z) continue;
                zb = z;
                // Perspective-correct barycentrics for attributes.
                const float pu = (u / a.depth) * z;
                const float pv = (v / b.depth) * z;
                const float pw = (w / c.depth) * z;
                writePixel(x, y, ti, pu, pv, pw);
            }
        }
    }
}

}  // namespace

RGBDFrame rasterize(const mesh::TriMesh& mesh, const Camera& camera,
                    const RasterizerOptions& options) {
    const int w = camera.intrinsics.width;
    const int h = camera.intrinsics.height;
    RGBDFrame frame;
    frame.color = RGBImage(w, h, options.background);
    frame.depth = DepthImage(w, h, 0.0f);

    const bool hasColors = mesh.hasColors();
    const bool hasNormals = mesh.hasNormals();
    const Vec3f eye = camera.worldFromCamera.translation;

    rasterizeCore(mesh, camera, w, h, frame.depth,
                  [&](int x, int y, std::size_t ti, float u, float v, float wgt) {
                      const mesh::Triangle& t = mesh.triangles[ti];
                      Vec3f color{0.6f, 0.6f, 0.6f};
                      if (hasColors)
                          color = mesh.colors[t.a] * u + mesh.colors[t.b] * v +
                                  mesh.colors[t.c] * wgt;
                      if (options.shade) {
                          Vec3f n;
                          if (hasNormals)
                              n = (mesh.normals[t.a] * u + mesh.normals[t.b] * v +
                                   mesh.normals[t.c] * wgt)
                                      .normalized();
                          else
                              n = mesh.triangleNormal(t);
                          const Vec3f pos = mesh.vertices[t.a] * u +
                                            mesh.vertices[t.b] * v +
                                            mesh.vertices[t.c] * wgt;
                          const Vec3f toEye = (eye - pos).normalized();
                          const float diffuse =
                              std::max(kAmbient, std::fabs(n.dot(toEye)));
                          color = color * diffuse;
                      }
                      frame.color.at(x, y) = color;
                  });
    return frame;
}

DepthImage rasterizeDepth(const mesh::TriMesh& mesh, const Camera& camera) {
    DepthImage depth(camera.intrinsics.width, camera.intrinsics.height, 0.0f);
    rasterizeCore(mesh, camera, camera.intrinsics.width, camera.intrinsics.height,
                  depth, [](int, int, std::size_t, float, float, float) {});
    return depth;
}

mesh::PointCloud unprojectToCloud(const RGBDFrame& frame, const Camera& camera,
                                  int stride) {
    mesh::PointCloud cloud;
    stride = std::max(1, stride);
    for (int y = 0; y < frame.depth.height(); y += stride) {
        for (int x = 0; x < frame.depth.width(); x += stride) {
            const float z = frame.depth.at(x, y);
            if (z <= 0.0f) continue;
            const Vec3f pCam = camera.intrinsics.unproject(
                {static_cast<float>(x) + 0.5f, static_cast<float>(y) + 0.5f}, z);
            cloud.points.push_back(camera.cameraToWorld(pCam));
            cloud.colors.push_back(frame.color.at(x, y));
        }
    }
    return cloud;
}

double imageMAE(const RGBImage& a, const RGBImage& b) {
    if (a.width() != b.width() || a.height() != b.height() || a.empty()) return 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < a.data().size(); ++i) {
        const Vec3f d = a.data()[i] - b.data()[i];
        total += (std::fabs(d.x) + std::fabs(d.y) + std::fabs(d.z)) / 3.0;
    }
    return total / static_cast<double>(a.data().size());
}

double imagePSNR(const RGBImage& a, const RGBImage& b) {
    if (a.width() != b.width() || a.height() != b.height() || a.empty()) return 0.0;
    double mse = 0.0;
    for (std::size_t i = 0; i < a.data().size(); ++i)
        mse += static_cast<double>((a.data()[i] - b.data()[i]).norm2()) / 3.0;
    mse /= static_cast<double>(a.data().size());
    if (mse <= 0.0) return 1e9;
    return 10.0 * std::log10(1.0 / mse);
}

}  // namespace semholo::capture
