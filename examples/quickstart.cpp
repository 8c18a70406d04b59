// SemHolo quickstart: one frame through the keypoint-semantics pipeline.
//
//   capture (synthetic subject) -> keypoint payload (1.91 KB)
//   -> LZC compression -> [Internet] -> reconstruction -> metrics
//
// Writes the ground-truth and reconstructed meshes as OBJ files you can
// open in any viewer, under an output/ directory next to the binary
// (SEMHOLO_OUTPUT_DIR overrides) so repeated runs never litter the
// source tree.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "semholo/body/animation.hpp"
#include "semholo/compress/lzc.hpp"
#include "semholo/core/channel.hpp"
#include "semholo/mesh/io.hpp"
#include "semholo/mesh/metrics.hpp"

using namespace semholo;

int main() {
    std::printf("SemHolo quickstart\n==================\n\n");

    // 1. A subject: parametric body with default shape, talking.
    const body::BodyModel model{body::ShapeParams{}};
    const body::MotionGenerator motion(body::MotionKind::Talk, model.shape());
    std::printf("subject template: %zu vertices, %zu triangles\n",
                model.templateMesh().vertexCount(),
                model.templateMesh().triangleCount());

    // 2. Capture one frame (the pose a detector + IK would produce).
    core::FrameContext frame;
    frame.pose = motion.poseAt(0.5);
    frame.model = &model;

    // 3. Sender: encode the frame on the keypoint channel. Channels are
    // built from data — swap the kind or params to try another column of
    // the taxonomy (core::listChannelKinds() enumerates them).
    const core::ChannelSpec spec{"keypoint", {{"reconResolution", 96}}};
    auto channel = core::makeChannel(spec, &model);
    const core::EncodedFrame encoded = channel->encode(frame);
    std::printf("keypoint payload: %zu bytes (%.2f KB; paper: 1.91 KB raw, "
                "1.23 KB after LZMA)\n",
                encoded.bytes(), encoded.bytes() / 1024.0);

    // 4. Receiver: reconstruct the remote participant.
    const auto t0 = std::chrono::steady_clock::now();
    const core::DecodedFrame decoded = channel->decode(encoded);
    const double reconMs = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    if (!decoded.valid) {
        std::printf("reconstruction failed\n");
        return 1;
    }
    std::printf("reconstructed mesh: %zu triangles in %.0f ms (%.2f FPS)\n",
                decoded.mesh.triangleCount(), reconMs, 1000.0 / reconMs);

    // 5. Compare with the ground-truth capture mesh.
    const mesh::TriMesh groundTruth = frame.groundTruth();
    const auto err = mesh::compareMeshes(groundTruth, decoded.mesh, 20000);
    std::printf("quality vs ground truth: chamfer %.2f mm, hausdorff %.1f mm, "
                "PSNR %.1f dB\n",
                err.chamfer * 1000.0, err.hausdorff * 1000.0, err.psnr);

    const char* outEnv = std::getenv("SEMHOLO_OUTPUT_DIR");
    const std::filesystem::path outDir = outEnv != nullptr ? outEnv : "output";
    std::error_code ec;
    std::filesystem::create_directories(outDir, ec);
    const std::string gtPath = (outDir / "quickstart_ground_truth.obj").string();
    const std::string reconPath =
        (outDir / "quickstart_reconstruction.obj").string();
    mesh::saveOBJ(groundTruth, gtPath);
    mesh::saveOBJ(decoded.mesh, reconPath);
    std::printf("\nwrote %s and %s\n", gtPath.c_str(), reconPath.c_str());
    std::printf("bandwidth at 30 FPS: %.2f Mbps (traditional raw mesh: %.1f Mbps)\n",
                encoded.bytes() * 8.0 * 30.0 / 1e6,
                groundTruth.rawGeometryBytes() * 8.0 * 30.0 / 1e6);
    return 0;
}
