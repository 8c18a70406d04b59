#include "semholo/core/channel.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>

#include "semholo/compress/codec2.hpp"
#include "semholo/compress/meshcodec.hpp"
#include "semholo/gaze/foveation.hpp"
#include "semholo/geometry/byteio.hpp"
#include "semholo/recon/keypoint_recon.hpp"
#include "semholo/textsem/delta.hpp"

namespace semholo::core {

namespace {

using byteio::putU32;

// Raw (uncompressed) mesh wire format for the "traditional w/o
// compression" row of Table 2: header + positions + indices.
std::vector<std::uint8_t> serializeRawMesh(const mesh::TriMesh& m) {
    std::vector<std::uint8_t> out;
    putU32(out, static_cast<std::uint32_t>(m.vertexCount()));
    putU32(out, static_cast<std::uint32_t>(m.triangleCount()));
    const auto* vbytes = reinterpret_cast<const std::uint8_t*>(m.vertices.data());
    out.insert(out.end(), vbytes, vbytes + m.vertices.size() * sizeof(geom::Vec3f));
    const auto* tbytes = reinterpret_cast<const std::uint8_t*>(m.triangles.data());
    out.insert(out.end(), tbytes, tbytes + m.triangles.size() * sizeof(mesh::Triangle));
    return out;
}

bool deserializeRawMesh(std::span<const std::uint8_t> data, mesh::TriMesh& out) {
    byteio::Reader r{data};
    const std::uint32_t nv = r.u32();
    const std::uint32_t nt = r.u32();
    const std::size_t need =
        8 + static_cast<std::size_t>(nv) * sizeof(geom::Vec3f) +
        static_cast<std::size_t>(nt) * sizeof(mesh::Triangle);
    if (r.fail || data.size() != need) return false;
    out.vertices.resize(nv);
    std::memcpy(out.vertices.data(), r.bytes(nv * sizeof(geom::Vec3f)).data(),
                nv * sizeof(geom::Vec3f));
    out.triangles.resize(nt);
    std::memcpy(out.triangles.data(), r.bytes(nt * sizeof(mesh::Triangle)).data(),
                nt * sizeof(mesh::Triangle));
    for (const mesh::Triangle& t : out.triangles)
        if (t.a >= nv || t.b >= nv || t.c >= nv) return false;
    return true;
}

// The pose payload on the wire: codec v2 over the serialised pose when
// 'compress' is set, the serialised pose itself otherwise.
std::vector<std::uint8_t> encodePosePayload(const body::Pose& pose, bool compress,
                                            const compress::Codec2Options& codec) {
    std::vector<std::uint8_t> payload = body::serializePose(pose);
    if (!compress) return payload;
    return compress::codec2Encode(payload, codec);
}

std::optional<body::Pose> decodePosePayload(std::span<const std::uint8_t> data,
                                            bool compress) {
    if (!compress) return body::deserializePose(data);
    const auto payload = compress::codec2Decode(data);
    if (!payload) return std::nullopt;
    return body::deserializePose(*payload);
}

// Reconstruct 'pose' at 'resolution' into out.mesh and out.recon; false
// when reconstruction failed.
bool reconstructInto(const body::Pose& pose, int resolution, DecodedFrame& out) {
    recon::ReconstructionOptions ro;
    ro.resolution = resolution;
    ro.device = recon::DeviceProfile::host();
    recon::ReconstructionResult result = recon::reconstructFromPose(pose, ro);
    out.mesh = std::move(result.mesh);
    out.recon = result.stats;
    return result.success;
}

class TraditionalChannel final : public SemanticChannel {
public:
    explicit TraditionalChannel(const TraditionalOptions& options)
        : options_(options) {}

    std::string name() const override {
        return options_.compress ? "traditional+draco" : "traditional";
    }

    EncodedFrame encode(const FrameContext& frame) override {
        EncodedFrame out;
        out.frameId = frame.pose.frameId;
        mesh::TriMesh m = frame.groundTruth();
        if (!options_.withColors) m.colors.clear();
        if (options_.compress) {
            compress::MeshCodecOptions codec;
            codec.encodeColors = options_.withColors;
            out.data = compress::encodeMesh(m, codec);
        } else {
            out.data = serializeRawMesh(m);
        }
        return out;
    }

    DecodedFrame decode(const EncodedFrame& encoded) override {
        DecodedFrame out;
        out.frameId = encoded.frameId;
        if (options_.compress) {
            auto m = compress::decodeMesh(encoded.data);
            if (m) {
                out.mesh = std::move(*m);
                out.valid = true;
            }
        } else {
            out.valid = deserializeRawMesh(encoded.data, out.mesh);
            if (out.valid) out.mesh.computeVertexNormals();
        }
        return out;
    }

private:
    TraditionalOptions options_;
};

class KeypointChannel final : public SemanticChannel {
public:
    explicit KeypointChannel(const KeypointChannelOptions& options)
        : options_(options) {}

    std::string name() const override { return "keypoint"; }

    EncodedFrame encode(const FrameContext& frame) override {
        EncodedFrame out;
        out.frameId = frame.pose.frameId;
        out.data = encodePosePayload(frame.pose, options_.compressPayload,
                                     options_.codec);
        out.simulatedExtractMs = options_.simulatedDetectMs;
        return out;
    }

    DecodedFrame decode(const EncodedFrame& encoded) override {
        DecodedFrame out;
        out.frameId = encoded.frameId;
        const auto pose = decodePosePayload(encoded.data, options_.compressPayload);
        if (pose) out.valid = reconstructInto(*pose, options_.reconResolution, out);
        return out;
    }

private:
    KeypointChannelOptions options_;
};

class TextChannel final : public SemanticChannel {
public:
    explicit TextChannel(const TextChannelOptions& options) : options_(options) {}

    std::string name() const override { return "text"; }

    EncodedFrame encode(const FrameContext& frame) override {
        EncodedFrame out;
        out.frameId = frame.pose.frameId;
        const auto packet = encoder_.encode(frame.pose);
        // Wire: frameId | flags | mask | payload.
        putU32(out.data, packet.frameId);
        out.data.push_back(packet.keyframe ? 1 : 0);
        out.data.push_back(packet.globalPresent ? 1 : 0);
        putU32(out.data, packet.channelMask);
        out.data.insert(out.data.end(), packet.payload.begin(), packet.payload.end());
        out.simulatedExtractMs = textsem::captionCostMs(packet.cellsEncoded());
        return out;
    }

    DecodedFrame decode(const EncodedFrame& encoded) override {
        DecodedFrame out;
        out.frameId = encoded.frameId;
        byteio::Reader r{encoded.data};
        textsem::DeltaPacket packet;
        packet.frameId = r.u32();
        packet.keyframe = r.u8() != 0;
        packet.globalPresent = r.u8() != 0;
        packet.channelMask = r.u32();
        if (r.fail) return out;
        const auto payload = r.bytes(encoded.data.size() - r.pos);
        packet.payload.assign(payload.begin(), payload.end());
        const auto pose = decoder_.decode(packet);
        if (pose) {
            out.valid = !options_.reconstructMesh ||
                        reconstructInto(*pose, options_.reconResolution, out);
        }
        out.simulatedReconMs = textsem::reconCostMs(packet.cellsEncoded());
        return out;
    }

    void reset() override {
        encoder_.reset();
        decoder_.reset();
    }

private:
    TextChannelOptions options_;
    textsem::DeltaEncoder encoder_;
    textsem::DeltaDecoder decoder_;
};

class FoveatedChannel final : public SemanticChannel {
public:
    explicit FoveatedChannel(const FoveatedOptions& options) : options_(options) {}

    std::string name() const override { return "foveated-hybrid"; }

    EncodedFrame encode(const FrameContext& frame) override {
        EncodedFrame out;
        out.frameId = frame.pose.frameId;

        // Foveal region: full-quality mesh around the viewer's gaze.
        // During a saccade, saccadic omission applies: vision is
        // suppressed, so the foveal stream shrinks to half radius and is
        // re-aimed at the *predicted landing position* — prefetching the
        // region the eye is about to land on (section 3.1).
        const bool suppressed = options_.saccadicOmission &&
                                frame.viewerGazeState ==
                                    gaze::EyeMovement::Saccade;
        const gaze::Vec2f aimDeg =
            suppressed ? frame.viewerPredictedLandingDeg : frame.viewerGazeDeg;

        const mesh::TriMesh gt = frame.groundTruth();
        std::vector<std::uint8_t> fovealBytes;
        {
            const geom::Ray gaze = gaze::gazeRay(frame.viewerHead, aimDeg);
            gaze::FoveationConfig fc;
            fc.fovealRadiusDeg =
                suppressed ? options_.fovealRadiusDeg * 0.5 : options_.fovealRadiusDeg;
            const auto partition = gaze::partitionMesh(gt, gaze, fc);
            const mesh::TriMesh foveal = gaze::extractFovealMesh(gt, partition);
            if (!foveal.empty()) {
                compress::MeshCodecOptions codec;
                codec.encodeColors = gt.hasColors();
                fovealBytes = compress::encodeMesh(foveal, codec);
            }
        }
        // Peripheral: the 1.91 KB pose payload.
        const auto poseBytes =
            encodePosePayload(frame.pose, options_.compress, options_.codec);

        putU32(out.data, static_cast<std::uint32_t>(fovealBytes.size()));
        out.data.insert(out.data.end(), fovealBytes.begin(), fovealBytes.end());
        out.data.insert(out.data.end(), poseBytes.begin(), poseBytes.end());
        return out;
    }

    // Pose + peripheral reconstruction, then the foveal graft; invalid
    // when any section fails to decode.
    DecodedFrame decode(const EncodedFrame& encoded) override {
        DecodedFrame out;
        out.frameId = encoded.frameId;
        byteio::Reader r{encoded.data};
        const std::uint32_t fovealLen = r.u32();
        const std::span<const std::uint8_t> fovealSpan = r.bytes(fovealLen);
        if (r.fail) return out;
        const auto poseSpan = r.bytes(encoded.data.size() - r.pos);

        const auto pose = decodePosePayload(poseSpan, options_.compress);
        // Peripheral reconstruction at reduced resolution (the paper's
        // "keypoints for only peripheral regions").
        if (!pose || !reconstructInto(*pose, options_.peripheralResolution, out))
            return out;

        // Graft the full-quality foveal mesh (seam blending is the open
        // challenge the paper notes; we overlay).
        if (fovealLen > 0) {
            auto foveal = compress::decodeMesh(fovealSpan);
            if (!foveal) return out;
            out.mesh.append(*foveal);
        }
        out.valid = true;
        return out;
    }

private:
    FoveatedOptions options_;
};

// Synthetic cost-model channel: deterministic payload, configurable
// simulated stage costs, no geometry. The payload is a repeating pattern
// seeded by the frame id so byte-identity tests compare real content.
class SyntheticChannel final : public SemanticChannel {
public:
    explicit SyntheticChannel(const SyntheticChannelOptions& options)
        : options_(options) {}

    std::string name() const override { return "synthetic"; }

    EncodedFrame encode(const FrameContext& frame) override {
        EncodedFrame out;
        out.frameId = frame.pose.frameId;
        std::size_t bytes = options_.payloadBytes;
        if (options_.rateAdaptive && frame.estimatedBandwidthBps > 0.0 &&
            options_.fps > 0.0) {
            const auto budget = static_cast<std::size_t>(
                frame.estimatedBandwidthBps / 8.0 / options_.fps);
            bytes = std::min(bytes, budget);
        }
        bytes = std::max(bytes, options_.minBytes);
        out.data.resize(bytes);
        for (std::size_t i = 0; i < bytes; ++i)
            out.data[i] = static_cast<std::uint8_t>(
                (out.frameId * 131u + static_cast<std::uint32_t>(i)) & 0xFF);
        out.simulatedExtractMs = options_.simulatedExtractMs;
        return out;
    }

    DecodedFrame decode(const EncodedFrame& encoded) override {
        DecodedFrame out;
        out.frameId = encoded.frameId;
        out.valid = !encoded.data.empty();
        out.simulatedReconMs = options_.simulatedReconMs;
        return out;
    }

private:
    SyntheticChannelOptions options_;
};

}  // namespace

mesh::TriMesh FrameContext::groundTruth() const {
    return model != nullptr ? model->deform(pose) : mesh::TriMesh{};
}

std::unique_ptr<SemanticChannel> makeTraditionalChannel(
    const TraditionalOptions& options) {
    return std::make_unique<TraditionalChannel>(options);
}

std::unique_ptr<SemanticChannel> makeKeypointChannel(
    const KeypointChannelOptions& options) {
    return std::make_unique<KeypointChannel>(options);
}

std::unique_ptr<SemanticChannel> makeTextChannel(const TextChannelOptions& options) {
    return std::make_unique<TextChannel>(options);
}

std::unique_ptr<SemanticChannel> makeFoveatedChannel(const FoveatedOptions& options) {
    return std::make_unique<FoveatedChannel>(options);
}

std::unique_ptr<SemanticChannel> makeSyntheticChannel(
    const SyntheticChannelOptions& options) {
    return std::make_unique<SyntheticChannel>(options);
}

}  // namespace semholo::core
