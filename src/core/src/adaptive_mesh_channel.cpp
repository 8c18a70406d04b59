// Rate-adaptive traditional mesh streaming: QEM LOD ladder + mesh codec
// + rate-based ABR driven by the receiver's throughput feedback.
//
// LOD topology is built ONCE (first frame): each ladder level is a QEM
// simplification of the subject mesh plus a nearest-vertex
// correspondence back to the full mesh. Subsequent frames reuse the
// fixed LOD topology and only re-position its vertices from the deformed
// full mesh — the standard precomputed-LOD pipeline, so per-frame sender
// cost is codec-bound, not simplification-bound.
#include "semholo/compress/meshcodec.hpp"
#include "semholo/core/channel.hpp"
#include "semholo/mesh/kdtree.hpp"
#include "semholo/mesh/simplify.hpp"
#include "semholo/net/abr.hpp"

namespace semholo::core {

namespace {

class AdaptiveMeshChannel final : public SemanticChannel {
public:
    explicit AdaptiveMeshChannel(const AdaptiveMeshOptions& options)
        : options_(options) {
        if (options_.ladderTriangles.empty()) options_.ladderTriangles = {4000};
        std::sort(options_.ladderTriangles.begin(), options_.ladderTriangles.end());
    }

    std::string name() const override { return "traditional-abr"; }

    EncodedFrame encode(const FrameContext& frame) override {
        EncodedFrame out;
        out.frameId = frame.pose.frameId;

        mesh::TriMesh gt = frame.groundTruth();
        gt.colors.clear();

        // One-time LOD-ladder construction on the first frame: session
        // setup, like a codec handshake. The engine times the whole call,
        // so the first frame's extractMs includes it.
        if (levels_.empty()) calibrate(gt);
        if (levels_.empty() || gt.vertexCount() != fullVertexCount_)
            return out;  // wrong subject

        const std::size_t levelIdx =
            frame.estimatedBandwidthBps > 0.0 && abr_
                ? abr_->chooseLevel(frame.estimatedBandwidthBps)
                : 0;  // cold start: lowest LOD
        lastLevel_ = levelIdx;
        const Level& level = levels_[levelIdx];

        // Re-skin the precomputed LOD topology from the deformed mesh.
        mesh::TriMesh lod;
        lod.triangles = level.triangles;
        lod.vertices.resize(level.vertexMap.size());
        for (std::size_t i = 0; i < level.vertexMap.size(); ++i)
            lod.vertices[i] = gt.vertices[level.vertexMap[i]];

        compress::MeshCodecOptions codec;
        codec.encodeColors = false;
        out.data = compress::encodeMesh(lod, codec);
        return out;
    }

    DecodedFrame decode(const EncodedFrame& encoded) override {
        DecodedFrame out;
        out.frameId = encoded.frameId;
        auto m = compress::decodeMesh(encoded.data);
        if (m) {
            out.mesh = std::move(*m);
            out.valid = true;
        }
        return out;
    }

    void reset() override {
        levels_.clear();
        abr_.reset();
        lastLevel_ = 0;
    }

    std::size_t lastLevel() const { return lastLevel_; }

private:
    struct Level {
        std::vector<mesh::Triangle> triangles;
        std::vector<std::uint32_t> vertexMap;  // LOD vertex -> full vertex
    };

    void calibrate(const mesh::TriMesh& gt) {
        fullVertexCount_ = gt.vertexCount();
        const mesh::KdTree fullTree(gt.vertices);

        std::vector<net::QualityLevel> ladder;
        compress::MeshCodecOptions codec;
        codec.encodeColors = false;
        for (const std::size_t budget : options_.ladderTriangles) {
            mesh::TriMesh lod = gt;
            if (gt.triangleCount() > budget) {
                mesh::SimplifyOptions so;
                so.targetTriangles = budget;
                lod = mesh::simplify(gt, so).mesh;
            }
            Level level;
            level.triangles = lod.triangles;
            level.vertexMap.reserve(lod.vertexCount());
            for (const auto& v : lod.vertices)
                level.vertexMap.push_back(fullTree.nearest(v).index);
            const auto bytes = compress::encodeMesh(lod, codec).size();
            ladder.push_back({"lod-" + std::to_string(budget),
                              static_cast<double>(bytes) * 8.0 * options_.fps,
                              static_cast<double>(budget)});
            levels_.push_back(std::move(level));
        }
        abr_.emplace(std::move(ladder), options_.safety);
    }

    AdaptiveMeshOptions options_;
    std::vector<Level> levels_;
    std::optional<net::RateBasedAbr> abr_;
    std::size_t fullVertexCount_{0};
    std::size_t lastLevel_{0};
};

}  // namespace

std::unique_ptr<SemanticChannel> makeAdaptiveMeshChannel(
    const AdaptiveMeshOptions& options) {
    return std::make_unique<AdaptiveMeshChannel>(options);
}

}  // namespace semholo::core
