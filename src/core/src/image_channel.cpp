// Image-based semantics (section 3.2): the sender delivers compressed 2D
// views; the receiver maintains a slimmable NeRF — pre-trained on the
// first frame (cold start) and fine-tuned per frame on the changed
// pixels — and renders the remote participant from a novel viewpoint.
#include "semholo/capture/rasterizer.hpp"
#include "semholo/compress/texturecodec.hpp"
#include "semholo/core/channel.hpp"
#include "semholo/geometry/byteio.hpp"
#include "semholo/nerf/trainer.hpp"

namespace semholo::core {

namespace {

using byteio::putU32;

class ImageChannel final : public SemanticChannel {
public:
    explicit ImageChannel(const ImageChannelOptions& options)
        : options_(options), field_(fieldConfig(options)) {
        buildCameras();
    }

    std::string name() const override { return "image-nerf"; }

    EncodedFrame encode(const FrameContext& frame) override {
        EncodedFrame out;
        out.frameId = frame.pose.frameId;
        const mesh::TriMesh gt = frame.groundTruth();
        putU32(out.data, static_cast<std::uint32_t>(cameras_.size()));
        for (const auto& cam : cameras_) {
            const capture::RGBDFrame view = capture::rasterize(gt, cam);
            const auto blocks = compress::encodeColorBlocks(view.color.data());
            putU32(out.data, static_cast<std::uint32_t>(blocks.size()));
            out.data.insert(out.data.end(), blocks.begin(), blocks.end());
        }
        return out;
    }

    DecodedFrame decode(const EncodedFrame& encoded) override {
        DecodedFrame out;
        out.frameId = encoded.frameId;
        byteio::Reader r{encoded.data};
        const std::uint32_t count = r.u32();
        if (r.fail || count != cameras_.size()) return out;
        std::vector<nerf::TrainView> views;
        for (std::uint32_t v = 0; v < count; ++v) {
            const auto block = r.bytes(r.u32());
            if (r.fail) return out;
            const auto colors = compress::decodeColorBlocks(block);
            if (!colors ||
                colors->size() != static_cast<std::size_t>(options_.imageWidth) *
                                      static_cast<std::size_t>(options_.imageHeight))
                return out;
            capture::RGBImage img(options_.imageWidth, options_.imageHeight);
            img.data() = *colors;
            views.push_back({cameras_[v], std::move(img)});
        }

        nerf::TrainerConfig tcfg = trainerConfig();
        nerf::NerfTrainer trainer(field_, tcfg);
        if (!coldStarted_) {
            trainer.pretrain(views, options_.pretrainSteps);
            coldStarted_ = true;
        } else {
            trainer.fineTuneOnChanges(previousViews_, views, options_.fineTuneSteps);
        }
        previousViews_ = views;

        // Render the participant from a novel viewpoint between cameras.
        const geom::Camera novel = ringCamera(0.5f);
        out.view = nerf::renderImage(field_, novel, tcfg.render);
        out.valid = true;
        return out;
    }

    void reset() override {
        field_ = nerf::RadianceField(fieldConfig(options_));
        coldStarted_ = false;
        previousViews_.clear();
    }

private:
    static nerf::FieldConfig fieldConfig(const ImageChannelOptions& options) {
        nerf::FieldConfig fc;
        fc.encodingLevels = 4;
        fc.hiddenWidth = 40;
        fc.hiddenLayers = 3;
        fc.seed = options.seed;
        return fc;
    }

    nerf::TrainerConfig trainerConfig() const {
        nerf::TrainerConfig tcfg;
        tcfg.render.near = options_.cameraRadius - 1.3f;
        tcfg.render.far = options_.cameraRadius + 1.3f;
        tcfg.render.samplesPerRay = 20;
        tcfg.render.widthFraction = options_.nerfWidthFraction;
        tcfg.raysPerStep = 96;
        tcfg.adam.learningRate = 5e-3f;
        tcfg.seed = options_.seed;
        return tcfg;
    }

    geom::Camera ringCamera(float offset) const {
        const float angle = 2.0f * static_cast<float>(M_PI) *
                            (offset) / static_cast<float>(options_.viewCount);
        const geom::Vec3f eye{options_.cameraRadius * std::sin(angle), 0.2f,
                              options_.cameraRadius * std::cos(angle)};
        return geom::Camera::lookAt(
            eye, {0, 0, 0}, {0, 1, 0},
            geom::CameraIntrinsics::fromFov(options_.imageWidth,
                                            options_.imageHeight, options_.fovY));
    }

    void buildCameras() {
        for (int i = 0; i < options_.viewCount; ++i)
            cameras_.push_back(ringCamera(static_cast<float>(i)));
    }

    ImageChannelOptions options_;
    std::vector<geom::Camera> cameras_;
    nerf::RadianceField field_;
    std::vector<nerf::TrainView> previousViews_;
    bool coldStarted_{false};
};

}  // namespace

std::unique_ptr<SemanticChannel> makeImageChannel(const ImageChannelOptions& options) {
    return std::make_unique<ImageChannel>(options);
}

}  // namespace semholo::core
