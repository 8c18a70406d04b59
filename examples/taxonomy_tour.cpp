// Taxonomy tour: runs the same talking-participant sequence through all
// four channels — keypoint, text, image/NeRF, and the traditional mesh
// baseline — and prints a Table-1-style comparison, then the foveated
// hybrid as the section 3.1 middle ground.
#include <cstdio>
#include <memory>

#include "semholo/core/qoe.hpp"
#include "semholo/core/session.hpp"

using namespace semholo;

int main() {
    std::printf("SemHolo taxonomy tour: one sequence, every semantics\n\n");

    const body::BodyModel model{body::ShapeParams{}};
    core::SessionConfig cfg;
    cfg.frames = 9;
    cfg.motion = body::MotionKind::Talk;
    cfg.link.bandwidth = net::BandwidthTrace::constant(25e6);  // US broadband
    cfg.qualityEvalInterval = 4;
    cfg.qualitySamples = 5000;
    cfg.dropWhenBusy = false;

    struct Entry {
        const char* label;
        std::unique_ptr<core::SemanticChannel> channel;
    };
    std::vector<Entry> entries;
    {
        core::KeypointChannelOptions opt;
        opt.reconResolution = 48;
        entries.push_back({"keypoint", core::makeKeypointChannel(opt)});
    }
    {
        core::TextChannelOptions opt;
        opt.reconResolution = 48;
        entries.push_back({"text", core::makeTextChannel(opt)});
    }
    {
        core::ImageChannelOptions opt;
        opt.pretrainSteps = 100;
        opt.fineTuneSteps = 10;
        entries.push_back({"image (NeRF)", core::makeImageChannel(opt)});
    }
    {
        core::FoveatedOptions opt;
        entries.push_back({"foveated hybrid", core::makeFoveatedChannel(opt)});
    }
    entries.push_back({"traditional (codec)", core::makeTraditionalChannel({})});

    std::printf("%-20s %12s %12s %12s %12s %8s\n", "semantics", "KB/frame",
                "Mbps@30", "extract ms", "recon ms", "QoE");
    for (auto& entry : entries) {
        const auto stats = core::runSession(*entry.channel, model, cfg);
        const auto qoe = core::computeQoE(stats);
        std::printf("%-20s %12.2f %12.2f %12.1f %12.0f %8.2f\n", entry.label,
                    stats.telemetry.bytesPerFrame.mean() / 1024.0,
                    stats.bandwidthMbps, stats.telemetry.encodeMs.mean(),
                    stats.telemetry.decodeMs.mean(), qoe.mos);
    }

    std::printf(
        "\nReading the rows against Table 1: keypoints are tiny but expensive\n"
        "to reconstruct; text is tinier and more expensive still; images give\n"
        "the best fidelity for medium bandwidth; meshes are cheap to render\n"
        "but dominate the link. No single semantics wins on every axis - the\n"
        "paper's core observation.\n");
    return 0;
}
