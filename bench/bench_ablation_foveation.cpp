// Ablation A (section 3.1): the foveated hybrid trade-off. A larger
// foveal region ships more full-quality mesh (more bytes) but leaves
// less for the keypoint-reconstructed periphery (less receiver compute
// and less refinement needed); a smaller region saves bandwidth at the
// cost of peripheral reconstruction work.
#include <cstdio>

#include "bench_util.hpp"
#include "semholo/core/session.hpp"

using namespace semholo;

int main() {
    bench::banner("Ablation A: foveal radius vs bandwidth vs reconstruction cost");

    const body::BodyModel model(body::ShapeParams{}, 72);
    core::SessionConfig cfg;
    cfg.frames = 6;
    cfg.qualityEvalInterval = 3;
    cfg.qualitySamples = 6000;
    cfg.link.bandwidth = net::BandwidthTrace::constant(50e6);

    bench::Table table({"foveal radius (deg)", "KB/frame", "Mbps@30", "recon ms",
                        "chamfer (mm)", "e2e ms"});
    for (const double radius : {0.0, 4.0, 7.5, 12.0, 20.0, 35.0}) {
        core::FoveatedOptions opt;
        opt.fovealRadiusDeg = radius;
        opt.peripheralResolution = 40;
        auto channel = core::makeFoveatedChannel(opt);
        const auto stats = core::runSession(*channel, model, cfg);
        table.addRow({bench::fmt("%.1f", radius),
                      bench::fmt("%.1f", stats.telemetry.bytesPerFrame.mean() / 1024.0),
                      bench::fmt("%.2f", stats.bandwidthMbps),
                      bench::fmt("%.0f", stats.telemetry.decodeMs.mean()),
                      bench::fmt("%.2f", stats.meanChamfer * 1000.0),
                      bench::fmt("%.0f", stats.telemetry.e2eMs.mean())});
    }
    table.print();

    std::printf(
        "\nShape check: bytes/frame grows monotonically with the foveal radius\n"
        "(radius 0 = pure keypoints, ~35 deg = full mesh in view), while foveal\n"
        "quality improves; the trade-off of section 3.1 made measurable.\n");
    return 0;
}
