// Ablation E: end-to-end latency budget per semantic channel across link
// bandwidths — where each channel's time goes (extract / network /
// reconstruct) and whether it meets the paper's <100 ms interactive
// bound and the 25 Mbps US-broadband baseline (section 2.1).
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "semholo/core/qoe.hpp"
#include "semholo/core/session.hpp"

using namespace semholo;

int main() {
    bench::banner("Ablation E: end-to-end latency budget vs link bandwidth");

    const body::BodyModel model(body::ShapeParams{}, 72);

    struct ChannelSpec {
        std::string label;
        std::function<std::unique_ptr<core::SemanticChannel>()> make;
    };
    const std::vector<ChannelSpec> channels{
        {"keypoint(res=48)",
         [] {
             core::KeypointChannelOptions opt;
             opt.reconResolution = 48;
             return core::makeKeypointChannel(opt);
         }},
        {"text(res=48)",
         [] {
             core::TextChannelOptions opt;
             opt.reconResolution = 48;
             return core::makeTextChannel(opt);
         }},
        {"traditional+codec",
         [] { return core::makeTraditionalChannel({true, false}); }},
        {"traditional raw",
         [] { return core::makeTraditionalChannel({false, false}); }},
        {"traditional ABR (LOD)",
         [] { return core::makeAdaptiveMeshChannel({}); }},
    };

    bench::Table table({"channel", "link Mbps", "Mbps used", "extract ms", "net ms",
                        "recon ms", "e2e ms", "<100ms", "QoE"});
    for (const double mbps : {5.0, 25.0, 100.0}) {
        for (const auto& spec : channels) {
            auto channel = spec.make();
            core::SessionConfig cfg;
            cfg.frames = 16;
            cfg.link.bandwidth = net::BandwidthTrace::constant(mbps * 1e6);
            cfg.link.propagationDelayS = 0.02;
            const auto stats = core::runSession(*channel, model, cfg);
            const auto qoe = core::computeQoE(stats);
            // A stage with no samples has a NaN mean: print "n/a".
            const auto latency = [](double ms) {
                return std::isnan(ms) ? std::string("n/a") : bench::fmt("%.0f", ms);
            };
            const core::telemetry::SessionTelemetry& t = stats.telemetry;
            table.addRow({spec.label, bench::fmt("%.0f", mbps),
                          bench::fmt("%.2f", stats.bandwidthMbps),
                          latency(t.encodeMs.mean()),
                          latency(t.transferMs.mean()),
                          latency(t.decodeMs.mean()),
                          latency(t.e2eMs.mean()),
                          t.e2eMs.mean() <= 100.0 ? "yes" : "NO",
                          bench::fmt("%.2f", qoe.mos)});
        }
    }
    table.print();

    std::printf(
        "\nShape check: raw mesh streaming needs ~4x US broadband and collapses\n"
        "below it; compressed mesh fits 25 Mbps but not 5; semantic channels\n"
        "fit every link, and their latency is reconstruction-bound, not\n"
        "network-bound — the paper's central argument in one table.\n");
    return 0;
}
