#include "semholo/core/qoe.hpp"

#include <algorithm>
#include <cmath>

namespace semholo::core {

QoEBreakdown computeQoE(const SessionStats& stats, const QoEModel& model) {
    QoEBreakdown out;

    // Quality from Chamfer: 1 at "excellent", 0 at "poor", log-linear in
    // between. Sessions that never evaluated quality get a neutral 0.5.
    if (std::isnan(stats.meanChamfer)) {
        out.qualityTerm = 0.5;
    } else {
        const double c =
            std::clamp(stats.meanChamfer, model.chamferExcellent, model.chamferPoor);
        out.qualityTerm = 1.0 - (std::log(c) - std::log(model.chamferExcellent)) /
                                    (std::log(model.chamferPoor) -
                                     std::log(model.chamferExcellent));
    }

    // Latency: exponential decay beyond the interactive budget; 0 when
    // no frame was delivered.
    const telemetry::Histogram& e2e = stats.telemetry.e2eMs;
    if (!e2e.empty()) {
        const double over = std::max(0.0, e2e.mean() - model.latencyBudgetMs);
        out.latencyTerm = std::exp2(-over / model.latencyHalfLifeMs);
    }

    // Smoothness: achieved pipeline FPS relative to the target; 0 when no
    // frame was reconstructed.
    if (!std::isnan(stats.achievableFps))
        out.fpsTerm = std::clamp(stats.achievableFps / model.targetFps, 0.0, 1.0);

    // Delivery counts network failures only. Frames shed by a busy
    // pipeline stage are already captured by the smoothness term —
    // counting them here would double-penalise slow reconstruction.
    const telemetry::Counters& c = stats.telemetry.counters;
    const std::uint64_t attempted =
        c.framesCaptured - c.dropsAtSender - c.dropsAtReceiver;
    out.deliveryTerm = attempted == 0 ? 0.0
                                      : static_cast<double>(c.framesDelivered) /
                                            static_cast<double>(attempted);

    const double weighted = model.qualityWeight * out.qualityTerm +
                            model.latencyWeight * out.latencyTerm +
                            model.fpsWeight * out.fpsTerm;
    out.mos = 5.0 * weighted * out.deliveryTerm;
    return out;
}

}  // namespace semholo::core
