#include "semholo/core/qoe.hpp"

#include <algorithm>
#include <cmath>

namespace semholo::core {

// Latency at or below this is free; beyond it the score decays.
constexpr double kLatencyBudgetMs = 100.0;
constexpr double kLatencyHalfLifeMs = 150.0;  // extra latency halving the latency term
// Target interactive frame rate.
constexpr double kTargetFps = 30.0;
// Chamfer distance (metres) mapping to quality 1.0 vs 0.0.
constexpr double kChamferExcellent = 0.004;
constexpr double kChamferPoor = 0.05;
// Term weights (sum to 1): quality, latency, smoothness.
constexpr double kQualityWeight = 0.5;
constexpr double kLatencyWeight = 0.3;
constexpr double kFpsWeight = 0.2;

QoEBreakdown computeQoE(const SessionStats& stats) {
    QoEBreakdown out;

    // Quality from Chamfer: 1 at "excellent", 0 at "poor", log-linear in
    // between. Sessions that never evaluated quality get a neutral 0.5.
    if (std::isnan(stats.meanChamfer)) {
        out.qualityTerm = 0.5;
    } else {
        const double c = std::clamp(stats.meanChamfer, kChamferExcellent, kChamferPoor);
        out.qualityTerm = 1.0 - (std::log(c) - std::log(kChamferExcellent)) /
                                    (std::log(kChamferPoor) -
                                     std::log(kChamferExcellent));
    }

    // Latency: exponential decay beyond the interactive budget; 0 when
    // no frame was delivered.
    const telemetry::Histogram& e2e = stats.telemetry.e2eMs;
    if (!e2e.empty()) {
        const double over = std::max(0.0, e2e.mean() - kLatencyBudgetMs);
        out.latencyTerm = std::exp2(-over / kLatencyHalfLifeMs);
    }

    // Smoothness: achieved pipeline FPS relative to the target; 0 when no
    // frame was reconstructed.
    if (!std::isnan(stats.achievableFps))
        out.fpsTerm = std::clamp(stats.achievableFps / kTargetFps, 0.0, 1.0);

    // Delivery counts network failures only. Frames shed by a busy
    // pipeline stage are already captured by the smoothness term —
    // counting them here would double-penalise slow reconstruction.
    const telemetry::Counters& c = stats.telemetry.counters;
    const std::uint64_t attempted =
        c.framesCaptured - c.dropsAtSender - c.dropsAtReceiver;
    out.deliveryTerm = attempted == 0 ? 0.0
                                      : static_cast<double>(c.framesDelivered) /
                                            static_cast<double>(attempted);

    const double weighted = kQualityWeight * out.qualityTerm +
                            kLatencyWeight * out.latencyTerm + kFpsWeight * out.fpsTerm;
    out.mos = 5.0 * weighted * out.deliveryTerm;
    return out;
}

}  // namespace semholo::core
