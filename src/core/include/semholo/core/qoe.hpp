// Quality-of-experience model: combines reconstruction quality, end-to-
// end latency against the interactive bound (the paper's <100 ms
// requirement) and achieved frame rate into a single [0, 5] MOS-style
// score, so channels can be ranked the way the paper's Table 1 ranks
// semantics.
#pragma once

#include "semholo/core/session.hpp"

namespace semholo::core {

struct QoEModel {
    // Latency at or below this is free; beyond it the score decays.
    double latencyBudgetMs{100.0};
    double latencyHalfLifeMs{150.0};  // extra latency halving the latency term
    // Target interactive frame rate.
    double targetFps{30.0};
    // Chamfer distance (metres) mapping to quality 1.0 vs 0.0.
    double chamferExcellent{0.004};
    double chamferPoor{0.05};
    // Term weights (sum to 1): quality, latency, smoothness.
    double qualityWeight{0.5};
    double latencyWeight{0.3};
    double fpsWeight{0.2};
};

// Every term is finite: a term with no data behind it (no delivered
// frame, no reconstructed frame) is 0, so a session that delivered
// nothing scores mos == 0.
struct QoEBreakdown {
    double qualityTerm{};   // [0,1]
    double latencyTerm{};   // [0,1]
    double fpsTerm{};       // [0,1]
    double deliveryTerm{};  // fraction of frames delivered, scales the rest
    double mos{};           // [0,5]
};

QoEBreakdown computeQoE(const SessionStats& stats, const QoEModel& model = {});

}  // namespace semholo::core
