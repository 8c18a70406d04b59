// Quality-of-experience model: combines reconstruction quality, end-to-
// end latency against the interactive bound (the paper's <100 ms
// requirement) and achieved frame rate into a single [0, 5] MOS-style
// score, so channels can be ranked the way the paper's Table 1 ranks
// semantics. The model's budgets, bands and weights are fixed constants
// (qoe.cpp), not settings.
#pragma once

#include "semholo/core/session.hpp"

namespace semholo::core {

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

QoEBreakdown computeQoE(const SessionStats& stats);

}  // namespace semholo::core
