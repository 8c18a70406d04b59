#include "semholo/net/abr.hpp"

#include <algorithm>

namespace semholo::net {

void HarmonicEstimator::addSample(double bps) {
    if (bps <= 0.0) return;
    samples_.push_back(bps);
    while (samples_.size() > window_) samples_.pop_front();
}

double HarmonicEstimator::estimate() const {
    if (samples_.empty()) return 0.0;
    double invSum = 0.0;
    for (const double s : samples_) invSum += 1.0 / s;
    return static_cast<double>(samples_.size()) / invSum;
}

namespace {

std::vector<QualityLevel> sortedLadder(std::vector<QualityLevel> ladder) {
    std::sort(ladder.begin(), ladder.end(),
              [](const QualityLevel& a, const QualityLevel& b) {
                  return a.bitrateBps < b.bitrateBps;
              });
    return ladder;
}

}  // namespace

RateBasedAbr::RateBasedAbr(std::vector<QualityLevel> ladder, double safety)
    : ladder_(sortedLadder(std::move(ladder))), safety_(safety) {}

std::size_t RateBasedAbr::chooseLevel(double estimatedBps) const {
    std::size_t best = 0;
    for (std::size_t i = 0; i < ladder_.size(); ++i)
        if (ladder_[i].bitrateBps <= safety_ * estimatedBps) best = i;
    return best;
}

BufferAwareAbr::BufferAwareAbr(std::vector<QualityLevel> ladder, double targetBufferS,
                               double safety)
    : ladder_(sortedLadder(std::move(ladder))),
      targetBufferS_(targetBufferS),
      safety_(safety) {}

std::size_t BufferAwareAbr::chooseLevel(double estimatedBps,
                                        double bufferLevelS) const {
    // Effective safety margin scales with buffer health: a full buffer
    // tolerates optimism, a draining buffer demands caution.
    const double health =
        targetBufferS_ > 0.0 ? std::clamp(bufferLevelS / targetBufferS_, 0.0, 2.0)
                             : 1.0;
    const double effectiveSafety = safety_ * (0.5 + 0.5 * health);
    std::size_t best = 0;
    for (std::size_t i = 0; i < ladder_.size(); ++i)
        if (ladder_[i].bitrateBps <= effectiveSafety * estimatedBps) best = i;
    // Hard floor: with a critically low buffer, drop a level.
    if (bufferLevelS < 0.25 * targetBufferS_ && best > 0) --best;
    return best;
}

}  // namespace semholo::net
