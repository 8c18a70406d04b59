// Bandwidth estimation and adaptive bitrate control (section 3.2's
// "Reducing Latency with Rate Adaption"): a throughput estimator in the
// FESTIVE/Pensieve tradition and two ABR controllers — pure rate-based
// and a buffer-aware hybrid — that pick a level from a quality ladder
// (image resolutions for the NeRF channel, mesh bit depths for the
// traditional channel).
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

namespace semholo::net {

// Harmonic mean of the last K samples: robust to upward spikes, the
// standard conservative ABR estimator.
class HarmonicEstimator {
public:
    explicit HarmonicEstimator(std::size_t window = 5) : window_(window) {}
    void addSample(double bps);
    double estimate() const;
    bool hasEstimate() const { return !samples_.empty(); }

private:
    std::size_t window_;
    std::deque<double> samples_;
};

struct QualityLevel {
    std::string name;       // e.g. "240p", "512-voxel"
    double bitrateBps{};    // sustained rate this level needs
    double utility{};       // relative quality score (monotone in bitrate)
};

// Rate-based: highest level whose bitrate fits under 'safety' x estimate.
class RateBasedAbr {
public:
    RateBasedAbr(std::vector<QualityLevel> ladder, double safety = 0.9);
    std::size_t chooseLevel(double estimatedBps) const;
    const std::vector<QualityLevel>& ladder() const { return ladder_; }

private:
    std::vector<QualityLevel> ladder_;  // sorted ascending by bitrate
    double safety_;
};

// Buffer-aware hybrid (BOLA-flavoured): rate-based choice, biased up when
// the client buffer is comfortable and clamped down when it is draining.
class BufferAwareAbr {
public:
    BufferAwareAbr(std::vector<QualityLevel> ladder, double targetBufferS = 0.2,
                   double safety = 0.9);
    std::size_t chooseLevel(double estimatedBps, double bufferLevelS) const;
    const std::vector<QualityLevel>& ladder() const { return ladder_; }

private:
    std::vector<QualityLevel> ladder_;
    double targetBufferS_;
    double safety_;
};

}  // namespace semholo::net
