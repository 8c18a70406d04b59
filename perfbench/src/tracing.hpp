// Benchmark-side tracing: spans recorded around calls into each layer's
// public functions, a SemanticChannel decorator that records the engine's
// encode/decode calls together with their inputs, and a dependency-free
// Chrome trace-event JSON writer (readable by Perfetto and
// chrome://tracing).
//
// Spans live in memory for the whole run and are written once at exit.
// A SpanLog is not synchronised: each participant's decorator owns one,
// and the engine runs one participant's encode/decode calls in a single
// dependency chain, so its log is never written from two threads at once.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "semholo/core/channel.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline constexpr std::int64_t kNoParent = -1;

struct Span {
    const char* name{};  // static string: "<layer>.<operation>"
    double startUs{};    // since the trace origin
    double endUs{};
    // Index of the parent span in the benchmark thread's log (kNoParent
    // for roots). Participant spans always point at the benchmark-thread
    // span of the engine call they ran under.
    std::int64_t parent{kNoParent};
    std::uint32_t frame{};
    // Chrome track: 0 is the benchmark thread, u + 1 is participant u.
    std::uint32_t track{};
    double durationUs() const { return endUs - startUs; }
};

class SpanLog {
public:
    SpanLog(Clock::time_point origin, std::uint32_t track)
        : origin_(origin), track_(track) {}

    double nowUs() const {
        return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
            .count();
    }
    // Appends a span and returns its index in this log.
    std::int64_t add(const char* name, double startUs, double endUs,
                     std::int64_t parent, std::uint32_t frame = 0) {
        spans_.push_back({name, startUs, endUs, parent, frame, track_});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }
    // Opens a span that ends when finish() is called on its index.
    std::int64_t open(const char* name, std::int64_t parent) {
        const double now = nowUs();
        return add(name, now, now, parent);
    }
    void finish(std::int64_t index) {
        spans_[static_cast<std::size_t>(index)].endUs = nowUs();
    }
    const std::vector<Span>& spans() const { return spans_; }

private:
    Clock::time_point origin_;
    std::uint32_t track_;
    std::vector<Span> spans_;
};

// One message as it entered the engine's uplink: enough to replay the
// link through a standalone net::LinkSimulator.
struct SentMessage {
    std::uint32_t frame{};
    std::uint32_t user{};
    double captureTime{};
    double simulatedExtractMs{};
    std::size_t bytes{};
};

// What the decorator keeps for one participant.
struct ParticipantTrace {
    ParticipantTrace(Clock::time_point origin, std::uint32_t user)
        : log(origin, user + 1), user(user) {}

    SpanLog log;
    std::uint32_t user;
    // Engine call (benchmark-thread span index) the next spans belong to.
    std::int64_t call{kNoParent};
    // Messages of the first traced engine call, in capture order.
    std::vector<SentMessage> firstCallMessages;
    bool firstCall{true};
    // Inputs of the first 'keep' encoded frames: poses and wire payloads.
    std::size_t keep{0};
    std::vector<semholo::body::Pose> poses;
    std::vector<std::vector<std::uint8_t>> payloads;
};

// Wraps a channel and records each encode/decode as a span on the
// participant's track, plus the inputs the layer replay needs.
class TracingChannel final : public semholo::core::SemanticChannel {
public:
    TracingChannel(std::unique_ptr<semholo::core::SemanticChannel> inner,
                   ParticipantTrace& trace)
        : inner_(std::move(inner)), trace_(trace) {}

    std::string name() const override { return inner_->name(); }
    semholo::core::EncodedFrame encode(
        const semholo::core::FrameContext& frame) override;
    semholo::core::DecodedFrame decode(
        const semholo::core::EncodedFrame& encoded) override;
    void reset() override { inner_->reset(); }

private:
    std::unique_ptr<semholo::core::SemanticChannel> inner_;
    ParticipantTrace& trace_;
};

// Self time of spans[index]: its duration minus the part of it covered by
// the union of its children's intervals (children may overlap when the
// engine ran them on several workers).
double selfTimeUs(const std::vector<Span>& spans, std::size_t index);

// Writes spans as a Chrome trace-event JSON document ("X" complete
// events, microsecond timestamps), naming track 0 "benchmark" and track
// u + 1 "participant u". 'metadata' is a JSON object stored under
// "otherData". Returns false when the file cannot be written.
bool writeChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::string& metadata);

}  // namespace perfbench
