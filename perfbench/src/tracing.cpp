#include "tracing.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

namespace perfbench {

semholo::core::EncodedFrame TracingChannel::encode(
    const semholo::core::FrameContext& frame) {
    const double start = trace_.log.nowUs();
    semholo::core::EncodedFrame out = inner_->encode(frame);
    trace_.log.add("core.encode", start, trace_.log.nowUs(), trace_.call,
                   out.frameId);
    if (trace_.firstCall)
        trace_.firstCallMessages.push_back({out.frameId, trace_.user,
                                            frame.timestamp,
                                            out.simulatedExtractMs, out.bytes()});
    if (trace_.poses.size() < trace_.keep) {
        trace_.poses.push_back(frame.pose);
        trace_.payloads.push_back(out.data);
    }
    return out;
}

semholo::core::DecodedFrame TracingChannel::decode(
    const semholo::core::EncodedFrame& encoded) {
    const double start = trace_.log.nowUs();
    semholo::core::DecodedFrame out = inner_->decode(encoded);
    trace_.log.add("core.decode", start, trace_.log.nowUs(), trace_.call,
                   encoded.frameId);
    return out;
}

double selfTimeUs(const std::vector<Span>& spans, std::size_t index) {
    const Span& parent = spans[index];
    std::vector<std::pair<double, double>> children;
    for (const Span& s : spans)
        if (s.parent == static_cast<std::int64_t>(index))
            children.emplace_back(std::max(s.startUs, parent.startUs),
                                  std::min(s.endUs, parent.endUs));
    std::sort(children.begin(), children.end());
    double covered = 0.0, reach = parent.startUs;
    for (const auto& [start, end] : children) {
        const double from = std::max(start, reach);
        if (end > from) {
            covered += end - from;
            reach = end;
        }
    }
    return parent.durationUs() - covered;
}

bool writeChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::string& metadata) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\"traceEvents\":[",
                 metadata.c_str());
    std::set<std::uint32_t> tracks;
    for (const Span& s : spans) tracks.insert(s.track);
    bool first = true;
    for (const std::uint32_t track : tracks) {
        std::fprintf(f,
                     "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                     "\"tid\":%u,\"args\":{\"name\":\"",
                     first ? "" : ",", track);
        if (track == 0)
            std::fprintf(f, "benchmark");
        else
            std::fprintf(f, "participant %u", track - 1);
        std::fprintf(f, "\"}}");
        first = false;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                     "\"parent\":%lld,\"frame\":%u}}",
                     s.name, s.track, s.startUs, s.durationUs(), i,
                     static_cast<long long>(s.parent), s.frame);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

}  // namespace perfbench
