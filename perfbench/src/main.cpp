// SemHolo end-to-end benchmark. Runs one workload through the public
// session entry points (core::runSession, core::runConference) and prints
// its metrics; perfbench/README.md documents the workloads, the metrics
// and the correctness checks.
//
//   semholo_perfbench --workload <keypoint_recon|mesh_codec|sfu_conference>
//                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is the separate traced run: it measures the workload untraced and then
// traced (the tracing overhead), replays the recorded inputs through each
// layer's public functions, and reports the per-layer metrics. The last
// line of standard output is one JSON object with the keys "correct",
// "attempted", "failed" and "metrics". Exit code 0 when every
// correctness check passed, 1 when one failed, 2 on bad arguments.

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "semholo/body/body_model.hpp"
#include "semholo/body/pose.hpp"
#include "semholo/compress/codec2.hpp"
#include "semholo/compress/meshcodec.hpp"
#include "semholo/core/conference.hpp"
#include "semholo/core/session.hpp"
#include "semholo/mesh/metrics.hpp"
#include "semholo/net/simulator.hpp"
#include "semholo/recon/keypoint_recon.hpp"
#include "tracing.hpp"

#ifndef SEMHOLO_PERFBENCH_BUILD_TYPE
#define SEMHOLO_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace semholo;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kFps = 30.0;
// Subject template of every workload: ~978 KB of raw mesh per frame.
constexpr int kTemplateResolution = 72;
// setup_s is the median of at least this many set-ups.
constexpr std::size_t kSetupRepeats = 11;
// The faster half of a measured run's calls renders at least this many
// frames, so at least ten latency samples lie beyond the p95.
constexpr std::size_t kMinRenderedFrames = 200;
// Measuring stops here even when the frame minimum is not met (a check
// then fails), so a slow host still exits within the time limit.
constexpr double kMaxMeasureS = 120.0;
constexpr std::size_t kSfuUsers = 100;
// The engine probe of the single-user workloads (see README): a small
// sfu_conference, because runSession has no stage graph to measure.
constexpr std::size_t kProbeUsers = 8;
constexpr std::size_t kProbeTicks = 60;
constexpr std::size_t kProbeCalls = 15;
// Frames the layer replay feeds through the cheap layers (pose codec,
// deform) and through the expensive ones (recon, mesh codec, quality).
constexpr std::size_t kReplayFrames = 60;
constexpr std::size_t kReplayHeavyFrames = 12;

enum class Kind { KeypointRecon, MeshCodec, SfuConference };

struct WorkloadSpec {
    const char* name;
    Kind kind;
    std::size_t ticksPerCall;  // capture ticks per runSession/runConference call
    // Upper bound on chamfer_mm (NaN: the workload renders no geometry).
    // A 6000-sample Chamfer distance has a sampling floor near the
    // measured values (~8.5 mm mesh codec, ~9.8 mm keypoint recon), so
    // the bounds sit less than 1 mm above them: 5-bit mesh quantisation
    // already reads 10.8 mm.
    double chamferBoundMm;
    bool conference() const { return kind == Kind::SfuConference; }
};

constexpr WorkloadSpec kWorkloads[] = {
    {"keypoint_recon", Kind::KeypointRecon, 20, 10.5},
    {"mesh_codec", Kind::MeshCodec, 20, 9.0},
    {"sfu_conference", Kind::SfuConference, 300, kNaN},
};

std::size_t hostThreads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

double msSince(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// The one percentile rule of this benchmark: nearest rank,
// sorted[ceil(p/100 * n) - 1]; NaN when there are no samples.
double nearestRank(std::vector<double> values, double p) {
    if (values.empty()) return kNaN;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[rank == 0 ? 0 : rank - 1];
}

double median(const std::vector<double>& values) { return nearestRank(values, 50.0); }

double peakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- Workload configuration ---------------------------------------------

core::KeypointChannelOptions keypointOptions() {
    core::KeypointChannelOptions o;
    o.reconResolution = 128;  // the Figure 4 resolution
    return o;
}

core::TraditionalOptions meshOptions() {
    core::TraditionalOptions o;
    o.compress = true;
    return o;
}

core::SessionConfig baseSession(std::size_t ticks, double uplinkBps,
                                std::uint32_t seed) {
    core::SessionConfig s;
    s.fps = kFps;
    s.frames = ticks;
    s.link.bandwidth = net::BandwidthTrace::constant(uplinkBps);
    s.link.seed = seed;
    s.motion = body::MotionKind::Talk;
    s.motionSeed = seed;
    s.timing = core::TimingModel::Simulated;
    return s;
}

core::ConferenceConfig sfuConference(std::size_t users, std::size_t ticks,
                                     std::uint32_t seed, std::size_t workers) {
    core::ConferenceConfig c;
    c.session = baseSession(ticks, 120e6, seed);
    c.session.workers = workers;
    // Frames that reach a busy receiver queue instead of being dropped:
    // under simulated timing a drop is a property of the schedule, not a
    // failure of the program, and this workload renders every frame.
    c.session.dropWhenBusy = false;
    c.arbiter.strategy = core::ArbiterStrategy::MaxMin;
    c.sharedUplink = true;
    c.enableDownlinks = true;
    c.downlink.bandwidth = net::BandwidthTrace::constant(50e6);
    c.downlink.seed = seed;
    c.pipelineDepth = 4;
    for (std::size_t u = 0; u < users; ++u) {
        // Encode and decode costs staggered over 2-5 ms in opposite
        // directions, so users are encode-heavy or decode-heavy.
        const double stagger = static_cast<double>(u % 4);
        core::Participant p;
        p.channel = {"synthetic",
                     {{"payloadBytes", 4096},
                      {"simulatedExtractMs", 2.0 + stagger},
                      {"simulatedReconMs", 5.0 - stagger},
                      {"rateAdaptive", 1}}};
        p.subscription.rungs = {{4, 1.0}, {12, 0.25}};
        c.participants.push_back(std::move(p));
    }
    return c;
}

struct Setup {
    std::unique_ptr<body::BodyModel> model;
    core::SessionConfig session;
    // Single-user workloads: the channel, and a factory for the fresh one
    // the traced run wraps.
    std::function<std::unique_ptr<core::SemanticChannel>()> makeChannel;
    std::unique_ptr<core::SemanticChannel> channel;
    // sfu_conference.
    core::ConferenceConfig conference;
};

Setup makeSetup(const WorkloadSpec& w, std::uint32_t seed) {
    Setup s;
    s.model = std::make_unique<body::BodyModel>(body::ShapeParams{},
                                                kTemplateResolution);
    if (w.conference()) {
        s.conference = sfuConference(kSfuUsers, w.ticksPerCall, seed, hostThreads());
        s.session = s.conference.session;
        return s;
    }
    const bool keypoint = w.kind == Kind::KeypointRecon;
    s.session = baseSession(w.ticksPerCall, keypoint ? 25e6 : 100e6, seed);
    s.session.workers = 1;
    s.session.qualityEvalInterval = 10;
    if (keypoint)
        s.makeChannel = [] { return core::makeKeypointChannel(keypointOptions()); };
    else
        s.makeChannel = [] { return core::makeTraditionalChannel(meshOptions()); };
    s.channel = s.makeChannel();
    return s;
}

// ---- Engine calls ----------------------------------------------------------

struct Call {
    double wallMs{};
    core::MultiSessionStats stats;  // single-user results land in perUser[0]
};

Call timedConference(const core::ConferenceConfig& conf, const body::BodyModel& model) {
    Call call;
    const auto t0 = Clock::now();
    call.stats = core::runConference(conf, model);
    call.wallMs = msSince(t0);
    return call;
}

// One runSession/runConference call; 'traces' (one per participant)
// switches on the tracing decorator.
Call runCall(const Setup& s, const WorkloadSpec& w,
             std::vector<ParticipantTrace>* traces) {
    if (!w.conference()) {
        std::unique_ptr<core::SemanticChannel> traced;
        if (traces != nullptr)
            traced = std::make_unique<TracingChannel>(s.makeChannel(), (*traces)[0]);
        core::SemanticChannel& channel = traced ? *traced : *s.channel;
        Call call;
        const auto t0 = Clock::now();
        call.stats.perUser.push_back(core::runSession(channel, *s.model, s.session));
        call.wallMs = msSince(t0);
        return call;
    }
    if (traces == nullptr) return timedConference(s.conference, *s.model);
    core::ConferenceConfig conf = s.conference;
    for (std::size_t u = 0; u < conf.participants.size(); ++u) {
        ParticipantTrace& t = (*traces)[u];
        const core::ChannelSpec spec = conf.participants[u].channel;
        conf.participants[u].channelFactory = [&t, spec](const body::BodyModel& m) {
            return std::make_unique<TracingChannel>(core::makeChannel(spec, &m), t);
        };
    }
    return timedConference(conf, *s.model);
}

std::uint64_t frameDigest(const core::MultiSessionStats& stats) {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    };
    for (std::size_t u = 0; u < stats.perUser.size(); ++u)
        for (const core::FrameStats& f : stats.perUser[u].frames) {
            mix(u);
            mix(f.frameId);
            mix(f.bytes);
            mix((f.delivered ? 1u : 0u) | (f.decoded ? 2u : 0u));
        }
    return h;
}

// ---- Correctness checks ----------------------------------------------------

class Checks {
public:
    void fail(std::string what) {
        if (failures_.size() < 20) failures_.push_back(std::move(what));
        ++count_;
    }
    void require(bool ok, const char* what) {
        if (!ok) fail(what);
    }
    bool passed() const { return count_ == 0; }
    void print() const {
        if (passed()) {
            std::printf("checks: all passed\n");
            return;
        }
        std::printf("checks: %zu failed\n", count_);
        for (const std::string& f : failures_) std::printf("  FAILED %s\n", f.c_str());
    }

private:
    std::vector<std::string> failures_;
    std::size_t count_{0};
};

bool conserved(std::uint64_t packets, std::uint64_t delivered, std::uint64_t unrecovered) {
    return packets == delivered + unrecovered;
}

void checkCall(const Call& call, Checks& checks) {
    const core::MultiSessionStats& s = call.stats;
    for (std::size_t u = 0; u < s.perUser.size(); ++u) {
        const std::string who = "user " + std::to_string(u);
        for (const core::FrameStats& f : s.perUser[u].frames)
            if (f.delivered && !f.droppedAtSender && !f.droppedAtReceiver && !f.decoded)
                checks.fail(who + " frame " + std::to_string(f.frameId) +
                            ": delivered but decoded invalid");
        const auto& c = s.perUser[u].telemetry.counters;
        if (!conserved(c.packets, c.packetsDelivered, c.packetsUnrecovered))
            checks.fail(who + " uplink: packets != delivered + unrecovered");
    }
    std::uint64_t fanout = 0;
    for (const core::DownlinkStats& d : s.downlinks) {
        const std::string who = "viewer " + std::to_string(d.viewer);
        if (!conserved(d.packets, d.packetsDelivered, d.packetsUnrecovered))
            checks.fail(who + " downlink: packets != delivered + unrecovered");
        for (const core::DownlinkStreamStats& ss : d.streams)
            if (!conserved(ss.packets, ss.packetsDelivered, ss.packetsUnrecovered))
                checks.fail(who + " stream " + std::to_string(ss.source) +
                            ": packets != delivered + unrecovered");
        fanout += d.bytesForwarded;
    }
    checks.require(fanout == s.serverFanoutBytes,
                   "per-viewer fan-out bytes do not sum to serverFanoutBytes");
}

// ---- End-to-end accounting ---------------------------------------------------

// Wall-clock figures of one call.
struct CallTiming {
    double wallMs{};
    std::size_t rendered{};
    std::vector<double> latencyMs;  // extract + transfer + recon per rendered frame
};

// End-to-end figures of a series of calls, computed from the per-frame
// FrameStats records. Every call of a run does the same work (same seed,
// same inputs), so the deterministic figures are sums over all calls,
// while the wall-clock ones come from the faster half of the calls: on a
// shared host a neighbour's burst slows some calls, and the faster half
// measures the program rather than the neighbour.
struct Totals {
    std::size_t captured{0}, sent{0}, rendered{0};
    // Why captured frames were not rendered.
    std::size_t droppedAtSender{0}, lost{0}, droppedAtReceiver{0}, invalid{0};
    double sentBytes{0.0};
    double chamferSum{0.0};
    std::size_t chamferCount{0};
    double qualityMs{0.0};
    std::vector<CallTiming> calls;
    std::optional<std::uint64_t> digest;
    // Process peak RSS when the first call returned: the set-up and one
    // call, before the benchmark's own per-call records pile up.
    double firstCallPeakRssMb{0.0};

    void add(const Call& call, Checks& checks) {
        if (calls.empty()) firstCallPeakRssMb = peakRssMb();
        CallTiming timing{call.wallMs, 0, {}};
        for (const core::SessionStats& user : call.stats.perUser)
            for (const core::FrameStats& f : user.frames) {
                ++captured;
                qualityMs += f.qualityMs;
                if (f.droppedAtSender) {
                    ++droppedAtSender;
                    continue;
                }
                ++sent;
                sentBytes += static_cast<double>(f.bytes);
                if (!f.delivered) ++lost;
                else if (f.droppedAtReceiver) ++droppedAtReceiver;
                else if (!f.decoded) ++invalid;
                if (!f.decoded) continue;
                ++timing.rendered;
                timing.latencyMs.push_back(f.extractMs + f.transferMs + f.reconMs);
                if (!std::isnan(f.chamfer)) {
                    chamferSum += f.chamfer;
                    ++chamferCount;
                }
            }
        rendered += timing.rendered;
        calls.push_back(std::move(timing));
        const std::uint64_t d = frameDigest(call.stats);
        if (!digest) digest = d;
        checks.require(*digest == d, "per-frame digest differs between calls of one seed");
    }

    // The ceil(n/2) calls with the lowest wall time.
    std::vector<const CallTiming*> fasterHalf() const {
        std::vector<const CallTiming*> sorted;
        for (const CallTiming& c : calls) sorted.push_back(&c);
        std::sort(sorted.begin(), sorted.end(), [](const CallTiming* a, const CallTiming* b) {
            return a->wallMs < b->wallMs;
        });
        sorted.resize((sorted.size() + 1) / 2);
        return sorted;
    }
    std::size_t fasterHalfRendered() const {
        std::size_t n = 0;
        for (const CallTiming* c : fasterHalf()) n += c->rendered;
        return n;
    }
    // Rendered frames per second of call wall time, over the faster half.
    double framesPerS() const {
        double frames = 0.0, ms = 0.0;
        for (const CallTiming* c : fasterHalf()) {
            frames += static_cast<double>(c->rendered);
            ms += c->wallMs;
        }
        return ms > 0.0 ? frames / (ms / 1000.0) : kNaN;
    }
    std::vector<double> fasterHalfLatencyMs() const {
        std::vector<double> out;
        for (const CallTiming* c : fasterHalf())
            out.insert(out.end(), c->latencyMs.begin(), c->latencyMs.end());
        return out;
    }
    double chamferMm() const {
        return chamferCount > 0 ? chamferSum / static_cast<double>(chamferCount) * 1000.0
                                : kNaN;
    }
    double frac(std::size_t n) const {
        return captured > 0 ? static_cast<double>(n) / static_cast<double>(captured) : kNaN;
    }
};

// Calls until 'seconds' have passed and the faster half of the calls has
// rendered 'minRendered' frames; 'onCall' sees each call after it is
// checked and counted.
void measureCalls(const Setup& s, const WorkloadSpec& w, double seconds,
                  std::size_t minRendered, Totals& totals, Checks& checks,
                  const std::function<void(const Call&)>& onCall) {
    const auto start = Clock::now();
    do {
        const Call call = runCall(s, w, nullptr);
        checkCall(call, checks);
        totals.add(call, checks);
        onCall(call);
    } while ((msSince(start) < seconds * 1000.0 ||
              totals.fasterHalfRendered() < minRendered) &&
             msSince(start) < kMaxMeasureS * 1000.0);
}

// ---- Reporting ---------------------------------------------------------------

struct Metric {
    std::string name;
    double value;  // NaN: absent (no samples)
    std::string unit;
    std::size_t samples;
};

struct Report {
    std::vector<Metric> metrics;  // the JSON result
    std::vector<Metric> notes;    // printed in the table only

    void add(std::string name, double value, std::string unit, std::size_t samples) {
        metrics.push_back({std::move(name), value, std::move(unit), samples});
    }
    void note(std::string name, double value, std::string unit, std::size_t samples) {
        notes.push_back({std::move(name), value, std::move(unit), samples});
    }
};

std::string stamp(const WorkloadSpec& w, std::uint32_t seed, int seconds, int trace) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"workload\":\"%s\",\"seed\":%u,\"seconds\":%d,\"trace\":%d,"
                  "\"nproc\":%zu,\"body_batch_backend\":\"%s\",\"build_type\":\"%s\"}",
                  w.name, seed, seconds, trace, hostThreads(), body::bodyBatchBackend(),
                  SEMHOLO_PERFBENCH_BUILD_TYPE);
    return buf;
}

void printTable(const Report& report) {
    std::printf("%-34s %16s  %-6s %8s\n", "metric", "value", "unit", "samples");
    const auto row = [](const Metric& m) {
        if (std::isnan(m.value))
            std::printf("%-34s %16s  %-6s %8zu\n", m.name.c_str(), "absent",
                        m.unit.c_str(), m.samples);
        else
            std::printf("%-34s %16.6f  %-6s %8zu\n", m.name.c_str(), m.value,
                        m.unit.c_str(), m.samples);
    };
    for (const Metric& m : report.metrics) row(m);
    for (const Metric& m : report.notes) row(m);
}

std::string resultJson(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics) {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char value[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        if (std::isnan(m.value))
            std::snprintf(value, sizeof(value), "null");
        else
            std::snprintf(value, sizeof(value), "%.17g", m.value);
        out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}}";
}

void writeFile(const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr || std::fputs(text.c_str(), f) < 0 || std::fclose(f) != 0)
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
}

// ---- Measured (untraced) run -------------------------------------------------

struct Args {
    const WorkloadSpec* workload{nullptr};
    std::uint32_t seed{1};
    int seconds{10};
    int trace{0};
    std::string out{".bench_out"};
};

// The end-to-end run, tracing off. One extra set-up is timed after each
// call (and discarded), so the set-up samples spread over the whole run
// like the calls do.
void measuredRun(const Args& args, Totals& totals, Report& report, Checks& checks) {
    const WorkloadSpec& w = *args.workload;
    std::vector<double> setupMs;
    const auto timedSetup = [&] {
        const auto t0 = Clock::now();
        Setup s = makeSetup(w, args.seed);
        setupMs.push_back(msSince(t0));
        return s;
    };
    const Setup setup = timedSetup();
    measureCalls(setup, w, args.seconds, kMinRenderedFrames, totals, checks,
                 [&](const Call&) { timedSetup(); });
    while (setupMs.size() < kSetupRepeats) timedSetup();

    const std::vector<double> latency = totals.fasterHalfLatencyMs();
    if (latency.size() < kMinRenderedFrames)
        checks.fail("fewer than " + std::to_string(kMinRenderedFrames) +
                    " rendered frames in the faster half of the calls");
    report.add("setup_s", median(setupMs) / 1000.0, "s", setupMs.size());
    report.add("frames_per_s", totals.framesPerS(), "1/s", totals.fasterHalf().size());
    report.add("frame_latency_p50_ms", nearestRank(latency, 50.0), "ms", latency.size());
    report.add("frame_latency_p95_ms", nearestRank(latency, 95.0), "ms", latency.size());
    report.add("peak_rss_mb", totals.firstCallPeakRssMb, "MB", 1);
    report.add("wire_kb_per_frame",
               totals.sent > 0 ? totals.sentBytes / static_cast<double>(totals.sent) / 1000.0
                               : kNaN,
               "kB", totals.sent);
    report.add("rendered_frac", totals.frac(totals.rendered), "frac", totals.captured);
    report.note("failed_frac", totals.frac(totals.captured - totals.rendered), "frac",
                totals.captured);
    report.note("failed.dropped_at_sender", static_cast<double>(totals.droppedAtSender),
                "count", totals.captured);
    report.note("failed.lost_on_uplink", static_cast<double>(totals.lost), "count",
                totals.sent);
    report.note("failed.dropped_at_receiver", static_cast<double>(totals.droppedAtReceiver),
                "count", totals.sent);
    report.note("failed.decode_invalid", static_cast<double>(totals.invalid), "count",
                totals.sent);
    report.note("chamfer_mm", totals.chamferMm(), "mm", totals.chamferCount);
    if (!std::isnan(w.chamferBoundMm) &&
        !(totals.chamferCount > 0 && totals.chamferMm() < w.chamferBoundMm))
        checks.fail("chamfer_mm not under its bound of " + std::to_string(w.chamferBoundMm) +
                    " mm");
}

// ---- Traced run: engine-level layer metrics ----------------------------------

constexpr std::array<const char*, 4> kStages = {"encode", "uplink", "downlink", "decode"};

// Stage-graph figures of one conference call.
struct EngineSample {
    double wallMs{};
    double graphBuildMs{};  // call wall time minus the graph run itself
    std::uint64_t nodes{};
    std::array<double, kStages.size()> busyMs{kNaN, kNaN, kNaN, kNaN};
    std::array<double, kStages.size()> releaseP50Ms{kNaN, kNaN, kNaN, kNaN};
};

EngineSample engineSample(const Call& call) {
    const core::PipelineStats& p = call.stats.pipeline;
    EngineSample e;
    e.wallMs = call.wallMs;
    e.graphBuildMs = call.wallMs - p.wallMs;
    e.nodes = p.nodes;
    for (const core::PipelineStageStats& st : p.stages)
        for (std::size_t k = 0; k < kStages.size(); ++k)
            if (st.stage == kStages[k]) {
                e.busyMs[k] = st.busyMs;
                e.releaseP50Ms[k] = st.releaseLatencyMs.p50();
            }
    return e;
}

// Medians over calls; the speedup divides the wall time at workers = 1
// by the median wall time at workers = nproc.
void reportEngine(const std::vector<EngineSample>& samples, double serialWallMs,
                  Report& report) {
    const auto medianOf = [&samples](auto field) {
        std::vector<double> v;
        for (const EngineSample& e : samples) v.push_back(field(e));
        return median(v);
    };
    const std::size_t n = samples.size();
    report.add("core.graph_build_ms",
               medianOf([](const EngineSample& e) { return e.graphBuildMs; }), "ms", n);
    for (std::size_t k = 0; k < kStages.size(); ++k) {
        const std::string stage = std::string("core.stage.") + kStages[k];
        report.add(stage + ".busy_ms",
                   medianOf([k](const EngineSample& e) { return e.busyMs[k]; }), "ms", n);
        report.add(stage + ".release_p50_ms",
                   medianOf([k](const EngineSample& e) { return e.releaseP50Ms[k]; }), "ms",
                   n);
    }
    report.add("core.nodes", static_cast<double>(samples.front().nodes), "count", 1);
    report.add("core.parallel_speedup",
               serialWallMs / medianOf([](const EngineSample& e) { return e.wallMs; }), "x",
               n);
}

// Network counters of one call: uplink counters from the engine telemetry,
// plus the SFU downlinks' packets.
void reportNetCounts(const Call& call, Report& report) {
    core::telemetry::SessionTelemetry merged;
    for (const core::SessionStats& user : call.stats.perUser) merged.merge(user.telemetry);
    std::uint64_t packets = merged.counters.packets;
    for (const core::DownlinkStats& d : call.stats.downlinks) packets += d.packets;
    report.add("net.packets", static_cast<double>(packets), "count", 1);
    report.add("net.retransmissions", static_cast<double>(merged.counters.retransmissions),
               "count", 1);
    report.add("net.queue_drops", static_cast<double>(merged.counters.queueDrops), "count",
               1);
    report.add("net.queue_depth_p95_kb", merged.queueDepthBytes.p95() / 1000.0, "kB",
               merged.queueDepthBytes.count());
}

// ---- Traced run: layer replay ------------------------------------------------

struct Replay {
    SpanLog& log;
    std::int64_t root;
    Report& report;
    Checks& checks;

    // Times fn() as a span named 'name' under the replay root; returns ms.
    template <typename Fn>
    double span(const char* name, std::uint32_t frame, Fn&& fn) {
        const double start = log.nowUs();
        fn();
        const double end = log.nowUs();
        log.add(name, start, end, root, frame);
        return (end - start) / 1000.0;
    }
};

std::size_t rawMeshBytes(const mesh::TriMesh& m) {
    return 8 + m.vertexCount() * sizeof(geom::Vec3f) +
           m.triangleCount() * sizeof(mesh::Triangle);
}

double mean(const std::vector<double>& values) {
    double sum = 0.0;
    for (const double v : values) sum += v;
    return values.empty() ? kNaN : sum / static_cast<double>(values.size());
}

// Feeds the recorded poses (and, where the workload's channel produced
// them, checks against the recorded payloads) through each layer's public
// functions, with the channels' own options.
void replayLayers(const WorkloadSpec& w, const Setup& s, const ParticipantTrace& trace,
                  const core::FrameStats* firstEvaluated, Replay& r) {
    const std::size_t n = std::min(trace.poses.size(), kReplayFrames);
    const std::size_t heavy = std::min(n, kReplayHeavyFrames);
    if (heavy == 0) {
        r.checks.fail("traced run recorded no poses to replay");
        return;
    }
    const auto frameOf = [&trace](std::size_t i) { return trace.poses[i].frameId; };

    std::vector<double> deformMs;
    std::vector<mesh::TriMesh> truth;
    for (std::size_t i = 0; i < n; ++i) {
        mesh::TriMesh m;
        deformMs.push_back(
            r.span("body.deform", frameOf(i), [&] { m = s.model->deform(trace.poses[i]); }));
        if (i < heavy) truth.push_back(std::move(m));
    }
    r.report.add("body.deform_ms", median(deformMs), "ms", n);

    // Pose codec: the keypoint channel's payload path.
    const core::KeypointChannelOptions kp = keypointOptions();
    std::vector<double> encUs, decUs;
    std::vector<body::Pose> decodedPoses;
    double rawBytes = 0.0, wireBytes = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::vector<std::uint8_t> raw = body::serializePose(trace.poses[i]);
        std::vector<std::uint8_t> enc;
        std::optional<std::vector<std::uint8_t>> dec;
        encUs.push_back(1000.0 * r.span("compress.codec2_encode", frameOf(i), [&] {
            enc = compress::codec2Encode(raw, kp.codec);
        }));
        decUs.push_back(1000.0 * r.span("compress.codec2_decode", frameOf(i),
                                        [&] { dec = compress::codec2Decode(enc); }));
        r.checks.require(dec && *dec == raw, "codec2 replay does not round-trip");
        if (w.kind == Kind::KeypointRecon)
            r.checks.require(enc == trace.payloads[i],
                             "codec2 replay differs from the engine's payload");
        rawBytes += static_cast<double>(raw.size());
        wireBytes += static_cast<double>(enc.size());
        if (i < heavy) {
            const auto pose = body::deserializePose(dec.value_or(raw));
            r.checks.require(pose.has_value(), "pose replay does not deserialize");
            decodedPoses.push_back(pose.value_or(trace.poses[i]));
        }
    }
    r.report.add("compress.codec2_encode_us", median(encUs), "us", n);
    r.report.add("compress.codec2_decode_us", median(decUs), "us", n);
    r.report.add("compress.pose_ratio", rawBytes / wireBytes, "x", n);

    // Reconstruction, as the keypoint channel decodes. The ik /
    // field-sample / extract children carry the reconstructor's own
    // wall-clock split of the call.
    recon::ReconstructionOptions ro;
    ro.resolution = kp.reconResolution;
    ro.shape = kp.shape;
    ro.device = recon::DeviceProfile::host();
    std::vector<double> ikMs, fieldMs, extractMs, activeCells, certTests;
    double nodesEvaluated = 0.0, nodesTotal = 0.0;
    std::vector<mesh::TriMesh> reconMeshes;
    for (std::size_t i = 0; i < heavy; ++i) {
        const double start = r.log.nowUs();
        recon::ReconstructionResult res = recon::reconstructFromPose(decodedPoses[i], ro);
        const std::int64_t parent =
            r.log.add("recon.reconstruct_from_pose", start, r.log.nowUs(), r.root, frameOf(i));
        double at = start;
        for (const auto& [name, ms] : {std::pair{"recon.ik", res.ikMs},
                                       std::pair{"recon.field_sample", res.fieldSampleMs},
                                       std::pair{"recon.extract", res.extractMs}}) {
            r.log.add(name, at, at + ms * 1000.0, parent, frameOf(i));
            at += ms * 1000.0;
        }
        r.checks.require(res.success, "reconstruction replay failed");
        ikMs.push_back(res.ikMs);
        fieldMs.push_back(res.fieldSampleMs);
        extractMs.push_back(res.extractMs);
        nodesEvaluated += static_cast<double>(res.stats.nodesEvaluated);
        nodesTotal += static_cast<double>(res.stats.nodesTotal);
        activeCells.push_back(static_cast<double>(res.stats.activeCells));
        certTests.push_back(static_cast<double>(res.stats.certTests));
        reconMeshes.push_back(std::move(res.mesh));
    }
    r.report.add("recon.field_sample_ms", median(fieldMs), "ms", heavy);
    r.report.add("recon.extract_ms", median(extractMs), "ms", heavy);
    r.report.add("recon.node_eval_frac", nodesTotal > 0.0 ? nodesEvaluated / nodesTotal : kNaN,
                 "frac", heavy);
    r.report.add("recon.active_cells", mean(activeCells), "count", heavy);
    r.report.add("recon.cert_tests", mean(certTests), "count", heavy);
    // The pose payload arrives aligned, so this path never runs IK.
    r.report.note("recon.ik_ms", median(ikMs), "ms", heavy);

    // Mesh codec, as the traditional channel encodes and decodes.
    const core::TraditionalOptions mo = meshOptions();
    compress::MeshCodecOptions codec;
    codec.encodeColors = mo.withColors;
    std::vector<double> meshEncMs, meshDecMs;
    std::vector<mesh::TriMesh> meshDecoded;
    double meshRaw = 0.0, meshWire = 0.0;
    for (std::size_t i = 0; i < heavy; ++i) {
        mesh::TriMesh m = truth[i];
        if (!mo.withColors) m.colors.clear();
        std::vector<std::uint8_t> enc;
        std::optional<mesh::TriMesh> dec;
        meshEncMs.push_back(r.span("compress.mesh_encode", frameOf(i),
                                   [&] { enc = compress::encodeMesh(m, codec); }));
        meshDecMs.push_back(r.span("compress.mesh_decode", frameOf(i),
                                   [&] { dec = compress::decodeMesh(enc); }));
        r.checks.require(dec.has_value(), "mesh codec replay does not decode");
        if (w.kind == Kind::MeshCodec)
            r.checks.require(enc == trace.payloads[i],
                             "mesh codec replay differs from the engine's payload");
        meshRaw += static_cast<double>(rawMeshBytes(m));
        meshWire += static_cast<double>(enc.size());
        meshDecoded.push_back(dec ? std::move(*dec) : mesh::TriMesh{});
    }
    r.report.add("compress.mesh_encode_ms", median(meshEncMs), "ms", heavy);
    r.report.add("compress.mesh_decode_ms", median(meshDecMs), "ms", heavy);
    r.report.add("compress.mesh_ratio", meshRaw / meshWire, "x", heavy);

    // Quality: the engine's Chamfer evaluation, against the mesh the
    // workload renders (the keypoint reconstruction where the workload
    // renders no geometry).
    const std::vector<mesh::TriMesh>& rendered =
        w.kind == Kind::MeshCodec ? meshDecoded : reconMeshes;
    std::vector<double> qualityMs, chamferMm;
    for (std::size_t i = 0; i < heavy; ++i) {
        mesh::GeometryErrorStats q;
        qualityMs.push_back(r.span("mesh.quality", frameOf(i), [&] {
            q = mesh::compareMeshes(truth[i], rendered[i], s.session.qualitySamples);
        }));
        chamferMm.push_back(q.chamfer * 1000.0);
    }
    r.report.add("mesh.quality_ms", median(qualityMs), "ms", heavy);
    r.report.add("mesh.chamfer_mm", mean(chamferMm), "mm", heavy);
    if (firstEvaluated != nullptr && firstEvaluated->frameId == frameOf(0))
        r.checks.require(chamferMm[0] == firstEvaluated->chamfer * 1000.0,
                         "replayed Chamfer differs from the engine's");
}

// Sends the first traced call's uplink messages, in the engine's (frame,
// user) order and at the engine's send times, through a standalone link
// configured like the workload's uplink.
void replayUplink(const Setup& s, const std::vector<ParticipantTrace>& traces,
                  std::uint64_t enginePackets, Replay& r) {
    std::vector<SentMessage> messages;
    for (const ParticipantTrace& t : traces)
        messages.insert(messages.end(), t.firstCallMessages.begin(),
                        t.firstCallMessages.end());
    if (messages.empty()) {
        r.checks.fail("traced run recorded no uplink messages");
        return;
    }
    std::sort(messages.begin(), messages.end(),
              [](const SentMessage& a, const SentMessage& b) {
                  return a.frame != b.frame ? a.frame < b.frame : a.user < b.user;
              });
    net::LinkSimulator link(s.session.link);
    std::uint64_t packets = 0;
    link.setObserver([&packets](const net::TransferResult& res, std::size_t) {
        packets += res.packets;
    });
    std::vector<double> extractorFreeAt(traces.size(), 0.0);
    std::vector<double> sendUs;
    const std::int64_t span = r.log.open("net.link_replay", r.root);
    for (const SentMessage& m : messages) {
        const double sendTime = std::max(m.captureTime, extractorFreeAt[m.user]) +
                                m.simulatedExtractMs / 1000.0;
        extractorFreeAt[m.user] = sendTime;
        const auto t0 = Clock::now();
        link.sendMessage(m.bytes, sendTime, s.session.transfer, m.user);
        sendUs.push_back(msSince(t0) * 1000.0);
    }
    r.log.finish(span);
    r.checks.require(packets == enginePackets,
                     "uplink replay packets differ from the engine's");
    r.report.add("net.send_us", median(sendUs), "us", sendUs.size());
}

// ---- Traced run ------------------------------------------------------------------

// Untraced and traced calls alternate for --seconds, so the tracing
// overhead compares calls made under the same host load. Per-layer
// metrics come from the spans, the engine's stage-graph stats and a
// replay of the recorded inputs; the spans are written as a Chrome trace.
void traceRun(const Args& args, const std::string& meta, const std::string& base,
              Totals& untraced, Totals& traced, Report& report, Checks& checks) {
    const WorkloadSpec& w = *args.workload;
    const Setup s = makeSetup(w, args.seed);
    const Clock::time_point origin = Clock::now();
    SpanLog log(origin, 0);
    std::vector<ParticipantTrace> traces;
    for (std::size_t u = 0; u < (w.conference() ? kSfuUsers : 1); ++u)
        traces.emplace_back(origin, static_cast<std::uint32_t>(u));
    traces[0].keep = std::min(kReplayFrames, w.ticksPerCall);
    std::vector<EngineSample> engine;
    std::optional<Call> firstUntraced, firstTraced;
    std::vector<std::int64_t> callSpans;
    do {
        Call plain = runCall(s, w, nullptr);
        checkCall(plain, checks);
        untraced.add(plain, checks);
        if (w.conference()) engine.push_back(engineSample(plain));
        if (!firstUntraced) firstUntraced = std::move(plain);

        callSpans.push_back(
            log.open(w.conference() ? "core.run_conference" : "core.run_session", kNoParent));
        for (ParticipantTrace& t : traces) t.call = callSpans.back();
        Call call = runCall(s, w, &traces);
        log.finish(callSpans.back());
        for (ParticipantTrace& t : traces) t.firstCall = false;
        checkCall(call, checks);
        traced.add(call, checks);
        if (!firstTraced) firstTraced = std::move(call);
    } while (msSince(origin) < args.seconds * 1000.0 &&
             msSince(origin) < kMaxMeasureS * 1000.0);
    checks.require(traced.digest == untraced.digest,
                   "per-frame digest differs between the untraced and traced runs");

    // Engine layer: channel spans and the engine's own time around them.
    std::vector<Span> spans = log.spans();
    for (const ParticipantTrace& t : traces)
        spans.insert(spans.end(), t.log.spans().begin(), t.log.spans().end());
    std::vector<double> encodeMs, decodeMs;
    for (const Span& sp : spans) {
        if (std::strcmp(sp.name, "core.encode") == 0)
            encodeMs.push_back(sp.durationUs() / 1000.0);
        if (std::strcmp(sp.name, "core.decode") == 0)
            decodeMs.push_back(sp.durationUs() / 1000.0);
    }
    double selfMs = 0.0;
    for (const std::int64_t c : callSpans)
        selfMs += selfTimeUs(spans, static_cast<std::size_t>(c)) / 1000.0;
    report.add("core.encode_ms", median(encodeMs), "ms", encodeMs.size());
    report.add("core.decode_ms", median(decodeMs), "ms", decodeMs.size());
    report.add("core.engine_self_ms",
               (selfMs - traced.qualityMs) / static_cast<double>(traced.captured), "ms",
               traced.captured);

    // Stage graph: the workload's own conference, or the engine probe.
    if (w.conference()) {
        core::ConferenceConfig serial = s.conference;
        serial.session.workers = 1;
        reportEngine(engine, timedConference(serial, *s.model).wallMs, report);
    } else {
        const core::ConferenceConfig probe =
            sfuConference(kProbeUsers, kProbeTicks, args.seed, hostThreads());
        core::ConferenceConfig serial = probe;
        serial.session.workers = 1;
        std::vector<double> serialWall;
        for (std::size_t k = 0; k < kProbeCalls; ++k) {
            const Call call = timedConference(probe, *s.model);
            checkCall(call, checks);
            engine.push_back(engineSample(call));
            serialWall.push_back(timedConference(serial, *s.model).wallMs);
        }
        reportEngine(engine, median(serialWall), report);
    }

    // Layer replay of the recorded inputs.
    const core::FrameStats* firstEvaluated = nullptr;
    for (const core::FrameStats& f : firstTraced->stats.perUser[0].frames)
        if (!std::isnan(f.chamfer)) {
            firstEvaluated = &f;
            break;
        }
    Replay replay{log, log.open("replay", kNoParent), report, checks};
    replayLayers(w, s, traces[0], firstEvaluated, replay);
    std::uint64_t enginePackets = 0;
    for (const core::SessionStats& user : firstTraced->stats.perUser)
        enginePackets += user.telemetry.counters.packets;
    replayUplink(s, traces, enginePackets, replay);
    log.finish(replay.root);
    reportNetCounts(*firstUntraced, report);
    report.add("trace.fps_ratio", traced.framesPerS() / untraced.framesPerS(), "x",
               traced.calls.size());
    report.note("trace.untraced_frames_per_s", untraced.framesPerS(), "1/s",
                untraced.fasterHalf().size());
    report.note("trace.traced_frames_per_s", traced.framesPerS(), "1/s",
                traced.fasterHalf().size());

    // Chrome trace: every benchmark-thread span, and the participant spans
    // of the first traced call.
    std::vector<Span> out = log.spans();
    for (const ParticipantTrace& t : traces)
        for (const Span& sp : t.log.spans())
            if (sp.parent == callSpans.front()) out.push_back(sp);
    if (!writeChromeTrace(base + ".trace.json", out, meta))
        std::fprintf(stderr, "warning: cannot write %s.trace.json\n", base.c_str());
}

// ---- Entry -------------------------------------------------------------------

std::optional<Args> parseArgs(int argc, char** argv) {
    Args a;
    if (argc % 2 == 0) return std::nullopt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], value = argv[i + 1];
        char* end = nullptr;
        const long number = std::strtol(value.c_str(), &end, 10);
        const bool numeric = !value.empty() && *end == '\0';
        if (key == "--workload") {
            a.workload = nullptr;
            for (const WorkloadSpec& w : kWorkloads)
                if (value == w.name) a.workload = &w;
            if (a.workload == nullptr) return std::nullopt;
        } else if (key == "--seed" && numeric && number >= 0 &&
                   number <= static_cast<long>(std::numeric_limits<std::uint32_t>::max())) {
            a.seed = static_cast<std::uint32_t>(number);
        } else if (key == "--seconds" && numeric && number >= 1 && number <= 60) {
            a.seconds = static_cast<int>(number);
        } else if (key == "--trace" && numeric && (number == 0 || number == 1)) {
            a.trace = static_cast<int>(number);
        } else if (key == "--out") {
            a.out = value;
        } else {
            return std::nullopt;
        }
    }
    if (a.workload == nullptr) return std::nullopt;
    return a;
}

int run(const Args& args) {
    const WorkloadSpec& w = *args.workload;
    const std::string meta = stamp(w, args.seed, args.seconds, args.trace);
    std::printf("semholo perfbench %s\n", meta.c_str());
    mkdir(args.out.c_str(), 0755);
    const std::string base = args.out + "/" + w.name + "-seed" + std::to_string(args.seed) +
                             "-trace" + std::to_string(args.trace);
    Checks checks;
    Report report;
    Totals untraced, traced;
    if (args.trace == 0)
        measuredRun(args, untraced, report, checks);
    else
        traceRun(args, meta, base, untraced, traced, report, checks);

    printTable(report);
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(untraced.digest.value_or(0)));
    std::printf("frame_digest %s (per-frame bytes, delivered, decoded)\n", digest);
    checks.print();
    const std::size_t attempted = untraced.captured + traced.captured;
    const std::size_t failed = attempted - untraced.rendered - traced.rendered;
    const std::string result = resultJson(checks.passed(), attempted, failed, report.metrics);
    std::string callWall;
    for (const Totals* t : {&untraced, &traced})
        for (const CallTiming& c : t->calls) {
            if (!callWall.empty()) callWall += ',';
            callWall += std::to_string(c.wallMs);
        }
    writeFile(base + ".json", "{\"stamp\":" + meta + ",\"frame_digest\":\"" + digest +
                                  "\",\"call_wall_ms\":[" + callWall + "],\"result\":" +
                                  result + "}\n");
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return checks.passed() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    const auto args = perfbench::parseArgs(argc, argv);
    if (!args) {
        std::fprintf(stderr,
                     "usage: %s --workload <keypoint_recon|mesh_codec|sfu_conference> "
                     "--seed <n> --seconds <1-60> --trace <0|1> [--out <dir>]\n",
                     argv[0]);
        return 2;
    }
    return perfbench::run(*args);
}
