// Per-stage telemetry for the session engines: wall-time histograms
// (exact p50/p95/p99 over recorded samples), counters for drops,
// retransmissions and queue depth, and a JSON exporter the bench
// harnesses write next to their tables (BENCH_*.json) so successive
// perf PRs have a measured trajectory to compare against.
//
// Thread model: a Histogram is internally synchronised — every accessor
// (including the lazily sorted percentile cache) takes the instance
// mutex, so concurrent record/merge/percentile calls from worker threads
// are safe. A Counters instance is NOT synchronised: the session engine
// gives each participant its own instance, written only inside that
// participant's dependency chain (link counters inside the link's
// ticket chain), and merge()s them after the run.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "semholo/mesh/recon_counters.hpp"

namespace semholo::core::telemetry {

// Sample-retaining histogram: exact percentiles at bench scale (10^2..
// 10^5 samples per session), merge by concatenation. All members are
// thread-safe (guarded by an internal mutex) so telemetry may be queried
// while worker threads are still recording.
class Histogram {
public:
    Histogram() = default;
    Histogram(const Histogram& other);
    Histogram& operator=(const Histogram& other);

    void record(double value);
    void merge(const Histogram& other);

    std::size_t count() const;
    bool empty() const;
    double sum() const;  // 0 when empty
    // mean, min, max and percentiles are NaN when empty: no samples is
    // "no data", not a zero that reads as a result.
    double mean() const;
    double min() const;
    double max() const;
    // Nearest-rank percentile over recorded samples: the sample at
    // 1-indexed rank ceil(p/100 * N); p in [0, 100].
    double percentile(double p) const;
    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

private:
    // Caller must hold mutex_.
    const std::vector<double>& sortedLocked() const;

    mutable std::mutex mutex_;
    std::vector<double> samples_;
    // Sorted lazily on first percentile query after a mutation.
    mutable std::vector<double> sorted_;
    mutable bool sortedValid_{false};
};

struct Counters {
    std::uint64_t framesCaptured{};
    std::uint64_t framesDelivered{};
    std::uint64_t framesDecoded{};
    std::uint64_t dropsAtSender{};     // extractor busy at capture time
    std::uint64_t dropsAtReceiver{};   // reconstructor busy at arrival
    std::uint64_t packets{};
    std::uint64_t packetsLost{};       // first-transmission losses
    std::uint64_t packetsDelivered{};  // reached the receiver
    std::uint64_t packetsUnrecovered{}; // never reached the receiver
    std::uint64_t retransmissions{};
    std::uint64_t queueDrops{};        // bottleneck tail drops (overflow)
    std::uint64_t bytesSent{};
    std::uint64_t faultEvents{};       // fault windows / burst onsets entered
    std::uint64_t degradations{};      // quality-ladder step-downs
    std::uint64_t upgrades{};          // quality-ladder step-ups
    // Reconstruction work summed over decoded frames: the engine's decode
    // node adds each decoded frame's DecodedFrame::recon here.
    mesh::ReconCounters recon;

    void merge(const Counters& other);
};

// Everything one session (or one user of a multi-user session) records.
struct SessionTelemetry {
    Histogram encodeMs;          // sender extraction + encoding wall time
    Histogram transferMs;        // link queue + serialisation + propagation
    Histogram decodeMs;          // receiver reconstruction wall time
    Histogram qualityMs;         // Chamfer-eval mesh sampling wall time
    Histogram e2eMs;             // capture-to-render per delivered frame
    Histogram bytesPerFrame;     // wire payload sizes
    Histogram queueDepthBytes;   // bottleneck backlog sampled at each send
    Counters counters;

    void merge(const SessionTelemetry& other);
    // Writes toJsonValue(*this) plus a newline to 'path'.
    bool writeJson(const std::string& path) const;
};

// Schema version stamped into every BENCH_*.json document (a top-level
// "schema_version" field), so downstream consumers of the CI artifacts
// can detect layout changes. Bump when a bench document's structure
// changes incompatibly.
//   1: implicit pre-versioned layouts.
//   2: unified toJsonValue(T) convention; conference documents carry
//      fairness[].target_rate_mbps and downlinks[] fan-out accounting.
//   3: codec v2 filter pipeline + Pareto sweep documents.
//   4: per-stage extraction counters (extract_ms histograms,
//      active_cells, reused_topology_blocks; recon_active_cells /
//      recon_reused_topology_blocks in session counters) and the
//      BENCH_fig4 "extraction" section gating the within-run
//      block-extractor vs legacy speedup.
//   5: conference documents carry the stage-graph "pipeline" section
//      (node/edge counts, per-stage occupancy and release latency,
//      ticks-in-flight, and the deterministic stage-graph vs tick-barrier
//      schedule comparison) in every MultiSessionStats value, plus the
//      BENCH_conference "straggler_pipeline" section gating the
//      within-run pipelined-vs-barrier tick throughput.
//   6: the temporal block cache is gone: session counters drop
//      recon_blocks_cached / recon_reused_topology_blocks, and BENCH_fig4
//      drops the "temporal" section and per-row reused_topology_blocks.
//   7: stats stop copying telemetry. Session values drop
//      delivered_frames, decoded_frames, dropped_sender_frames,
//      dropped_receiver_frames, mean_bytes_per_frame, mean_extract_ms,
//      mean_transfer_ms, mean_recon_ms, mean_e2e_ms and p95_e2e_ms;
//      conference values drop mean_e2e_ms; fairness[] entries drop
//      captured_frames, delivered_frames, bandwidth_mbps, mean_e2e_ms,
//      degradations and upgrades; pipeline drops event_driven. The
//      embedded "telemetry" objects carry them (stages.e2e_ms.p95 is the
//      one nearest-rank p95). Statistics over no samples (histogram
//      mean/min/max/percentiles, achievable_fps, mean_chamfer) are null,
//      as are, with no key changed, downlinks[].mean_transfer_ms when
//      nothing was forwarded to the viewer, downlinks[].fanout_share
//      when the server fanned out nothing, and BENCH_fig4's
//      node_eval_fraction on rows whose sparse pass was not measured.
//   8: BENCH_fig4 rows whose sparse pass was measured carry
//      sparse_store_bytes (the block store's measured size: its table
//      and arena); the laptop columns still come from the working-set
//      model.
//   9: conference documents' "pipeline" sections carry resident_nodes
//      (the stage graph's high-water mark of nodes held at once), and
//      BENCH_conference's engine_scaling section carries "long_run"
//      rows (ticks, nodes, resident_nodes, max_rss_mb) and
//      resident_nodes_bounded.
inline constexpr std::uint64_t kBenchSchemaVersion = 9;

// Minimal JSON document builder shared by the bench exporters, so ad-hoc
// bench output (speedups, per-row results) lands in the same files as
// the engine telemetry without a JSON dependency.
class JsonWriter {
public:
    JsonWriter& beginObject(const std::string& key = {});
    JsonWriter& endObject();
    JsonWriter& beginArray(const std::string& key = {});
    JsonWriter& endArray();
    JsonWriter& field(const std::string& key, double value);
    JsonWriter& field(const std::string& key, std::uint64_t value);
    JsonWriter& field(const std::string& key, const std::string& value);
    JsonWriter& raw(const std::string& key, const std::string& jsonValue);
    std::string str() const { return out_; }

private:
    void comma();
    void keyPrefix(const std::string& key);

    std::string out_;
    std::vector<bool> needComma_;
};

// Render a SessionTelemetry as a JSON value (used by JsonWriter::raw to
// embed engine telemetry inside larger bench documents).
std::string toJsonValue(const SessionTelemetry& t);

}  // namespace semholo::core::telemetry
