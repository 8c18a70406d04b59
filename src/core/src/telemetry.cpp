#include "semholo/core/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

namespace semholo::core::telemetry {

namespace {

constexpr double kNoData = std::numeric_limits<double>::quiet_NaN();

}  // namespace

Histogram::Histogram(const Histogram& other) {
    std::lock_guard<std::mutex> lock(other.mutex_);
    samples_ = other.samples_;
}

Histogram& Histogram::operator=(const Histogram& other) {
    if (this == &other) return *this;
    std::scoped_lock lock(mutex_, other.mutex_);
    samples_ = other.samples_;
    sorted_.clear();
    sortedValid_ = false;
    return *this;
}

void Histogram::record(double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.push_back(value);
    sortedValid_ = false;
}

void Histogram::merge(const Histogram& other) {
    if (this == &other) {
        // Self-merge duplicates the sample set; copy first so the insert
        // does not read the vector it is growing.
        std::lock_guard<std::mutex> lock(mutex_);
        const std::vector<double> copy = samples_;
        samples_.insert(samples_.end(), copy.begin(), copy.end());
        sortedValid_ = false;
        return;
    }
    std::scoped_lock lock(mutex_, other.mutex_);
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    sortedValid_ = false;
}

std::size_t Histogram::count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_.size();
}

bool Histogram::empty() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_.empty();
}

double Histogram::sum() const {
    std::lock_guard<std::mutex> lock(mutex_);
    double s = 0.0;
    for (const double v : samples_) s += v;
    return s;
}

double Histogram::mean() const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (samples_.empty()) return kNoData;
    double s = 0.0;
    for (const double v : samples_) s += v;
    return s / static_cast<double>(samples_.size());
}

double Histogram::min() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_.empty() ? kNoData
                            : *std::min_element(samples_.begin(), samples_.end());
}

double Histogram::max() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_.empty() ? kNoData
                            : *std::max_element(samples_.begin(), samples_.end());
}

const std::vector<double>& Histogram::sortedLocked() const {
    if (!sortedValid_) {
        sorted_ = samples_;
        std::sort(sorted_.begin(), sorted_.end());
        sortedValid_ = true;
    }
    return sorted_;
}

double Histogram::percentile(double p) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (samples_.empty()) return kNoData;
    const auto& s = sortedLocked();
    const double clamped = std::clamp(p, 0.0, 100.0);
    // Nearest-rank: ceil(p/100 * N), 1-indexed.
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(clamped / 100.0 * static_cast<double>(s.size())));
    return s[rank == 0 ? 0 : rank - 1];
}

void Counters::merge(const Counters& other) {
    framesCaptured += other.framesCaptured;
    framesDelivered += other.framesDelivered;
    framesDecoded += other.framesDecoded;
    dropsAtSender += other.dropsAtSender;
    dropsAtReceiver += other.dropsAtReceiver;
    packets += other.packets;
    packetsLost += other.packetsLost;
    packetsDelivered += other.packetsDelivered;
    packetsUnrecovered += other.packetsUnrecovered;
    retransmissions += other.retransmissions;
    queueDrops += other.queueDrops;
    bytesSent += other.bytesSent;
    faultEvents += other.faultEvents;
    degradations += other.degradations;
    upgrades += other.upgrades;
    recon += other.recon;
}

void SessionTelemetry::merge(const SessionTelemetry& other) {
    encodeMs.merge(other.encodeMs);
    transferMs.merge(other.transferMs);
    decodeMs.merge(other.decodeMs);
    qualityMs.merge(other.qualityMs);
    e2eMs.merge(other.e2eMs);
    bytesPerFrame.merge(other.bytesPerFrame);
    queueDepthBytes.merge(other.queueDepthBytes);
    counters.merge(other.counters);
}

namespace {

std::string formatNumber(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

void appendStage(JsonWriter& w, const char* name, const Histogram& h) {
    w.beginObject(name)
        .field("count", static_cast<std::uint64_t>(h.count()))
        .field("mean", h.mean())
        .field("min", h.min())
        .field("max", h.max())
        .field("p50", h.p50())
        .field("p95", h.p95())
        .field("p99", h.p99())
        .endObject();
}

}  // namespace

std::string toJsonValue(const SessionTelemetry& t) {
    JsonWriter w;
    w.beginObject();
    w.beginObject("stages");
    appendStage(w, "encode_ms", t.encodeMs);
    appendStage(w, "transfer_ms", t.transferMs);
    appendStage(w, "decode_ms", t.decodeMs);
    appendStage(w, "quality_ms", t.qualityMs);
    appendStage(w, "e2e_ms", t.e2eMs);
    appendStage(w, "bytes_per_frame", t.bytesPerFrame);
    appendStage(w, "queue_depth_bytes", t.queueDepthBytes);
    w.endObject();
    w.beginObject("counters")
        .field("frames_captured", t.counters.framesCaptured)
        .field("frames_delivered", t.counters.framesDelivered)
        .field("frames_decoded", t.counters.framesDecoded)
        .field("drops_at_sender", t.counters.dropsAtSender)
        .field("drops_at_receiver", t.counters.dropsAtReceiver)
        .field("packets", t.counters.packets)
        .field("packets_lost", t.counters.packetsLost)
        .field("packets_delivered", t.counters.packetsDelivered)
        .field("packets_unrecovered", t.counters.packetsUnrecovered)
        .field("retransmissions", t.counters.retransmissions)
        .field("queue_drops", t.counters.queueDrops)
        .field("bytes_sent", t.counters.bytesSent)
        .field("fault_events", t.counters.faultEvents)
        .field("degradations", t.counters.degradations)
        .field("upgrades", t.counters.upgrades)
        .field("recon_blocks_skipped", t.counters.recon.blocksSkipped)
        .field("recon_bones_pruned", t.counters.recon.bonesPruned)
        .field("recon_nodes_evaluated", t.counters.recon.nodesEvaluated)
        .field("recon_cert_tests", t.counters.recon.certTests)
        .field("recon_active_cells", t.counters.recon.activeCells)
        .endObject();
    w.endObject();
    return w.str();
}

bool SessionTelemetry::writeJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << toJsonValue(*this) << "\n";
    return static_cast<bool>(out);
}

// ---- JsonWriter ----------------------------------------------------------

void JsonWriter::comma() {
    if (!needComma_.empty()) {
        if (needComma_.back()) out_ += ",";
        needComma_.back() = true;
    }
}

void JsonWriter::keyPrefix(const std::string& key) {
    comma();
    if (!key.empty()) {
        out_ += "\"" + key + "\":";
    }
}

JsonWriter& JsonWriter::beginObject(const std::string& key) {
    keyPrefix(key);
    out_ += "{";
    needComma_.push_back(false);
    return *this;
}

JsonWriter& JsonWriter::endObject() {
    out_ += "}";
    if (!needComma_.empty()) needComma_.pop_back();
    return *this;
}

JsonWriter& JsonWriter::beginArray(const std::string& key) {
    keyPrefix(key);
    out_ += "[";
    needComma_.push_back(false);
    return *this;
}

JsonWriter& JsonWriter::endArray() {
    out_ += "]";
    if (!needComma_.empty()) needComma_.pop_back();
    return *this;
}

JsonWriter& JsonWriter::field(const std::string& key, double value) {
    keyPrefix(key);
    out_ += formatNumber(value);
    return *this;
}

JsonWriter& JsonWriter::field(const std::string& key, std::uint64_t value) {
    keyPrefix(key);
    out_ += std::to_string(value);
    return *this;
}

JsonWriter& JsonWriter::field(const std::string& key, const std::string& value) {
    keyPrefix(key);
    out_ += "\"";
    for (const char c : value) {
        switch (c) {
            case '"': out_ += "\\\""; break;
            case '\\': out_ += "\\\\"; break;
            case '\n': out_ += "\\n"; break;
            case '\t': out_ += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out_ += buf;
                } else {
                    out_ += c;
                }
        }
    }
    out_ += "\"";
    return *this;
}

JsonWriter& JsonWriter::raw(const std::string& key, const std::string& jsonValue) {
    keyPrefix(key);
    out_ += jsonValue;
    return *this;
}

}  // namespace semholo::core::telemetry
