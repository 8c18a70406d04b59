#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "semholo/core/telemetry.hpp"

namespace semholo::core::telemetry {
namespace {

TEST(Histogram, NearestRankPercentiles) {
    Histogram h;
    for (int v = 1; v <= 100; ++v) h.record(v);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(h.p95(), 95.0);
    EXPECT_DOUBLE_EQ(h.p99(), 99.0);
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(Histogram, EmptyReportsNoData) {
    const Histogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_TRUE(std::isnan(h.p95()));
    EXPECT_TRUE(std::isnan(h.mean()));
    EXPECT_TRUE(std::isnan(h.min()));
    EXPECT_TRUE(std::isnan(h.max()));
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(Histogram, MergeConcatenatesSamples) {
    Histogram a, b;
    a.record(1.0);
    a.record(2.0);
    b.record(10.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.max(), 10.0);
    // Percentiles stay correct after interleaved record/merge.
    a.record(0.5);
    EXPECT_DOUBLE_EQ(a.percentile(0), 0.5);
}

// Regression test for the lazy-sort data race: percentile() on a const
// Histogram used to rebuild the sorted cache without synchronisation, so
// concurrent readers (the parallel engine's telemetry aggregation) raced
// on sorted_/sortedValid_. All accessors are now internally locked; this
// test drives concurrent record + percentile + merge + copy and is run
// under TSan in CI (ctest -R Histogram).
TEST(Histogram, ConcurrentRecordPercentileAndMergeAreSafe) {
    Histogram shared;
    for (int v = 1; v <= 64; ++v) shared.record(v);

    constexpr int kThreads = 8;
    constexpr int kIters = 400;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&shared, t] {
            Histogram local;
            for (int i = 0; i < kIters; ++i) {
                switch (t % 4) {
                    case 0:  // writer
                        shared.record(static_cast<double>(i % 100));
                        break;
                    case 1: {  // percentile reader (lazy-sort path)
                        const double p = shared.percentile(95);
                        EXPECT_GE(p, 0.0);
                        break;
                    }
                    case 2:  // merger
                        local.record(static_cast<double>(i));
                        shared.merge(local);
                        break;
                    default: {  // copier + cheap readers
                        const Histogram snapshot = shared;
                        EXPECT_LE(snapshot.min(), snapshot.max());
                        EXPECT_GE(shared.count(), 64u);
                        break;
                    }
                }
            }
        });
    }
    for (std::thread& th : threads) th.join();

    EXPECT_GE(shared.count(), 64u);
    EXPECT_DOUBLE_EQ(shared.min(), 0.0);
    // The cache still converges to correct order once quiescent.
    EXPECT_GE(shared.percentile(100), shared.percentile(50));
}

TEST(Histogram, SelfMergeDoublesSamples) {
    Histogram h;
    h.record(1.0);
    h.record(3.0);
    h.merge(h);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 8.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 3.0);
}

TEST(Counters, MergeSumsEveryField) {
    Counters a, b;
    a.framesCaptured = 3;
    a.retransmissions = 2;
    a.packetsDelivered = 9;
    b.framesCaptured = 4;
    b.queueDrops = 5;
    b.packetsDelivered = 11;
    a.merge(b);
    EXPECT_EQ(a.framesCaptured, 7u);
    EXPECT_EQ(a.retransmissions, 2u);
    EXPECT_EQ(a.queueDrops, 5u);
    EXPECT_EQ(a.packetsDelivered, 20u);
}

TEST(SessionTelemetryJson, ContainsStagesAndCounters) {
    SessionTelemetry t;
    t.encodeMs.record(1.5);
    t.encodeMs.record(2.5);
    t.counters.framesCaptured = 2;
    t.counters.retransmissions = 1;
    const std::string json = toJsonValue(t);
    EXPECT_NE(json.find("\"stages\""), std::string::npos);
    EXPECT_NE(json.find("\"encode_ms\""), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"retransmissions\":1"), std::string::npos);
    EXPECT_NE(json.find("\"frames_captured\":2"), std::string::npos);
}

TEST(SessionTelemetryJson, WritesFile) {
    SessionTelemetry t;
    t.decodeMs.record(4.0);
    const std::string path = "telemetry_test_out.json";
    ASSERT_TRUE(t.writeJson(path));
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_NE(buffer.str().find("\"decode_ms\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(JsonWriter, NestedObjectsArraysAndEscaping) {
    JsonWriter w;
    w.beginObject()
        .field("name", std::string("multi\"user\n"))
        .field("speedup", 2.5)
        .beginArray("rows")
        .beginObject()
        .field("users", std::uint64_t{8})
        .endObject()
        .beginObject()
        .field("users", std::uint64_t{4})
        .endObject()
        .endArray()
        .raw("telemetry", "{\"inner\":1}")
        .endObject();
    EXPECT_EQ(w.str(),
              "{\"name\":\"multi\\\"user\\n\",\"speedup\":2.5,"
              "\"rows\":[{\"users\":8},{\"users\":4}],"
              "\"telemetry\":{\"inner\":1}}");
}

}  // namespace
}  // namespace semholo::core::telemetry
