/**
 * @file
 * Tests for the edb::obs observability layer: registry stress under
 * threads (prepared and unprepared shards), histogram bucketing,
 * snapshot JSON shape, and the Chrome trace-event sink. The whole
 * suite runs under TSan in CI — the stress test doubles as the data
 * race check for the thread-local sharding.
 */

#include <gtest/gtest.h>

#include "obs/obs.h"

#if EDB_OBS_ENABLED

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

namespace edb::obs {
namespace {

// Namespace-scope instruments, like production call sites. Names are
// test-prefixed so they can't collide with the real instrumented
// code paths linked into this binary.
Counter stressCounter{"test.obs.stress_counter"};
Gauge stressGauge{"test.obs.stress_gauge"};
Histogram stressHist{"test.obs.stress_hist"};

TEST(ObsRegistry, StressExactTotalsAcrossThreads)
{
    constexpr int kThreads = 8;
    constexpr int kIters = 20000;

    const Snapshot base = takeSnapshot();
    const std::int64_t base_counter =
        base.counter("test.obs.stress_counter");
    const HistogramValue *base_hist =
        base.histogram("test.obs.stress_hist");
    const std::uint64_t base_hist_count =
        base_hist != nullptr ? base_hist->count : 0;

    std::atomic<bool> done{false};
    // Concurrent snapshotter: the merged counter must be monotonic
    // while increments race against it.
    std::thread snapshotter([&] {
        std::int64_t last = base_counter;
        while (!done.load(std::memory_order_relaxed)) {
            std::int64_t now =
                takeSnapshot().counter("test.obs.stress_counter");
            EXPECT_GE(now, last);
            last = now;
        }
    });

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([t] {
            // Half the threads get their own shard; the rest land in
            // the shared fallback shard (the signal-context path).
            if (t % 2 == 0)
                prepareCurrentThread();
            for (int i = 0; i < kIters; ++i) {
                stressCounter.inc();
                stressGauge.add(3);
                stressGauge.sub(3);
                stressHist.observe((std::uint64_t)i);
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    done.store(true, std::memory_order_relaxed);
    snapshotter.join();

    Snapshot snap = takeSnapshot();
    EXPECT_EQ(snap.counter("test.obs.stress_counter"),
              base_counter + (std::int64_t)kThreads * kIters);
    // Gauge deltas cancel exactly, across prepared and fallback shards.
    EXPECT_EQ(snap.gauge("test.obs.stress_gauge"), 0);

    const HistogramValue *h = snap.histogram("test.obs.stress_hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count,
              base_hist_count + (std::uint64_t)kThreads * kIters);
    EXPECT_EQ(h->min, 0u);
    EXPECT_GE(h->max, (std::uint64_t)kIters - 1);
    std::uint64_t bucket_total = 0;
    for (std::uint64_t b : h->buckets)
        bucket_total += b;
    EXPECT_EQ(bucket_total, h->count);
}

TEST(ObsHistogram, BucketOfIsBitLength)
{
    EXPECT_EQ(AtomicHist::bucketOf(0), 0u);
    EXPECT_EQ(AtomicHist::bucketOf(1), 1u);
    EXPECT_EQ(AtomicHist::bucketOf(2), 2u);
    EXPECT_EQ(AtomicHist::bucketOf(3), 2u);
    EXPECT_EQ(AtomicHist::bucketOf(4), 3u);
    EXPECT_EQ(AtomicHist::bucketOf(7), 3u);
    EXPECT_EQ(AtomicHist::bucketOf(8), 4u);
    EXPECT_EQ(AtomicHist::bucketOf(1u << 20), 21u);
    EXPECT_EQ(AtomicHist::bucketOf(~std::uint64_t{0}), 64u);
    static_assert(AtomicHist::bucketOf(255) == 8);
    static_assert(AtomicHist::bucketOf(256) == 9);
}

TEST(ObsSnapshot, JsonCarriesSchemaAndInstruments)
{
    static Counter marker{"test.obs.json_marker"};
    marker.add(7);

    std::ostringstream os;
    writeSnapshotJson(os, takeSnapshot());
    const std::string json = os.str();

    EXPECT_NE(json.find("\"schema\": \"edb-metrics-v2\""),
              std::string::npos);
    EXPECT_NE(json.find("\"meta\""), std::string::npos);
    EXPECT_NE(json.find("\"wall_ms\""), std::string::npos);
    EXPECT_NE(json.find("\"uptime_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\""), std::string::npos);
    EXPECT_NE(json.find("\"interval_ms\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"samples\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"series\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("{\"name\": \"test.obs.json_marker\", "
                        "\"labels\": {}, \"kind\": \"counter\""),
              std::string::npos);
    // Braces balance (the writer emits no string containing braces).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(ObsSnapshot, MetaFieldsArePlausible)
{
    const Snapshot snap = takeSnapshot();
    EXPECT_EQ(snap.pid, (std::int64_t)::getpid());
    // Wall clock: after 2020-01-01 in milliseconds since the epoch.
    EXPECT_GT(snap.wallMs, 1577836800000ull);
    EXPECT_GT(snap.uptimeNs, 0ull);
    // Uptime advances monotonically between snapshots.
    const Snapshot later = takeSnapshot();
    EXPECT_GE(later.uptimeNs, snap.uptimeNs);
    EXPECT_GE(later.wallMs, snap.wallMs);
}

TEST(ObsHistogram, QuantileEmptyAndSingleValue)
{
    HistogramValue h;
    h.buckets.assign(histBuckets, 0);
    EXPECT_EQ(h.quantile(0.5), 0.0);

    // One observation of 100: every quantile must report 100, not
    // some point inside bucket 7's [64, 127] span — the min/max
    // clamp pins the interpolation.
    static Histogram one{"test.obs.quantile_one"};
    one.observe(100);
    const Snapshot snap = takeSnapshot();
    const HistogramValue *hv =
        snap.histogram("test.obs.quantile_one");
    ASSERT_NE(hv, nullptr);
    EXPECT_DOUBLE_EQ(hv->quantile(0.0), 100.0);
    EXPECT_DOUBLE_EQ(hv->quantile(0.5), 100.0);
    EXPECT_DOUBLE_EQ(hv->quantile(1.0), 100.0);
}

TEST(ObsHistogram, QuantileUniformPinsP50P95P99)
{
    // 1..1024 uniformly: the log2 buckets are coarse, but the
    // within-bucket linear interpolation keeps the estimate inside
    // a modest band of the exact order statistic.
    static Histogram uni{"test.obs.quantile_uniform"};
    for (std::uint64_t v = 1; v <= 1024; ++v)
        uni.observe(v);
    const Snapshot snap = takeSnapshot();
    const HistogramValue *hv =
        snap.histogram("test.obs.quantile_uniform");
    ASSERT_NE(hv, nullptr);
    const double p50 = hv->quantile(0.50);
    const double p95 = hv->quantile(0.95);
    const double p99 = hv->quantile(0.99);
    // Exact order statistics: 512.5, 973.6, 1014.5. A log2-bucket
    // estimate lands within the bucket, so allow its width.
    EXPECT_GT(p50, 256.0);
    EXPECT_LE(p50, 1024.0);
    EXPECT_GT(p95, 512.0);
    EXPECT_LE(p95, 1024.0);
    EXPECT_GT(p99, 512.0);
    EXPECT_LE(p99, 1024.0);
    // Quantiles are monotone in q, and the extremes hit min/max.
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_DOUBLE_EQ(hv->quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(hv->quantile(1.0), 1024.0);
}

/** Pull the value of an integer field like `"tid": 7` out of one
 *  trace-event line. Returns -1 when absent. */
long
eventField(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return -1;
    return std::strtol(line.c_str() + at + needle.size(), nullptr, 10);
}

TEST(ObsTraceSink, BalancedSpansPerThread)
{
    const std::string path = ::testing::TempDir() + "/edb_obs_trace." +
                             std::to_string(::getpid()) + ".json";
    enableTrace(path);
    ASSERT_TRUE(traceEnabled());

    constexpr int kThreads = 4;
    constexpr int kSpans = 50;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([] {
            for (int i = 0; i < kSpans; ++i) {
                EDB_OBS_SPAN("test.outer");
                EDB_OBS_SPAN("test.inner"); // nested: stack discipline
            }
        });
    }
    for (std::thread &w : workers)
        w.join();

    ASSERT_TRUE(flushTrace());
    EXPECT_TRUE(traceFlushed());

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "{\"traceEvents\": [");

    // Per-tid B/E stack check: depth never negative, ends at zero,
    // timestamps non-decreasing within a thread's buffer.
    std::map<long, long> depth;
    std::map<long, double> last_ts;
    std::size_t events = 0;
    while (std::getline(in, line)) {
        std::size_t ph_at = line.find("\"ph\": \"");
        if (ph_at == std::string::npos)
            continue; // the closing "]}" line
        ++events;
        const char ph = line[ph_at + 7];
        const long tid = eventField(line, "tid");
        ASSERT_GE(tid, 1);
        EXPECT_EQ(eventField(line, "pid"), 1);
        EXPECT_NE(line.find("\"cat\": \"edb\""), std::string::npos);

        const std::string needle = "\"ts\": ";
        std::size_t ts_at = line.find(needle);
        ASSERT_NE(ts_at, std::string::npos);
        const double ts =
            std::strtod(line.c_str() + ts_at + needle.size(), nullptr);
        EXPECT_GE(ts, last_ts[tid]);
        last_ts[tid] = ts;

        if (ph == 'B')
            ++depth[tid];
        else if (ph == 'E')
            EXPECT_GE(--depth[tid], 0) << "tid " << tid;
        else
            ADD_FAILURE() << "unexpected phase " << ph;
    }
    // >= rather than ==: other suites in this process may have traced.
    EXPECT_GE(events, (std::size_t)kThreads * kSpans * 4);
    for (const auto &[tid, d] : depth)
        EXPECT_EQ(d, 0) << "unbalanced B/E for tid " << tid;

    std::remove(path.c_str());
}

TEST(ObsTraceSink, ScopeTimerFeedsHistogram)
{
    static Histogram spanHist{"test.obs.span_hist"};
    const Snapshot pre = takeSnapshot();
    const HistogramValue *before_h =
        pre.histogram("test.obs.span_hist");
    const std::uint64_t before =
        before_h != nullptr ? before_h->count : 0;
    {
        ScopeTimer span("test.timed", &spanHist);
    }
    const Snapshot post = takeSnapshot();
    const HistogramValue *h = post.histogram("test.obs.span_hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, before + 1);
}

} // namespace
} // namespace edb::obs

#else // !EDB_OBS_ENABLED

TEST(Obs, DisabledInThisBuild)
{
    GTEST_SKIP() << "built with EDB_OBS=OFF; obs layer compiled away";
}

#endif // EDB_OBS_ENABLED
