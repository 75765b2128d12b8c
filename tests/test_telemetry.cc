/**
 * @file
 * Tests for the labeled side of the obs registry — TelemetryDomain
 * validation, the cardinality cap's per-(name, kind) overflow series
 * and family sums, the time-series sampler's rate derivation, the
 * JSON and Prometheus writers, and a TSan-facing concurrency stress.
 * The registry is process-global and accumulates across suites, so
 * every assertion here is delta-based or uses test-unique names.
 */

#include <gtest/gtest.h>

#include "obs/obs.h"
#include "obs/sampler.h"

#if EDB_OBS_ENABLED

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace edb::obs {
namespace {

/** Find one snapshot series or histogram by (name, single label
 *  value); an empty label value matches the label-less series. */
template <typename V>
const V *
findSeries(const std::vector<V> &all, const std::string &name,
           const std::string &label_value)
{
    for (const V &s : all) {
        if (s.name != name)
            continue;
        if (label_value.empty() && s.labels.empty())
            return &s;
        for (const Label &l : s.labels) {
            if (l.value == label_value)
                return &s;
        }
    }
    return nullptr;
}

/** Sum of every labeled series of one family in a snapshot. */
std::int64_t
familyTotal(const Snapshot &snap, const std::string &name)
{
    std::int64_t total = 0;
    for (const ScalarValue &s : snap.series) {
        if (s.name == name && !s.labels.empty())
            total += s.value;
    }
    return total;
}

TEST(TelemetryDomain, RejectsTooManyLabels)
{
    std::vector<Label> five;
    for (int i = 0; i < 5; ++i)
        five.push_back({"k" + std::to_string(i), "v"});
    EXPECT_THROW(TelemetryDomain{five}, std::invalid_argument);
    // Exactly maxLabelsPerDomain is fine...
    five.pop_back();
    EXPECT_NO_THROW(TelemetryDomain{five});
    // ...and with() pushing past the cap throws again.
    TelemetryDomain four{five};
    EXPECT_THROW(four.with("k9", "v"), std::invalid_argument);
}

TEST(TelemetryDomain, RejectsEmptyAndDuplicateKeys)
{
    EXPECT_THROW(TelemetryDomain({{"", "v"}}), std::invalid_argument);
    EXPECT_THROW(TelemetryDomain({{"k", "a"}, {"k", "b"}}),
                 std::invalid_argument);
    TelemetryDomain d{{"k", "a"}};
    EXPECT_THROW(d.with("k", "b"), std::invalid_argument);
    EXPECT_NO_THROW(d.with("j", "b"));
}

TEST(TelemetryDomain, TruncatesLongLabelValues)
{
    // Values are truncated, never rejected: a tenant's name must not
    // be able to fail its own HELLO.
    const std::string longValue(3 * maxLabelValueBytes, 'x');
    TelemetryDomain d{{"tenant", longValue}};
    ASSERT_EQ(d.labels().size(), 1u);
    EXPECT_EQ(d.labels()[0].value.size(), maxLabelValueBytes);
}

TEST(TelemetrySeries, CounterGaugeHistogramCollect)
{
    TelemetryDomain d{{"tenant", "tt-collect"}};
    Series c = d.counter("test.telemetry.collect_c");
    Series g = d.gauge("test.telemetry.collect_g");
    HistSeries h = d.histogram("test.telemetry.collect_h");

    c.add(5);
    c.inc();
    g.add(10);
    g.sub(3);
    h.observe(100);
    h.observe(200);

    const Snapshot all = takeSnapshot();
    const ScalarValue *sc =
        findSeries(all.series, "test.telemetry.collect_c", "tt-collect");
    ASSERT_NE(sc, nullptr);
    EXPECT_EQ(sc->kind, Kind::Counter);
    EXPECT_EQ(sc->value, 6);

    const ScalarValue *sg =
        findSeries(all.series, "test.telemetry.collect_g", "tt-collect");
    ASSERT_NE(sg, nullptr);
    EXPECT_EQ(sg->kind, Kind::Gauge);
    EXPECT_EQ(sg->value, 7);

    const HistogramValue *sh = findSeries(
        all.histograms, "test.telemetry.collect_h", "tt-collect");
    ASSERT_NE(sh, nullptr);
    EXPECT_EQ(sh->count, 2u);
    EXPECT_EQ(sh->sum, 300u);
    EXPECT_EQ(sh->min, 100u);
    EXPECT_EQ(sh->max, 200u);
}

TEST(TelemetrySeries, SameIdentitySharesOneCell)
{
    // Re-interning the identical (name, labels) — e.g. a tenant
    // reconnecting under the same name — resumes the same cell
    // instead of minting a new series.
    TelemetryDomain a{{"tenant", "tt-shared"}};
    Series s1 = a.counter("test.telemetry.shared");
    s1.inc();
    const std::size_t before = seriesCount();

    TelemetryDomain b{{"tenant", "tt-shared"}};
    Series s2 = b.counter("test.telemetry.shared");
    s2.add(2);
    EXPECT_EQ(seriesCount(), before);

    const Snapshot all = takeSnapshot();
    const ScalarValue *s =
        findSeries(all.series, "test.telemetry.shared", "tt-shared");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->value, 3);
}

TEST(TelemetrySeries, KindConflictThrows)
{
    TelemetryDomain d{{"tenant", "tt-kind"}};
    (void)d.counter("test.telemetry.kind_conflict");
    EXPECT_THROW((void)d.gauge("test.telemetry.kind_conflict"),
                 std::invalid_argument);
    EXPECT_THROW((void)d.histogram("test.telemetry.kind_conflict"),
                 std::invalid_argument);
}

// Family sums over the capped families below: label-less totals
// derived from every labeled series, overflow series included.
FamilySum cappedTotal{"test.telemetry.capped_total",
                      "test.telemetry.capped", Kind::Counter};
FamilySum cappedLevel{"test.telemetry.capped_level",
                      "test.telemetry.capped_g", Kind::Gauge};

TEST(TelemetrySeries, CardinalityCapRoutesToOverflowCell)
{
    // One attributed series interned before the cap, so the family
    // sum spans attributed and overflow series alike.
    TelemetryDomain early{{"tenant", "tt-overflow-early"}};
    early.counter("test.telemetry.capped").add(5);
    early.gauge("test.telemetry.capped_g").add(2);

    // Freeze the cap at the current population: the very next new
    // identity must land in the overflow series of its own
    // (name, kind) — attribution degrades, the process does not
    // abort, counters stay monotone and gauges stay gauges.
    const std::size_t prev = setMaxSeriesForTest(seriesCount());
    const std::size_t frozen = seriesCount();

    const auto overflowValue = [](const char *name) {
        const Snapshot snap = takeSnapshot();
        const ScalarValue *s = findSeries(snap.series, name, "1");
        return s != nullptr ? s->value : 0;
    };
    const std::int64_t counter_base =
        overflowValue("test.telemetry.capped");
    const std::int64_t gauge_base =
        overflowValue("test.telemetry.capped_g");

    // A late tenant: counter +3, then its gauge +1 -1 -5. The
    // counter's overflow value must never move backwards.
    TelemetryDomain d{{"tenant", "tt-overflow-newcomer"}};
    Series c = d.counter("test.telemetry.capped");
    Series g = d.gauge("test.telemetry.capped_g");
    c.add(3);
    std::int64_t last = overflowValue("test.telemetry.capped");
    EXPECT_EQ(last, counter_base + 3);
    for (const std::int64_t delta : {1, -1, -5}) {
        g.add(delta);
        const std::int64_t now = overflowValue("test.telemetry.capped");
        EXPECT_GE(now, last);
        last = now;
    }
    EXPECT_EQ(seriesCount(), frozen);

    const Snapshot snap = takeSnapshot();
    const ScalarValue *ov =
        findSeries(snap.series, "test.telemetry.capped", "1");
    ASSERT_NE(ov, nullptr);
    ASSERT_EQ(ov->labels.size(), 1u);
    EXPECT_EQ(ov->labels[0].key, "overflow");
    EXPECT_EQ(ov->kind, Kind::Counter);
    EXPECT_EQ(ov->value, counter_base + 3);
    const ScalarValue *ovg =
        findSeries(snap.series, "test.telemetry.capped_g", "1");
    ASSERT_NE(ovg, nullptr);
    EXPECT_EQ(ovg->kind, Kind::Gauge);
    EXPECT_EQ(ovg->value, gauge_base - 5);
    // The newcomer got no series of its own.
    EXPECT_EQ(findSeries(snap.series, "test.telemetry.capped",
                         "tt-overflow-newcomer"),
              nullptr);

    // Derived globals equal their family sums, overflow included.
    EXPECT_EQ(snap.counter("test.telemetry.capped_total"),
              familyTotal(snap, "test.telemetry.capped"));
    EXPECT_GE(snap.counter("test.telemetry.capped_total"),
              5 + ov->value);
    EXPECT_EQ(snap.gauge("test.telemetry.capped_level"),
              familyTotal(snap, "test.telemetry.capped_g"));

    // The exposition keeps each overflow series in its own family
    // with its own type.
    const std::string text = prometheusText();
    EXPECT_NE(text.find("# TYPE edb_test_telemetry_capped counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE edb_test_telemetry_capped_g gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("edb_test_telemetry_capped_g{overflow=\"1\"} " +
                        std::to_string(gauge_base - 5) + "\n"),
              std::string::npos);

    // Histograms overflow into their own (name, kind) series too.
    HistSeries hs = d.histogram("test.telemetry.capped_hist");
    hs.observe(7);
    const Snapshot afterHist = takeSnapshot();
    const HistogramValue *ovh = findSeries(
        afterHist.histograms, "test.telemetry.capped_hist", "1");
    ASSERT_NE(ovh, nullptr);
    EXPECT_GE(ovh->count, 1u);

    setMaxSeriesForTest(prev);

    // With the cap restored, fresh identities intern normally again.
    Series fresh = d.counter("test.telemetry.post_cap");
    fresh.inc();
    const Snapshot restored = takeSnapshot();
    EXPECT_NE(findSeries(restored.series, "test.telemetry.post_cap",
                         "tt-overflow-newcomer"),
              nullptr);
}

TEST(TelemetrySampler, CounterRateFromInjectedTimestamps)
{
    TelemetryDomain d{{"tenant", "tt-rate"}};
    Series c = d.counter("test.telemetry.rate");
    c.add(0); // intern before the first tick

    Sampler sampler({.intervalMs = 1000, .ringCapacity = 8});
    sampler.sampleOnce(1'000'000'000ull);
    c.add(100);
    sampler.sampleOnce(2'000'000'000ull);

    const Snapshot report = sampler.makeReport();
    EXPECT_EQ(report.intervalMs, 1000u);
    EXPECT_EQ(report.samples, 2u);

    const ScalarValue *rs = nullptr;
    for (const ScalarValue &s : report.series) {
        if (s.name == "test.telemetry.rate" && !s.labels.empty() &&
            s.labels[0].value == "tt-rate") {
            rs = &s;
        }
    }
    ASSERT_NE(rs, nullptr);
    EXPECT_EQ(rs->value, 100);
    ASSERT_TRUE(rs->hasRate);
    // 100 increments over exactly one injected second.
    EXPECT_NEAR(rs->rate, 100.0, 1e-9);
}

TEST(TelemetrySampler, RingWrapNarrowsTheRateWindow)
{
    TelemetryDomain d{{"tenant", "tt-wrap"}};
    Series c = d.counter("test.telemetry.wrap");
    c.add(0);

    Sampler sampler({.intervalMs = 1000, .ringCapacity = 4});
    // Six ticks, +10/s: the 4-slot ring retains t=3..6 only, so the
    // window rate stays 10/s and the oldest points fall away.
    for (std::uint64_t t = 1; t <= 6; ++t) {
        sampler.sampleOnce(t * 1'000'000'000ull);
        c.add(10);
    }

    const Snapshot report = sampler.makeReport();
    EXPECT_EQ(report.samples, 6u);
    const ScalarValue *rs = nullptr;
    for (const ScalarValue &s : report.series) {
        if (s.name == "test.telemetry.wrap" && !s.labels.empty() &&
            s.labels[0].value == "tt-wrap") {
            rs = &s;
        }
    }
    ASSERT_NE(rs, nullptr);
    EXPECT_EQ(rs->value, 50); // value as of the t=6 tick
    ASSERT_TRUE(rs->hasRate);
    EXPECT_NEAR(rs->rate, 10.0, 1e-9);
}

TEST(TelemetrySampler, GaugesNeverCarryRates)
{
    TelemetryDomain d{{"tenant", "tt-gaugerate"}};
    Series g = d.gauge("test.telemetry.gauge_rate");
    g.add(5);

    Sampler sampler({.intervalMs = 1000, .ringCapacity = 8});
    sampler.sampleOnce(1'000'000'000ull);
    sampler.sampleOnce(2'000'000'000ull);
    for (const ScalarValue &s : sampler.makeReport().series) {
        if (s.kind == Kind::Gauge)
            EXPECT_FALSE(s.hasRate) << s.name;
    }
}

TEST(TelemetrySampler, SnapshotReportHasValuesButNoRates)
{
    TelemetryDomain d{{"tenant", "tt-snap"}};
    Series c = d.counter("test.telemetry.snap");
    c.add(9);

    // A plain snapshot (what METRICS serves with the sampler off)
    // carries live values and no rates.
    const Snapshot report = takeSnapshot();
    EXPECT_EQ(report.intervalMs, 0u);
    bool found = false;
    for (const ScalarValue &s : report.series) {
        EXPECT_FALSE(s.hasRate) << s.name;
        if (s.name == "test.telemetry.snap" && !s.labels.empty() &&
            s.labels[0].value == "tt-snap") {
            found = true;
            EXPECT_EQ(s.value, 9);
        }
    }
    EXPECT_TRUE(found);
}

TEST(TelemetryJson, ReportSchemaAndShape)
{
    Snapshot report;
    report.wallMs = 1700000000000ull;
    report.uptimeNs = 42;
    report.pid = 7;
    report.intervalMs = 250;
    report.samples = 4;
    report.series.push_back(
        {"a.b", {{"tenant", "t\"1"}}, Kind::Counter, 7, 3.5, true});
    report.series.push_back({"a.g", {}, Kind::Gauge, -2});
    HistogramValue h;
    h.name = "lat";
    h.count = 2;
    h.sum = 10;
    h.min = 5;
    h.max = 5;
    h.buckets.assign(histBuckets, 0);
    h.buckets[AtomicHist::bucketOf(5)] = 2;
    report.histograms.push_back(h);

    std::ostringstream os;
    writeSnapshotJson(os, report);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"schema\": \"edb-metrics-v2\""),
              std::string::npos);
    EXPECT_NE(json.find("\"meta\": {\"wall_ms\": 1700000000000, "
                        "\"uptime_ns\": 42, \"pid\": 7, "
                        "\"interval_ms\": 250, \"samples\": 4}"),
              std::string::npos);
    EXPECT_NE(json.find("\"rate\": 3.5"), std::string::npos);
    EXPECT_NE(json.find("\\\"1"), std::string::npos); // escaped quote
    // Unsampled series carry no rate field.
    EXPECT_NE(json.find("\"kind\": \"gauge\", \"value\": -2}"),
              std::string::npos);
    EXPECT_NE(json.find("\"p50\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"buckets\": [0, 0, 0, 2]"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(TelemetryProm, ExpositionIsWellFormed)
{
    // Populate at least one labeled series of each kind.
    TelemetryDomain d{{"tenant", "tt-prom"}};
    d.counter("test.telemetry.prom_c").add(3);
    d.gauge("test.telemetry.prom_g").add(1);
    HistSeries h = d.histogram("test.telemetry.prom_h");
    h.observe(1);
    h.observe(1000);

    const std::string text = prometheusText();
    std::istringstream in(text);
    std::string line;
    std::set<std::string> typed;     // families with a TYPE comment
    std::set<std::string> helped;    // families with a HELP comment
    std::set<std::string> seen;      // sample identities (name+labels)
    while (std::getline(in, line)) {
        ASSERT_FALSE(line.empty());
        if (line.rfind("# HELP ", 0) == 0) {
            helped.insert(line.substr(7, line.find(' ', 7) - 7));
            continue;
        }
        if (line.rfind("# TYPE ", 0) == 0) {
            typed.insert(line.substr(7, line.find(' ', 7) - 7));
            continue;
        }
        ASSERT_NE(line[0], '#') << line;
        // Mangled names only, and the family must be declared first.
        EXPECT_EQ(line.rfind("edb_", 0), 0u) << line;
        const std::string ident = line.substr(0, line.rfind(' '));
        EXPECT_TRUE(seen.insert(ident).second)
            << "duplicate series: " << ident;
        std::string family = ident.substr(0, ident.find('{'));
        for (const char *suffix : {"_bucket", "_sum", "_count"}) {
            const std::size_t n = std::strlen(suffix);
            if (family.size() > n &&
                family.compare(family.size() - n, n, suffix) == 0 &&
                typed.count(family) == 0) {
                family.resize(family.size() - n);
                break;
            }
        }
        EXPECT_EQ(typed.count(family), 1u) << "untyped: " << line;
        EXPECT_EQ(helped.count(family), 1u) << "unhelped: " << line;
    }

    // The labeled series render with their label block.
    EXPECT_NE(
        text.find("edb_test_telemetry_prom_c{tenant=\"tt-prom\"} 3"),
        std::string::npos);
    // Histogram family: +Inf bucket equals _count.
    EXPECT_NE(text.find("edb_test_telemetry_prom_h_bucket{"
                        "tenant=\"tt-prom\",le=\"+Inf\"} 2"),
              std::string::npos);
    EXPECT_NE(
        text.find("edb_test_telemetry_prom_h_count{tenant=\"tt-prom\"} 2"),
        std::string::npos);
}

TEST(TelemetryStress, ConcurrentDomainsCollectAndSample)
{
    // TSan-facing: racing interns of the same identities, hot-path
    // increments, and concurrent takeSnapshot()/sampleOnce() readers.
    constexpr int kThreads = 8;
    constexpr int kIters = 5000;

    std::atomic<bool> done{false};
    std::thread reader([&] {
        Sampler sampler({.intervalMs = 1, .ringCapacity = 4});
        while (!done.load(std::memory_order_relaxed)) {
            (void)takeSnapshot();
            sampler.sampleOnce();
            (void)sampler.makeReport();
        }
    });

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([t] {
            // Four distinct tenants, interned racily from two
            // threads each.
            TelemetryDomain d{
                {"tenant", "tt-stress-" + std::to_string(t % 4)}};
            Series c = d.counter("test.telemetry.stress");
            HistSeries h = d.histogram("test.telemetry.stress_h");
            for (int i = 0; i < kIters; ++i) {
                c.inc();
                h.observe((std::uint64_t)i);
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    done.store(true, std::memory_order_relaxed);
    reader.join();

    const Snapshot snap = takeSnapshot();
    const std::int64_t total = familyTotal(snap, "test.telemetry.stress");
    std::uint64_t hist_total = 0;
    for (const HistogramValue &h : snap.histograms) {
        if (h.name == "test.telemetry.stress_h")
            hist_total += h.count;
    }
    EXPECT_EQ(total, (std::int64_t)kThreads * kIters);
    EXPECT_EQ(hist_total, (std::uint64_t)kThreads * kIters);
}

} // namespace
} // namespace edb::obs

#else // !EDB_OBS_ENABLED

TEST(Telemetry, DisabledInThisBuild)
{
    GTEST_SKIP()
        << "built with EDB_OBS=OFF; telemetry layer compiled away";
}

#endif // EDB_OBS_ENABLED
