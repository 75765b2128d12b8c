/**
 * @file
 * The obs registry: shard lifecycle (adopt / retire / recycle), the
 * one intern namespace of (name, labels) identities with its
 * cardinality cap and per-(name, kind) overflow series, family sums,
 * and the snapshot merge.
 *
 * The registry is an intentionally leaked singleton: detached threads
 * and atexit hooks may touch instruments after main() returns, and a
 * destructed registry would turn those into use-after-free. ~30KB of
 * shards plus capped labeled cells is a fair price for never having
 * to reason about static destruction order.
 */

#include "obs/obs.h"

#if EDB_OBS_ENABLED

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include <unistd.h>

#include "util/logging.h"

namespace edb::obs {

constinit thread_local Shard *t_shard = nullptr;

namespace {

/** One interned (name, labels) identity. Never freed. */
struct Entry
{
    /** Where the value lives: a label-less shard slot, a labeled
     *  shared cell, or the sum of a labeled family. */
    enum class Store : std::uint8_t { Slot, Cell, Sum };

    std::string name;
    std::vector<Label> labels;
    Kind kind = Kind::Counter;
    Store store = Store::Slot;
    std::uint32_t slot = 0;                           ///< Store::Slot
    std::unique_ptr<std::atomic<std::int64_t>> value; ///< scalar Cell
    std::unique_ptr<AtomicHist> hist;                 ///< histogram Cell
    std::string family;                               ///< Store::Sum
};

class Registry
{
  public:
    Registry()
    {
        start_ns_ = monotonicNs();
        fallback_ = new Shard();
        shards_.push_back(fallback_);
        // The thread constructing the first instrument (normally the
        // main thread, during static init) gets its own shard now;
        // adoptCurrentThread() cannot be called here because the
        // registry's magic static is still mid-initialization.
        Shard *self = new Shard();
        shards_.push_back(self);
        t_shard = self;
        // Snapshots at process exit: EDB_OBS_JSON names a file to
        // write without any flag plumbing (benches rely on this), and
        // an enabled-but-unflushed trace sink gets its flush.
        std::atexit([] {
            if (traceEnabled() && !traceFlushed())
                flushTrace();
            if (const char *path = std::getenv("EDB_OBS_JSON");
                path != nullptr && *path != '\0') {
                writeSnapshotJsonFile(path);
            }
        });
    }

    Shard &fallback() { return *fallback_; }

    /**
     * The one intern point. Returns the existing entry of (name,
     * labels) — rejecting a kind or storage conflict — or registers
     * it: label-less identities take a shard slot, labeled ones a
     * cell while under the cardinality cap and otherwise fall back to
     * the overflow series of their (name, kind).
     */
    Entry &
    intern(const std::string &name, const std::vector<Label> &labels,
           Kind kind, const char *family = nullptr)
    {
        std::lock_guard<std::mutex> lk(mu_);
        return internLocked(name, labels, kind, family, false);
    }

    std::size_t
    labeledCount()
    {
        std::lock_guard<std::mutex> lk(mu_);
        return labeled_;
    }

    std::size_t
    setMaxSeries(std::size_t cap)
    {
        std::lock_guard<std::mutex> lk(mu_);
        return std::exchange(max_series_, cap);
    }

    void
    adoptCurrentThread()
    {
        if (t_shard != nullptr)
            return;
        std::lock_guard<std::mutex> lk(mu_);
        Shard *s;
        if (!free_.empty()) {
            s = free_.back();
            free_.pop_back();
        } else {
            s = new Shard();
            shards_.push_back(s);
        }
        t_shard = s;
    }

    /**
     * Fold a dying thread's shard into the fallback shard and recycle
     * it, so total footprint tracks peak concurrency, not the number
     * of threads ever created. The fold is atomic adds (signal-context
     * increments may race on the fallback shard); the mutex excludes
     * snapshots, so no value is counted twice or dropped.
     */
    void
    retireCurrentThread()
    {
        Shard *s = t_shard;
        if (s == nullptr)
            return;
        t_shard = nullptr;
        std::lock_guard<std::mutex> lk(mu_);
        for (std::size_t i = 0; i < maxScalars; ++i) {
            fallback_->scalars[i].fetch_add(
                s->scalars[i].exchange(0, std::memory_order_relaxed),
                std::memory_order_relaxed);
        }
        for (std::size_t h = 0; h < maxHistograms; ++h)
            s->hists[h].drainInto(fallback_->hists[h]);
        free_.push_back(s);
    }

    Snapshot
    takeSnapshot()
    {
        std::lock_guard<std::mutex> lk(mu_);

        Snapshot snap;
        snap.wallMs = (std::uint64_t)std::chrono::duration_cast<
                          std::chrono::milliseconds>(
                          std::chrono::system_clock::now()
                              .time_since_epoch())
                          .count();
        snap.uptimeNs = monotonicNs() - start_ns_;
        snap.pid = (std::int64_t)::getpid();
        snap.samples = 1;

        // Merge the shards per slot first; entries attach names.
        std::vector<std::int64_t> scalars(next_scalar_, 0);
        for (const Shard *s : shards_) {
            for (std::size_t i = 0; i < next_scalar_; ++i) {
                scalars[i] +=
                    s->scalars[i].load(std::memory_order_relaxed);
            }
        }

        // Entries iterate in key order, which is (name, labels)
        // order: the snapshot comes out sorted.
        std::vector<std::pair<std::size_t, const std::string *>> sums;
        for (const auto &[key, e] : entries_) {
            if (e.kind == Kind::Histogram) {
                HistogramValue hv;
                hv.name = e.name;
                hv.labels = e.labels;
                hv.buckets.assign(histBuckets, 0);
                if (e.store == Entry::Store::Cell) {
                    e.hist->addTo(hv);
                } else {
                    for (const Shard *s : shards_)
                        s->hists[e.slot].addTo(hv);
                }
                snap.histograms.push_back(std::move(hv));
                continue;
            }
            ScalarValue sv;
            sv.name = e.name;
            sv.labels = e.labels;
            sv.kind = e.kind;
            switch (e.store) {
              case Entry::Store::Slot:
                sv.value = scalars[e.slot];
                break;
              case Entry::Store::Cell:
                sv.value = e.value->load(std::memory_order_relaxed);
                break;
              case Entry::Store::Sum:
                sums.emplace_back(snap.series.size(), &e.family);
                break;
            }
            snap.series.push_back(std::move(sv));
        }

        // Family sums read the values just merged, so a sum equals
        // the total of its family's series in the same snapshot.
        for (const auto &[at, family] : sums) {
            std::int64_t total = 0;
            for (const ScalarValue &sv : snap.series) {
                if (sv.name == *family && !sv.labels.empty())
                    total += sv.value;
            }
            snap.series[at].value = total;
        }
        return snap;
    }

  private:
    Entry &
    internLocked(const std::string &name,
                 const std::vector<Label> &labels, Kind kind,
                 const char *family, bool overflow)
    {
        const Entry::Store store =
            family != nullptr ? Entry::Store::Sum
                : (labels.empty() ? Entry::Store::Slot
                                  : Entry::Store::Cell);
        std::string key = detail::seriesKey(name, labels);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            const Entry &e = it->second;
            if (e.kind != kind || e.store != store) {
                throw std::invalid_argument(
                    "obs series '" + name +
                    "' already registered with a different kind");
            }
            return it->second;
        }
        if (store == Entry::Store::Cell && !overflow &&
            labeled_ >= max_series_) {
            // Cardinality cap: degrade to this (name, kind)'s overflow
            // series rather than aborting — unattributed, but alive,
            // and still counted in the family's sum.
            return internLocked(name, {{"overflow", "1"}}, kind,
                                nullptr, true);
        }

        Entry e;
        e.name = name;
        e.labels = labels;
        e.kind = kind;
        e.store = store;
        if (store == Entry::Store::Slot) {
            if (kind == Kind::Histogram) {
                EDB_ASSERT(next_hist_ < maxHistograms,
                           "obs registry out of histogram slots (%zu); "
                           "raise obs::maxHistograms", maxHistograms);
                e.slot = next_hist_++;
            } else {
                EDB_ASSERT(next_scalar_ < maxScalars,
                           "obs registry out of scalar slots (%zu); "
                           "raise obs::maxScalars", maxScalars);
                e.slot = next_scalar_++;
            }
        } else if (store == Entry::Store::Cell) {
            if (kind == Kind::Histogram)
                e.hist = std::make_unique<AtomicHist>();
            else
                e.value = std::make_unique<std::atomic<std::int64_t>>(0);
            if (!overflow)
                ++labeled_;
        } else {
            e.family = family;
        }
        return entries_.emplace(std::move(key), std::move(e))
            .first->second;
    }

    std::mutex mu_;
    std::uint64_t start_ns_ = 0;
    Shard *fallback_;
    std::vector<Shard *> shards_; ///< every shard ever created
    std::vector<Shard *> free_;   ///< retired shards ready for reuse
    std::map<std::string, Entry> entries_; ///< by seriesKey()
    std::size_t next_scalar_ = 0;
    std::size_t next_hist_ = 0;
    std::size_t labeled_ = 0; ///< labeled cells, overflow excluded
    std::size_t max_series_ = defaultMaxSeries;
};

Registry &
registry()
{
    static Registry *r = new Registry(); // leaked: see file comment
    return *r;
}

/** Per-thread sentinel whose destructor retires the shard. */
struct ShardRetirer
{
    ~ShardRetirer() { registry().retireCurrentThread(); }
};

/** Canonicalize and validate a label set (see TelemetryDomain). */
std::vector<Label>
normalizeLabels(std::vector<Label> labels)
{
    if (labels.size() > maxLabelsPerDomain) {
        throw std::invalid_argument(
            "obs domain has " + std::to_string(labels.size()) +
            " labels; the cap is " +
            std::to_string(maxLabelsPerDomain));
    }
    for (Label &l : labels) {
        if (l.key.empty())
            throw std::invalid_argument("obs label key is empty");
        if (l.value.size() > maxLabelValueBytes)
            l.value.resize(maxLabelValueBytes);
    }
    std::sort(labels.begin(), labels.end(),
              [](const Label &a, const Label &b) {
                  return a.key < b.key;
              });
    for (std::size_t i = 1; i < labels.size(); ++i) {
        if (labels[i - 1].key == labels[i].key) {
            throw std::invalid_argument("obs label key '" +
                                        labels[i].key +
                                        "' appears twice");
        }
    }
    return labels;
}

} // namespace

namespace detail {

std::uint32_t
internSlot(const char *name, Kind kind)
{
    return registry().intern(name, {}, kind).slot;
}

Shard &
fallbackShard()
{
    return registry().fallback();
}

/** The separator cannot appear in a sane name and is harmless if it
 *  does — worst case two exotic names alias one series. */
std::string
seriesKey(const std::string &name, const std::vector<Label> &labels)
{
    std::string key = name;
    for (const Label &l : labels) {
        key += '\x1f';
        key += l.key;
        key += '\x1f';
        key += l.value;
    }
    return key;
}

} // namespace detail

void
AtomicHist::drainInto(AtomicHist &dst) noexcept
{
    const std::uint64_t n = count.exchange(0, std::memory_order_relaxed);
    const std::uint64_t s = sum.exchange(0, std::memory_order_relaxed);
    const std::uint64_t mn =
        min.exchange(~std::uint64_t{0}, std::memory_order_relaxed);
    const std::uint64_t mx = max.exchange(0, std::memory_order_relaxed);
    if (n == 0)
        return;
    for (std::size_t b = 0; b < histBuckets; ++b) {
        dst.buckets[b].fetch_add(
            buckets[b].exchange(0, std::memory_order_relaxed),
            std::memory_order_relaxed);
    }
    dst.count.fetch_add(n, std::memory_order_relaxed);
    dst.sum.fetch_add(s, std::memory_order_relaxed);
    lower(dst.min, mn);
    raise(dst.max, mx);
}

void
AtomicHist::addTo(HistogramValue &hv) const
{
    const std::uint64_t n = count.load(std::memory_order_relaxed);
    if (n == 0)
        return;
    const std::uint64_t mn = min.load(std::memory_order_relaxed);
    const std::uint64_t mx = max.load(std::memory_order_relaxed);
    hv.min = hv.count == 0 ? mn : std::min(hv.min, mn);
    hv.max = std::max(hv.max, mx);
    hv.count += n;
    hv.sum += sum.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < histBuckets; ++b)
        hv.buckets[b] += buckets[b].load(std::memory_order_relaxed);
}

void
prepareCurrentThread()
{
    registry().adoptCurrentThread();
    // Construct the retirer after adopting, so its destructor (which
    // runs in reverse construction order at thread exit) folds the
    // shard back even when later TLS destructors still count.
    thread_local ShardRetirer retirer;
    (void)retirer;
}

TelemetryDomain::TelemetryDomain(std::vector<Label> labels)
    : labels_(normalizeLabels(std::move(labels)))
{
}

TelemetryDomain
TelemetryDomain::with(std::string key, std::string value) const
{
    std::vector<Label> ext = labels_;
    ext.push_back({std::move(key), std::move(value)});
    return TelemetryDomain(std::move(ext));
}

namespace {

/** A domain series' scalar storage: its cell, or for the empty
 *  domain the label-less slot in the fallback shard. */
std::atomic<std::int64_t> *
scalarOf(Entry &e)
{
    return e.value ? e.value.get()
                   : &registry().fallback().scalars[e.slot];
}

} // namespace

Series
TelemetryDomain::counter(const std::string &name) const
{
    return Series(scalarOf(registry().intern(name, labels_, Kind::Counter)));
}

Series
TelemetryDomain::gauge(const std::string &name) const
{
    return Series(scalarOf(registry().intern(name, labels_, Kind::Gauge)));
}

HistSeries
TelemetryDomain::histogram(const std::string &name) const
{
    Entry &e = registry().intern(name, labels_, Kind::Histogram);
    return HistSeries(e.hist ? e.hist.get()
                             : &registry().fallback().hists[e.slot]);
}

FamilySum::FamilySum(const char *name, const char *family, Kind kind)
{
    EDB_ASSERT(kind != Kind::Histogram,
               "obs family sum '%s' must be a counter or gauge", name);
    registry().intern(name, {}, kind, family);
}

std::size_t
seriesCount()
{
    return registry().labeledCount();
}

std::size_t
setMaxSeriesForTest(std::size_t cap)
{
    return registry().setMaxSeries(cap);
}

Snapshot
takeSnapshot()
{
    return registry().takeSnapshot();
}

} // namespace edb::obs

#endif // EDB_OBS_ENABLED
