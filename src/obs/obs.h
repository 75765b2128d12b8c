/**
 * @file
 * `edb::obs` — the process-wide instrument registry (DESIGN.md §10).
 *
 * One registry holds every instrument under one intern namespace of
 * (name, labels) identities, in two storage classes:
 *
 *  - Label-less Counter / Gauge / Histogram instruments live in
 *    thread-local shards of relaxed atomics: the hot-path increment
 *    is one relaxed fetch_add into the calling thread's shard, no
 *    locks, no allocation. These are the instruments compiled into
 *    the library's hot paths.
 *  - Labeled series (a TelemetryDomain's counter/gauge/histogram,
 *    e.g. `served.tenant.runs{tenant="a"}`) are interned at runtime
 *    into shared cells of the same atomics, under a cardinality cap.
 *
 * A FamilySum is a label-less series whose value is, at snapshot
 * time, the sum of every labeled series of one family — a global
 * total with per-label twins is counted once, at one call site.
 * takeSnapshot() merges everything into one Snapshot; the JSON
 * (`edb-metrics-v2`) and Prometheus writers and the Sampler all
 * read that one Snapshot.
 *
 * Signal-safety rules:
 *
 *  - Counter::add / Gauge::add / Histogram::observe / Series::add /
 *    HistSeries::observe are async-signal-safe: when the calling
 *    thread has no shard (it never called prepareCurrentThread()),
 *    the increment lands in a shared fallback shard via the same
 *    lock-free atomics — never an allocation, never a mutex.
 *    Signal-context code (live WMS notification paths) may therefore
 *    bump counters freely.
 *  - Everything else — instrument and series *construction*,
 *    ScopeTimer spans, the trace sink, snapshots — allocates or
 *    locks and must stay out of signal handlers.
 *
 * Compile-time gating: when the build sets EDB_OBS=OFF (no
 * EDB_OBS_ENABLED definition), the EDB_OBS_* macros below expand to
 * nothing, the instrument types do not exist, the labeled-series
 * types collapse to inline no-ops and takeSnapshot() is empty, so
 * instrumented code carries zero cost — not even a load. The
 * snapshot data types and writers exist in both builds, so every
 * export answers valid-but-empty when obs is off.
 */

#ifndef EDB_OBS_OBS_H
#define EDB_OBS_OBS_H

#ifndef EDB_OBS_ENABLED
#define EDB_OBS_ENABLED 0
#endif

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

namespace edb::obs {

// ---- Snapshot data model (every build) -----------------------------

/** One key=value attribution pair. */
struct Label
{
    std::string key;
    std::string value;
};

/** What a series measures (Prometheus exposition types). */
enum class Kind : std::uint8_t { Counter = 0, Gauge = 1, Histogram = 2 };

/** log2 buckets per histogram: bucket 0 holds value 0, bucket b>0
 *  holds values with bit length b (covers the full uint64 range). */
inline constexpr std::size_t histBuckets = 65;

/** One counter or gauge in a Snapshot. */
struct ScalarValue
{
    std::string name;
    std::vector<Label> labels; ///< key-ascending; empty when label-less
    Kind kind = Kind::Counter;
    std::int64_t value = 0;
    /** Per-second rate over a Sampler's ring window; meaningful only
     *  when hasRate (counters with at least two samples). */
    double rate = 0.0;
    bool hasRate = false;
};

/** One merged histogram in a Snapshot. min/max are 0 when count is. */
struct HistogramValue
{
    std::string name;
    std::vector<Label> labels;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::vector<std::uint64_t> buckets; ///< histBuckets entries

    /**
     * Estimate the q-quantile (q in [0, 1]) by linear interpolation
     * inside the log2 bucket holding the target rank, with the
     * bucket's bounds clamped to the observed min/max (so q=0 / q=1
     * return min / max exactly, and a single-valued distribution
     * returns that value for every q). Returns 0 when count is 0.
     */
    double quantile(double q) const;
};

/** A point-in-time merge of every instrument, sorted by
 *  (name, labels) — a label-less series precedes its labeled ones. */
struct Snapshot
{
    /** Wall-clock milliseconds since the Unix epoch at merge time. */
    std::uint64_t wallMs = 0;
    /** Monotonic nanoseconds since the obs registry was created
     *  (effectively process uptime: the registry comes up with the
     *  first instrument, during static init). */
    std::uint64_t uptimeNs = 0;
    /** Process id, so snapshot files can be matched to a daemon. */
    std::int64_t pid = 0;
    /** Tick period of the Sampler that produced this report; 0 for
     *  a plain takeSnapshot(). */
    std::uint64_t intervalMs = 0;
    /** Samples behind the values: the Sampler's ticks so far, 1 for
     *  a plain takeSnapshot(). */
    std::uint64_t samples = 0;

    std::vector<ScalarValue> series;
    std::vector<HistogramValue> histograms;

    /** Value of a label-less counter by name; 0 when absent. */
    std::int64_t counter(const std::string &name) const;
    /** Value of a label-less gauge by name; 0 when absent. */
    std::int64_t gauge(const std::string &name) const;
    /** Label-less histogram by name; null when absent. Lvalue-only:
     *  the pointer aims into this Snapshot, so calling it on a
     *  temporary (`takeSnapshot().histogram(...)`) would dangle. */
    const HistogramValue *histogram(const std::string &name) const &;
    const HistogramValue *histogram(const std::string &name) const && =
        delete;
};

/** Merge every instrument into a Snapshot. Thread-safe; concurrent
 *  increments may or may not be included. Empty under EDB_OBS=OFF. */
#if EDB_OBS_ENABLED
Snapshot takeSnapshot();
#else
inline Snapshot
takeSnapshot()
{
    return {};
}
#endif

/** Escape a string into a JSON literal (without the quotes). */
std::string jsonEscape(const std::string &s);

/** Serialize a Snapshot as JSON, schema `edb-metrics-v2`: a `meta`
 *  block (wall_ms, uptime_ns, pid, interval_ms, samples), a `series`
 *  array (name, labels, kind, value, and rate when sampled) and a
 *  `histograms` array (count/sum/min/max, p50/p95/p99, buckets). */
void writeSnapshotJson(std::ostream &os, const Snapshot &snap);

/** writeSnapshotJson(takeSnapshot()) to a file, atomically (written
 *  to `path + ".tmp"` then renamed, so concurrent readers never see
 *  a torn snapshot); warns and returns false on error. */
bool writeSnapshotJsonFile(const std::string &path);

/**
 * Prometheus text exposition (format version 0.0.4) of one fresh
 * snapshot — what METRICS format 0 serves (content type
 * `text/plain; version=0.0.4`). Names are mangled to the Prometheus
 * grammar with an `edb_` prefix (`served.tenant.runs` ->
 * `edb_served_tenant_runs`); every series joins the family of its
 * mangled name; histograms expose cumulative `_bucket{le="2^b-1"}`
 * series from the log2 buckets plus `_sum` and `_count`. Under
 * EDB_OBS=OFF it is one comment line: empty but valid.
 */
std::string prometheusText();

} // namespace edb::obs

#if EDB_OBS_ENABLED

#include <atomic>
#include <bit>
#include <chrono>

namespace edb::obs {

/** Registry capacity: label-less scalar slots (counters + gauges)
 *  per shard. */
inline constexpr std::size_t maxScalars = 256;
/** Registry capacity: label-less histogram slots per shard. */
inline constexpr std::size_t maxHistograms = 64;
/** Label pairs one domain may carry. */
inline constexpr std::size_t maxLabelsPerDomain = 4;
/** Label values longer than this are truncated (never rejected:
 *  a tenant's chosen name must not be able to fail HELLO). */
inline constexpr std::size_t maxLabelValueBytes = 128;
/** Default cardinality cap on distinct labeled series. */
inline constexpr std::size_t defaultMaxSeries = 4096;

/**
 * The one histogram storage layout, used by shard slots and labeled
 * cells alike. Every member is a lock-free atomic updated with
 * relaxed ordering; observe() is async-signal-safe (a few relaxed
 * RMWs, the min/max CAS loops are lock-free).
 */
struct AtomicHist
{
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    /** Tracked via CAS loops; reset to ~0 / 0 when drained. */
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
    std::atomic<std::uint64_t> buckets[histBuckets]{};

    static constexpr std::size_t
    bucketOf(std::uint64_t v) noexcept
    {
        return (std::size_t)(64 - std::countl_zero(v | 1)) -
               (v == 0 ? 1 : 0);
    }

    void
    observe(std::uint64_t v) noexcept
    {
        buckets[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
        count.fetch_add(1, std::memory_order_relaxed);
        sum.fetch_add(v, std::memory_order_relaxed);
        lower(min, v);
        raise(max, v);
    }

    /** Move every observation into `dst`, leaving this empty. */
    void drainInto(AtomicHist &dst) noexcept;

    /** Add this histogram's observations to `hv` (relaxed reads). */
    void addTo(HistogramValue &hv) const;

    static void
    lower(std::atomic<std::uint64_t> &a, std::uint64_t v) noexcept
    {
        std::uint64_t cur = a.load(std::memory_order_relaxed);
        while (v < cur && !a.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }

    static void
    raise(std::atomic<std::uint64_t> &a, std::uint64_t v) noexcept
    {
        std::uint64_t cur = a.load(std::memory_order_relaxed);
        while (v > cur && !a.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }
};

/** One thread's slice of every label-less instrument; exact totals
 *  come from the snapshot merge. */
struct Shard
{
    std::atomic<std::int64_t> scalars[maxScalars]{};
    AtomicHist hists[maxHistograms]{};
};

/**
 * The calling thread's shard, or null when the thread never called
 * prepareCurrentThread() (then instruments fall back to the shared
 * fallback shard). constinit: access is a raw TLS load, no guard.
 */
extern constinit thread_local Shard *t_shard;

/**
 * Give the calling thread its own shard (idempotent). Worker threads
 * call this once at startup so their increments stay uncontended; the
 * shard is folded back into the registry and recycled when the thread
 * exits. NOT async-signal-safe (may allocate).
 */
void prepareCurrentThread();

/** Monotonic nanoseconds (steady clock), for spans and histograms. */
inline std::uint64_t
monotonicNs() noexcept
{
    return (std::uint64_t)std::chrono::duration_cast<
               std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace detail {
/** Intern a label-less instrument; returns its shard slot. Throws
 *  std::invalid_argument when the name is registered with another
 *  kind (or as a FamilySum); panics on a full registry. */
std::uint32_t internSlot(const char *name, Kind kind);
/** The shared fallback shard for threads without their own. */
Shard &fallbackShard();
/** Canonical identity key of (name, labels), '\x1f'-joined. */
std::string seriesKey(const std::string &name,
                      const std::vector<Label> &labels);
} // namespace detail

/**
 * Monotonically increasing event count. Construction interns the name
 * in the process-wide registry (once; construct at namespace scope or
 * as a function-local static, not per call site execution).
 */
class Counter
{
  public:
    explicit Counter(const char *name)
        : id_(detail::internSlot(name, Kind::Counter)),
          fallback_(&detail::fallbackShard())
    {
    }

    /** Async-signal-safe; one relaxed fetch_add. */
    void
    add(std::uint64_t n) noexcept
    {
        Shard *s = t_shard;
        (s ? s : fallback_)
            ->scalars[id_]
            .fetch_add((std::int64_t)n, std::memory_order_relaxed);
    }

    void inc() noexcept { add(1); }

  private:
    std::uint32_t id_;
    Shard *fallback_;
};

/**
 * A signed level (queue depth, resident bytes). Stored as a
 * sum-of-deltas so shard merging is plain addition; the snapshot
 * value is the net level across all threads.
 */
class Gauge
{
  public:
    explicit Gauge(const char *name)
        : id_(detail::internSlot(name, Kind::Gauge)),
          fallback_(&detail::fallbackShard())
    {
    }

    /** Async-signal-safe; one relaxed fetch_add. */
    void
    add(std::int64_t d) noexcept
    {
        Shard *s = t_shard;
        (s ? s : fallback_)
            ->scalars[id_]
            .fetch_add(d, std::memory_order_relaxed);
    }

    void sub(std::int64_t d) noexcept { add(-d); }

  private:
    std::uint32_t id_;
    Shard *fallback_;
};

/** log2-bucketed value distribution with exact count/sum/min/max. */
class Histogram
{
  public:
    explicit Histogram(const char *name)
        : id_(detail::internSlot(name, Kind::Histogram)),
          fallback_(&detail::fallbackShard())
    {
    }

    /** Async-signal-safe (AtomicHist::observe). */
    void
    observe(std::uint64_t v) noexcept
    {
        Shard *s = t_shard;
        (s ? s : fallback_)->hists[id_].observe(v);
    }

  private:
    std::uint32_t id_;
    Shard *fallback_;
};

/**
 * Handle to a counter or gauge series of a TelemetryDomain. Cheap to
 * copy; a default-constructed handle is a no-op sink.
 */
class Series
{
  public:
    Series() = default;

    /** Async-signal-safe; one relaxed fetch_add. */
    void
    add(std::int64_t d) noexcept
    {
        if (value_ != nullptr)
            value_->fetch_add(d, std::memory_order_relaxed);
    }

    void inc() noexcept { add(1); }
    void sub(std::int64_t d) noexcept { add(-d); }

  private:
    friend class TelemetryDomain;
    explicit Series(std::atomic<std::int64_t> *value) : value_(value) {}
    std::atomic<std::int64_t> *value_ = nullptr;
};

/** Handle to a histogram series of a TelemetryDomain. */
class HistSeries
{
  public:
    HistSeries() = default;

    /** Async-signal-safe (AtomicHist::observe). */
    void
    observe(std::uint64_t v) noexcept
    {
        if (hist_ != nullptr)
            hist_->observe(v);
    }

  private:
    friend class TelemetryDomain;
    explicit HistSeries(AtomicHist *hist) : hist_(hist) {}
    AtomicHist *hist_ = nullptr;
};

/**
 * A set of label pairs scoping instrument names. Construction
 * validates the labels once; the instrument factories then intern
 * (name, labels) series in the registry. Re-interning an existing
 * identity returns the same storage, so a tenant reconnecting under
 * the same name resumes its series. The empty domain's series are
 * the label-less instruments of the same name.
 *
 * Validation throws std::invalid_argument on more than
 * maxLabelsPerDomain pairs, an empty key, or a duplicate key; label
 * *values* are truncated to maxLabelValueBytes rather than rejected.
 * Interning throws std::invalid_argument when the identity exists
 * with another kind. Past the cardinality cap a new labeled identity
 * lands in the overflow series of its (name, kind), the identity
 * (name, {overflow="1"}): attribution degrades, kinds and family
 * sums stay exact, and the process never aborts.
 */
class TelemetryDomain
{
  public:
    /** The empty domain: series carry no labels. */
    TelemetryDomain() = default;

    TelemetryDomain(std::initializer_list<Label> labels)
        : TelemetryDomain(std::vector<Label>(labels))
    {
    }

    explicit TelemetryDomain(std::vector<Label> labels);

    /** A copy of this domain extended with one more pair (same
     *  validation: a duplicate key or a fifth pair throws). */
    TelemetryDomain with(std::string key, std::string value) const;

    const std::vector<Label> &labels() const { return labels_; }

    Series counter(const std::string &name) const;
    Series gauge(const std::string &name) const;
    HistSeries histogram(const std::string &name) const;

  private:
    std::vector<Label> labels_; ///< key-ascending, canonical
};

/**
 * A label-less counter or gauge whose snapshot value is the sum of
 * every labeled series named `family` (overflow series included), so
 * a process-global total and its per-label twins are one update and
 * agree by construction. Construct at namespace scope, like the
 * instruments.
 */
class FamilySum
{
  public:
    FamilySum(const char *name, const char *family, Kind kind);
};

/** Distinct labeled series interned (overflow series excluded). */
std::size_t seriesCount();

/** Override the cardinality cap; returns the previous value. Exists
 *  for the cap-enforcement tests — production keeps
 *  defaultMaxSeries. */
std::size_t setMaxSeriesForTest(std::size_t cap);

// ---- Chrome trace-event sink (trace_sink.cc) -----------------------

/** Whether span B/E events are being captured (one relaxed load). */
bool traceEnabled() noexcept;

/**
 * Start capturing ScopeTimer spans into per-thread buffers for a
 * later flushTrace() to `path`. Not signal-safe.
 */
void enableTrace(std::string path);

/**
 * Write every buffered event as a chrome://tracing-loadable
 * {"traceEvents": [...]} JSON file. Idempotent-safe: each call
 * rewrites the full buffer. Returns false (after a warn) on I/O
 * failure or when tracing was never enabled.
 */
bool flushTrace();

/** True once flushTrace() succeeded (the atexit hook then skips). */
bool traceFlushed() noexcept;

/** Append one event; `ph` is the Chrome phase ('B' or 'E'). */
void emitTraceEvent(const char *name, char ph, std::uint64_t ns);

/** Append one event carrying a numeric argument (serialized as
 *  `"args": {"id": arg}`), e.g. a served request id, so spans can be
 *  correlated with log lines in chrome://tracing. */
void emitTraceEvent(const char *name, char ph, std::uint64_t ns,
                    std::uint64_t arg);

/**
 * RAII span: emits B/E trace events while tracing is enabled and
 * (optionally) observes its duration in nanoseconds into a
 * Histogram. Costs two relaxed loads when idle. Not signal-safe.
 */
class ScopeTimer
{
  public:
    explicit ScopeTimer(const char *name,
                        Histogram *hist = nullptr) noexcept
        : name_(name), hist_(hist), traced_(traceEnabled())
    {
        if (hist_ != nullptr || traced_)
            start_ns_ = monotonicNs();
        if (traced_)
            emitTraceEvent(name_, 'B', start_ns_);
    }

    ~ScopeTimer()
    {
        if (hist_ == nullptr && !traced_)
            return;
        const std::uint64_t end_ns = monotonicNs();
        if (traced_)
            emitTraceEvent(name_, 'E', end_ns);
        if (hist_ != nullptr)
            hist_->observe(end_ns - start_ns_);
    }

    ScopeTimer(const ScopeTimer &) = delete;
    ScopeTimer &operator=(const ScopeTimer &) = delete;

  private:
    const char *name_;
    Histogram *hist_;
    std::uint64_t start_ns_ = 0;
    bool traced_;
};

} // namespace edb::obs

// ---- Instrumentation macros (ON build) -----------------------------

/** Splice code into the build only when obs is compiled in. */
#define EDB_OBS_ONLY(...) __VA_ARGS__

#define EDB_OBS_INC(instr) (instr).inc()
#define EDB_OBS_ADD(instr, n) (instr).add(n)
#define EDB_OBS_GAUGE_ADD(instr, d) (instr).add(d)
#define EDB_OBS_GAUGE_SUB(instr, d) (instr).sub(d)
#define EDB_OBS_OBSERVE(instr, v) (instr).observe(v)

#define EDB_OBS_CONCAT_IMPL(a, b) a##b
#define EDB_OBS_CONCAT(a, b) EDB_OBS_CONCAT_IMPL(a, b)
/** RAII span scoped to the enclosing block. */
#define EDB_OBS_SPAN(name)                                               \
    ::edb::obs::ScopeTimer EDB_OBS_CONCAT(edb_obs_span_,                 \
                                          __LINE__)(name)
/** Span that also feeds its duration (ns) into a Histogram. */
#define EDB_OBS_TIMED_SPAN(name, hist)                                   \
    ::edb::obs::ScopeTimer EDB_OBS_CONCAT(edb_obs_span_,                 \
                                          __LINE__)(name, &(hist))

#else // !EDB_OBS_ENABLED — instruments compile away entirely.

namespace edb::obs {

class Series
{
  public:
    void add(std::int64_t) noexcept {}
    void inc() noexcept {}
    void sub(std::int64_t) noexcept {}
};

class HistSeries
{
  public:
    void observe(std::uint64_t) noexcept {}
};

class TelemetryDomain
{
  public:
    TelemetryDomain() = default;
    TelemetryDomain(std::initializer_list<Label>) {}
    explicit TelemetryDomain(std::vector<Label>) {}

    TelemetryDomain
    with(std::string, std::string) const
    {
        return {};
    }

    const std::vector<Label> &
    labels() const
    {
        static const std::vector<Label> none;
        return none;
    }

    Series counter(const std::string &) const { return {}; }
    Series gauge(const std::string &) const { return {}; }
    HistSeries histogram(const std::string &) const { return {}; }
};

} // namespace edb::obs

#define EDB_OBS_ONLY(...)

#define EDB_OBS_INC(instr) ((void)0)
#define EDB_OBS_ADD(instr, n) ((void)0)
#define EDB_OBS_GAUGE_ADD(instr, d) ((void)0)
#define EDB_OBS_GAUGE_SUB(instr, d) ((void)0)
#define EDB_OBS_OBSERVE(instr, v) ((void)0)
#define EDB_OBS_SPAN(name) ((void)0)
#define EDB_OBS_TIMED_SPAN(name, hist) ((void)0)

#endif // EDB_OBS_ENABLED

#endif // EDB_OBS_OBS_H
