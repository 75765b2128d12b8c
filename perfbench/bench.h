/**
 * @file
 * Shared pieces of the layered system benchmark: options, the seeded
 * generator, latency statistics, the benchmark-side span recorder,
 * the program's obs trace-sink reader, set-up (record -> v2 encode ->
 * .edbi build) and the result the run prints.
 *
 * The benchmark drives the library only through its public headers:
 * the workloads call edb::cli, trace, session, sim, report, query and
 * served exactly as a user of those modules would.
 */

#ifndef EDB_PERFBENCH_BENCH_H
#define EDB_PERFBENCH_BENCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

/** Monotonic nanoseconds (the clock obs::monotonicNs uses too). */
inline std::uint64_t
nowNs()
{
    return (std::uint64_t)std::chrono::duration_cast<
               std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
msOf(std::uint64_t ns)
{
    return (double)ns / 1e6;
}

/** splitmix64: small, seedable, identical on every platform. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, n); n > 0. */
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    /** Uniform in [lo, hi]. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

  private:
    std::uint64_t s_;
};

/** Linear-interpolated quantile of unsorted samples (0 when empty). */
double quantile(std::vector<double> v, double q);

/** One op's latency (ms) and the index of the trace it ran on. */
using Sample = std::pair<std::size_t, double>;

/** Quantile q of the latencies, the traces pooled. */
double pooledQuantile(const std::vector<Sample> &samples, double q);

/** Run-wide options, parsed from the command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for the recorded traces and the socket. */
    std::string workDir;
    /** Where the span files and the run report are written. */
    std::string outDir;
    /** Programs recorded at set-up. */
    std::vector<std::string> programs{"gcc", "ctex", "spice", "qcd",
                                      "bps"};
    /** Extra existing v2 traces (the self-test's pinned corpus). */
    std::vector<std::string> extraTraces;
    /** Corrupt every expected result (the self-test's oracle check). */
    bool injectFault = false;
    /** Worker/connection ceiling: the host's thread count. */
    unsigned nproc = 1;
};

/** One trace the workloads run against. */
struct TraceFile
{
    std::string name;
    std::string path;
    bool recorded = false; ///< from set-up (vs. a pinned artifact)
    std::uint64_t events = 0;
    std::uint64_t trcBytes = 0;
    std::uint64_t idxBytes = 0;
};

/** A metric as printed: value plus unit. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** Attempted/failed ops; every oracle check is one attempt. */
class Tally
{
  public:
    /** Record one checked op; `what` describes a failure. */
    void check(bool ok, const std::string &what);
    std::uint64_t attempted() const { return attempted_.load(); }
    std::uint64_t failed() const { return failed_.load(); }

  private:
    std::atomic<std::uint64_t> attempted_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::mutex mu_;
    int reported_ = 0;
};

/**
 * Benchmark-side spans: name, start, end, parent and the op id shared
 * by every span of one op. Kept in memory, written as Chrome trace
 * events at the end of the run. Recording is off unless enabled, so
 * the untraced passes pay nothing but a branch.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t start = 0;
        std::uint64_t end = 0;
        std::uint32_t id = 0;
        std::uint32_t parent = 0; ///< 0: a root (an op)
        std::uint64_t op = 0;
        std::uint32_t tid = 0;
    };

    /** RAII span; nested scopes on one thread become children. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        /** Span id, 0 when recording is off. */
        std::uint32_t id() const { return id_; }

      private:
        SpanLog &log_;
        std::string name_;
        std::uint64_t start_ = 0;
        std::uint32_t id_ = 0;
        std::uint32_t parent_ = 0;
        std::uint64_t op_ = 0;
    };

    void enable(bool on) { on_.store(on); }
    bool enabled() const { return on_.load(std::memory_order_relaxed); }
    /** Copy of every recorded span. */
    std::vector<Span> spans() const;
    /** Write {"traceEvents": [...]} ("X" events, args op/id/parent). */
    bool writeChrome(const std::string &path) const;

  private:
    std::atomic<bool> on_{false};
    std::atomic<std::uint32_t> next_id_{1};
    std::atomic<std::uint64_t> next_op_{1};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** One span read back from the program's obs trace sink. */
struct SinkSpan
{
    std::string name;
    std::uint64_t start = 0; ///< same clock as nowNs()
    std::uint64_t end = 0;
    std::uint32_t tid = 0;
};

/** Parse a Chrome trace file the obs sink wrote; `t0` is nowNs() taken
 *  just before obs::enableTrace. Unbalanced B/E pairs are dropped. */
std::vector<SinkSpan> readSinkSpans(const std::string &path,
                                    std::uint64_t t0);

/** Total length of the union of [start, end) intervals. */
std::uint64_t unionNs(std::vector<std::pair<std::uint64_t,
                                            std::uint64_t>> iv);

/** Everything a workload reads and reports into. */
struct Env
{
    Options opt;
    std::vector<TraceFile> traces;
    Tally tally;
    SpanLog spans;
    std::map<std::string, Metric> metrics;
    /** Free-form lines for the run report (sample counts, seed...). */
    std::vector<std::string> notes;

    void
    put(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }
};

/** Record, encode and index every program once; returns per-stage
 *  wall ns {record, encode, index}. */
struct SetupTimes
{
    std::uint64_t recordNs = 0;
    std::uint64_t encodeNs = 0;
    std::uint64_t indexNs = 0;
    std::uint64_t totalNs = 0;
};
SetupTimes setUp(Env &env);

/** Reset the kernel's peak-RSS mark (false when unsupported). */
bool resetPeakRss();
/** Peak RSS in MiB since the last reset (VmHWM). */
double peakRssMb();

/**
 * One measured pipeline. `timed` runs the closed loop for
 * end-to-end metrics; `fixed` runs `ops` ops (from the same seeded
 * generator each time) with or without spans, returning the summed
 * op wall time, and `layers` turns a traced `fixed` into per-layer
 * metrics.
 */
class Pipeline
{
  public:
    virtual ~Pipeline() = default;
    Pipeline() = default;
    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    /** Untimed: oracles, pools, warm-up. */
    virtual void prepare() = 0;
    /** The end-to-end closed loop for `seconds`. */
    virtual void timed(double seconds) = 0;
    /** Ops to run in `seconds` of the untraced fixed pass. */
    virtual std::uint64_t sizeFor(double seconds) = 0;
    /** Run the fixed op list; returns summed op wall ns. */
    virtual std::uint64_t fixed(std::uint64_t ops, bool traced) = 0;
    /** Per-layer metrics from the traced fixed pass. */
    virtual void layers(const std::vector<SinkSpan> &sink,
                        std::uint64_t from, std::uint64_t to) = 0;
};

std::unique_ptr<Pipeline> makeStudy(Env &env);
std::unique_ptr<Pipeline> makeQuery(Env &env);
std::unique_ptr<Pipeline> makeServed(Env &env);

/** Share of the op roots' wall time (the union of root intervals)
 *  covered by the union of the program's own leaf sink spans, over
 *  all threads. */
double sinkCoverage(const std::vector<SpanLog::Span> &spans,
                    const std::vector<SinkSpan> &sink,
                    const std::string &rootPrefix);

} // namespace pb

#endif // EDB_PERFBENCH_BENCH_H
