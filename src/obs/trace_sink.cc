/**
 * @file
 * Chrome trace-event sink for obs::ScopeTimer spans.
 *
 * Each thread appends (name, phase, timestamp) records to its own
 * buffer under that buffer's private mutex — uncontended in steady
 * state, so an enabled span costs two clock reads and two short
 * critical sections. flushTrace() serializes every buffer as a
 * {"traceEvents": [...]} JSON file that chrome://tracing and Perfetto
 * load directly. Buffers are owned by a leaked sink singleton, so a
 * thread may exit while its events await the flush.
 *
 * NOT async-signal-safe (mutexes + allocation): spans must stay out
 * of signal handlers (DESIGN.md §10 signal-safety rules).
 */

#include "obs/obs.h"

#if EDB_OBS_ENABLED

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "util/logging.h"

namespace edb::obs {

namespace {

/** Hard cap per thread (~48MB worst case across 16 threads): a
 *  runaway span loop degrades to dropped events, not OOM. */
constexpr std::size_t maxEventsPerThread = std::size_t{1} << 21;

struct TraceRec
{
    const char *name; ///< static string owned by the call site
    std::uint64_t ns;
    std::uint64_t arg = 0; ///< numeric payload (request id) when set
    char ph;
    bool hasArg = false;
};

struct TraceBuf
{
    std::mutex mu;
    std::vector<TraceRec> recs;
    std::uint32_t tid = 0;
    std::uint64_t dropped = 0;
};

struct SinkState
{
    std::mutex mu;
    std::string path;
    std::vector<std::unique_ptr<TraceBuf>> bufs;
    std::uint64_t t0_ns = 0;
    bool flushed = false;
};

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_flushed{false};

SinkState &
sink()
{
    static SinkState *s = new SinkState(); // leaked: threads outlive main
    return *s;
}

constinit thread_local TraceBuf *t_buf = nullptr;

} // namespace

bool
traceEnabled() noexcept
{
    return g_enabled.load(std::memory_order_relaxed);
}

bool
traceFlushed() noexcept
{
    return g_flushed.load(std::memory_order_relaxed);
}

void
enableTrace(std::string path)
{
    SinkState &s = sink();
    std::lock_guard<std::mutex> lk(s.mu);
    s.path = std::move(path);
    s.t0_ns = monotonicNs();
    s.flushed = false;
    g_flushed.store(false, std::memory_order_relaxed);
    g_enabled.store(true, std::memory_order_relaxed);
}

namespace {

void
emitRec(const TraceRec &rec)
{
    TraceBuf *b = t_buf;
    if (b == nullptr) {
        auto fresh = std::make_unique<TraceBuf>();
        b = fresh.get();
        SinkState &s = sink();
        std::lock_guard<std::mutex> lk(s.mu);
        b->tid = (std::uint32_t)s.bufs.size() + 1;
        s.bufs.push_back(std::move(fresh));
        t_buf = b;
    }
    std::lock_guard<std::mutex> lk(b->mu);
    if (b->recs.size() >= maxEventsPerThread) {
        ++b->dropped;
        return;
    }
    b->recs.push_back(rec);
}

} // namespace

void
emitTraceEvent(const char *name, char ph, std::uint64_t ns)
{
    emitRec({name, ns, 0, ph, false});
}

void
emitTraceEvent(const char *name, char ph, std::uint64_t ns,
               std::uint64_t arg)
{
    emitRec({name, ns, arg, ph, true});
}

bool
flushTrace()
{
    SinkState &s = sink();
    std::lock_guard<std::mutex> lk(s.mu);
    if (!g_enabled.load(std::memory_order_relaxed) || s.path.empty()) {
        warn("obs: flushTrace() without enableTrace(); nothing written");
        return false;
    }

    std::FILE *f = std::fopen(s.path.c_str(), "w");
    if (f == nullptr) {
        warn("obs: cannot open '%s' for trace events", s.path.c_str());
        return false;
    }
    std::fputs("{\"traceEvents\": [", f);
    bool first = true;
    std::uint64_t dropped = 0;
    for (const auto &buf : s.bufs) {
        std::lock_guard<std::mutex> bl(buf->mu);
        dropped += buf->dropped;
        for (const TraceRec &r : buf->recs) {
            // Timestamps are microseconds since enableTrace(). Spans
            // recorded before then (or after a clock hiccup) clamp
            // to 0 rather than going negative.
            const double ts =
                r.ns > s.t0_ns
                    ? (double)(r.ns - s.t0_ns) / 1000.0
                    : 0.0;
            char args[48] = "";
            if (r.hasArg) {
                std::snprintf(args, sizeof args,
                              ", \"args\": {\"id\": %llu}",
                              (unsigned long long)r.arg);
            }
            std::fprintf(f,
                         "%s\n{\"name\": \"%s\", \"cat\": \"edb\", "
                         "\"ph\": \"%c\", \"ts\": %.3f, \"pid\": 1, "
                         "\"tid\": %u%s}",
                         first ? "" : ",", jsonEscape(r.name).c_str(),
                         r.ph, ts, buf->tid, args);
            first = false;
        }
    }
    std::fputs("\n]}\n", f);
    const bool ok = std::fclose(f) == 0;
    if (!ok)
        warn("obs: I/O error writing '%s'", s.path.c_str());
    if (dropped > 0) {
        warn("obs: trace sink dropped %llu events (per-thread cap)",
             (unsigned long long)dropped);
    }
    s.flushed = ok;
    g_flushed.store(ok, std::memory_order_relaxed);
    return ok;
}

} // namespace edb::obs

#endif // EDB_OBS_ENABLED
