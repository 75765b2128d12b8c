/**
 * @file
 * Statistics, spans, the obs sink reader, set-up and peak-RSS probes.
 */

#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <unordered_map>

#include "trace/index_format.h"
#include "trace/trace_io.h"
#include "workload/workload.h"

namespace pb {

namespace fs = std::filesystem;
using namespace edb;

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * (double)(v.size() - 1);
    const std::size_t lo = (std::size_t)pos;
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - (double)lo);
}

double
pooledQuantile(const std::vector<Sample> &samples, double q)
{
    std::vector<double> ms;
    for (const Sample &s : samples)
        ms.push_back(s.second);
    return quantile(std::move(ms), q);
}

void
Tally::check(bool ok, const std::string &what)
{
    attempted_.fetch_add(1);
    if (ok)
        return;
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lk(mu_);
    if (reported_ < 10) {
        ++reported_;
        std::cerr << "perfbench: check failed: " << what << "\n";
    }
}

namespace {

struct Frame
{
    std::uint32_t id;
    std::uint64_t op;
};
thread_local std::vector<Frame> t_stack;
std::atomic<std::uint32_t> g_next_tid{1};
thread_local std::uint32_t t_tid = 0;

std::uint32_t
threadId()
{
    if (t_tid == 0)
        t_tid = g_next_tid.fetch_add(1);
    return t_tid;
}

} // namespace

SpanLog::Scope::Scope(SpanLog &log, std::string name)
    : log_(log), name_(std::move(name))
{
    if (!log_.enabled())
        return;
    id_ = log_.next_id_.fetch_add(1);
    if (t_stack.empty()) {
        op_ = log_.next_op_.fetch_add(1);
    } else {
        parent_ = t_stack.back().id;
        op_ = t_stack.back().op;
    }
    t_stack.push_back({id_, op_});
    start_ = nowNs();
}

SpanLog::Scope::~Scope()
{
    if (id_ == 0)
        return;
    const std::uint64_t end = nowNs();
    t_stack.pop_back();
    std::lock_guard<std::mutex> lk(log_.mu_);
    log_.spans_.push_back(
        {std::move(name_), start_, end, id_, parent_, op_, threadId()});
}

std::vector<SpanLog::Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
}

bool
SpanLog::writeChrome(const std::string &path) const
{
    std::vector<Span> all = spans();
    std::ofstream f(path);
    if (!f)
        return false;
    std::uint64_t t0 = ~0ull;
    for (const Span &s : all)
        t0 = std::min(t0, s.start);
    f << "{\"traceEvents\": [";
    char buf[160];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::snprintf(buf, sizeof buf,
                      "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                      "\"pid\": 2, \"tid\": %u",
                      (double)(s.start - t0) / 1e3,
                      (double)(s.end - s.start) / 1e3, s.tid);
        f << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
          << "\", \"cat\": \"perfbench\", " << buf
          << ", \"args\": {\"op\": " << s.op << ", \"id\": " << s.id
          << ", \"parent\": " << s.parent << "}}";
    }
    f << "\n]}\n";
    return (bool)f;
}

std::vector<SinkSpan>
readSinkSpans(const std::string &path, std::uint64_t t0)
{
    std::vector<SinkSpan> out;
    std::ifstream f(path);
    std::unordered_map<std::uint32_t, std::vector<SinkSpan>> open;
    std::string line;
    while (std::getline(f, line)) {
        const std::size_t n = line.find("\"name\": \"");
        const std::size_t ph = line.find("\"ph\": \"");
        const std::size_t ts = line.find("\"ts\": ");
        const std::size_t tid = line.find("\"tid\": ");
        if (n == std::string::npos || ph == std::string::npos ||
            ts == std::string::npos || tid == std::string::npos) {
            continue;
        }
        const std::size_t nEnd = line.find('"', n + 9);
        const std::uint64_t at =
            t0 + (std::uint64_t)(std::strtod(line.c_str() + ts + 6,
                                             nullptr) *
                                     1e3 +
                                 0.5);
        const auto t = (std::uint32_t)std::strtoul(
            line.c_str() + tid + 7, nullptr, 10);
        auto &stack = open[t];
        if (line[ph + 7] == 'B') {
            stack.push_back({line.substr(n + 9, nEnd - n - 9), at, 0, t});
        } else if (line[ph + 7] == 'E' && !stack.empty()) {
            SinkSpan s = std::move(stack.back());
            stack.pop_back();
            s.end = std::max(at, s.start);
            out.push_back(std::move(s));
        }
    }
    return out;
}

std::uint64_t
unionNs(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv)
{
    std::sort(iv.begin(), iv.end());
    std::uint64_t total = 0;
    std::uint64_t curB = 0;
    std::uint64_t curE = 0;
    bool have = false;
    for (const auto &[b, e] : iv) {
        if (e <= b)
            continue;
        if (!have || b > curE) {
            if (have)
                total += curE - curB;
            curB = b;
            curE = e;
            have = true;
        } else {
            curE = std::max(curE, e);
        }
    }
    if (have)
        total += curE - curB;
    return total;
}

double
sinkCoverage(const std::vector<SpanLog::Span> &spans,
             const std::vector<SinkSpan> &sink,
             const std::string &rootPrefix)
{
    // Disjoint, sorted root intervals: the wall time being explained.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> roots;
    for (const SpanLog::Span &s : spans) {
        if (s.parent == 0 && s.name.rfind(rootPrefix, 0) == 0)
            roots.push_back({s.start, s.end});
    }
    std::sort(roots.begin(), roots.end());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> merged;
    for (const auto &r : roots) {
        if (!merged.empty() && r.first <= merged.back().second)
            merged.back().second = std::max(merged.back().second, r.second);
        else
            merged.push_back(r);
    }
    std::uint64_t wall = 0;
    for (const auto &m : merged)
        wall += m.second - m.first;
    if (wall == 0)
        return 0;

    // Leaf sink spans: nothing else on their thread nests inside.
    std::vector<const SinkSpan *> sorted;
    for (const SinkSpan &s : sink)
        sorted.push_back(&s);
    std::sort(sorted.begin(), sorted.end(),
              [](const SinkSpan *a, const SinkSpan *b) {
                  return a->tid != b->tid ? a->tid < b->tid
                                          : a->start < b->start;
              });
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pieces;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const SinkSpan &s = *sorted[i];
        if (i + 1 < sorted.size() && sorted[i + 1]->tid == s.tid &&
            sorted[i + 1]->start < s.end) {
            continue; // has a child
        }
        auto it = std::upper_bound(
            merged.begin(), merged.end(),
            std::make_pair(s.start, ~std::uint64_t{0}));
        if (it != merged.begin())
            --it;
        for (; it != merged.end() && it->first < s.end; ++it) {
            const std::uint64_t b = std::max(it->first, s.start);
            const std::uint64_t e = std::min(it->second, s.end);
            if (b < e)
                pieces.push_back({b, e});
        }
    }
    return (double)unionNs(std::move(pieces)) / (double)wall;
}

SetupTimes
setUp(Env &env)
{
    SetupTimes t;
    const std::uint64_t begin = nowNs();
    env.traces.clear();
    for (const std::string &program : env.opt.programs) {
        TraceFile tf;
        tf.name = program;
        tf.path = env.opt.workDir + "/" + program + ".trc";
        tf.recorded = true;
        const std::string sidecar = trace::traceIndexPathFor(tf.path);
        fs::remove(tf.path);
        fs::remove(sidecar);

        std::uint64_t t0 = nowNs();
        auto w = workload::makeWorkload(program);
        trace::Trace trace = workload::runTraced(*w);
        std::uint64_t t1 = nowNs();
        trace::saveTrace(trace, tf.path);
        std::uint64_t t2 = nowNs();
        {
            const trace::MappedTrace mapped(tf.path);
            trace::TraceIndex idx = trace::buildTraceIndex(mapped);
            trace::saveTraceIndex(idx, sidecar);
        }
        std::uint64_t t3 = nowNs();
        t.recordNs += t1 - t0;
        t.encodeNs += t2 - t1;
        t.indexNs += t3 - t2;
        tf.events = trace.events.size();
        tf.trcBytes = fs::file_size(tf.path);
        tf.idxBytes = fs::file_size(sidecar);
        env.traces.push_back(std::move(tf));
    }
    for (const std::string &src : env.opt.extraTraces) {
        TraceFile tf;
        tf.name = fs::path(src).stem().string();
        tf.path = env.opt.workDir + "/" + fs::path(src).filename().string();
        fs::copy_file(src, tf.path, fs::copy_options::overwrite_existing);
        const std::string sidecar = trace::traceIndexPathFor(tf.path);
        fs::remove(sidecar);
        std::uint64_t t0 = nowNs();
        {
            const trace::MappedTrace mapped(tf.path);
            trace::TraceIndex idx = trace::buildTraceIndex(mapped);
            trace::saveTraceIndex(idx, sidecar);
            tf.events = mapped.eventCount();
        }
        t.indexNs += nowNs() - t0;
        tf.trcBytes = fs::file_size(tf.path);
        tf.idxBytes = fs::file_size(sidecar);
        env.traces.push_back(std::move(tf));
    }
    t.totalNs = nowNs() - begin;
    return t;
}

bool
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
    f.close();
    return !f.fail();
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

} // namespace pb
