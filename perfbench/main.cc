/**
 * @file
 * edb_perfbench: the layered system benchmark.
 *
 *   edb_perfbench --workload study|query|served --seed N --seconds S
 *                 --trace 0|1 --work DIR --out DIR
 *                 [--programs a,b,...] [--corpus f1,f2,...]
 *                 [--inject-fault]
 *
 * Every run first sets up from scratch: it records the programs,
 * writes them as v2 traces and builds their .edbi sidecars, five
 * times, reporting the median as setup_s.
 *
 * --trace 0 runs the named workload's closed loop for S seconds and
 * prints the end-to-end metrics. --trace 1 runs every pipeline three
 * times over one fixed, seeded op list: an untraced warm-up, an
 * untraced pass and a traced one (benchmark-side spans plus the
 * program's obs trace sink), and prints the per-layer split. The last stdout line is the result
 * object: {"correct", "attempted", "failed", "metrics"}.
 */

#include "bench.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/obs.h"

namespace {

using namespace pb;
namespace fs = std::filesystem;

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--inject-fault") {
            opt.injectFault = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::cerr << "perfbench: " << a << " needs a value\n";
            return false;
        }
        const std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::stoull(v);
        else if (a == "--seconds")
            opt.seconds = std::stod(v);
        else if (a == "--trace")
            opt.trace = v == "1";
        else if (a == "--work")
            opt.workDir = v;
        else if (a == "--out")
            opt.outDir = v;
        else if (a == "--programs")
            opt.programs = splitList(v);
        else if (a == "--corpus")
            opt.extraTraces = splitList(v);
        else {
            std::cerr << "perfbench: unknown option " << a << "\n";
            return false;
        }
    }
    if (opt.workload != "study" && opt.workload != "query" &&
        opt.workload != "served") {
        std::cerr << "perfbench: --workload must be study, query or "
                     "served\n";
        return false;
    }
    if (opt.workDir.empty() || opt.outDir.empty() || opt.seconds <= 0) {
        std::cerr << "perfbench: --work, --out and --seconds > 0 are "
                     "required\n";
        return false;
    }
    return true;
}

std::unique_ptr<Pipeline>
makePipeline(const std::string &name, Env &env)
{
    if (name == "study")
        return makeStudy(env);
    if (name == "query")
        return makeQuery(env);
    return makeServed(env);
}

/** %.17g keeps every digit the measurement has. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Set-ups timed per run; setup_s is their median. */
constexpr int setupReps = 5;

void
setUpAll(Env &env)
{
    std::vector<double> total, rec, enc, idx;
    for (int i = 0; i < setupReps; ++i) {
        const SetupTimes t = setUp(env);
        total.push_back((double)t.totalNs / 1e9);
        rec.push_back(msOf(t.recordNs));
        enc.push_back(msOf(t.encodeNs));
        idx.push_back(msOf(t.indexNs));
    }
    std::uint64_t bytes = 0;
    std::uint64_t events = 0;
    for (const TraceFile &t : env.traces) {
        bytes += t.trcBytes + t.idxBytes;
        events += t.events;
    }
    if (!env.opt.trace) {
        env.put("setup_s", quantile(total, 0.5), "s");
        env.put("trace_bytes_per_event",
                events ? (double)bytes / (double)events : 0, "B/event");
    } else {
        env.put("workload.record_ms", quantile(rec, 0.5), "ms");
        env.put("trace.encode_ms", quantile(enc, 0.5), "ms");
        env.put("trace.index_build_ms", quantile(idx, 0.5), "ms");
    }
}

/**
 * The traced run: every pipeline, same ops, untraced then traced.
 * The program's trace sink cannot be switched off once on, so the
 * traced passes come last; an untraced warm-up pass first keeps the
 * first run of the layered call paths out of the overhead ratio.
 */
void
runTraced(Env &env)
{
    const char *names[] = {"study", "query", "served"};
    std::vector<std::unique_ptr<Pipeline>> pipes;
    for (const char *n : names)
        pipes.push_back(makePipeline(n, env));
    for (auto &p : pipes)
        p->prepare();

    const double budget = env.opt.seconds / 6.0;
    std::vector<std::uint64_t> ops, untraced;
    for (auto &p : pipes) {
        ops.push_back(p->sizeFor(budget));
        p->fixed(ops.back(), false);
        untraced.push_back(p->fixed(ops.back(), false));
    }

    const std::string sinkPath = env.opt.outDir + "/program-spans-" +
                                 env.opt.workload + "-" +
                                 std::to_string(env.opt.seed) + ".json";
    const std::uint64_t t0 = nowNs();
    edb::obs::enableTrace(sinkPath);
    env.spans.enable(true);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> windows;
    std::vector<std::uint64_t> traced;
    for (std::size_t i = 0; i < pipes.size(); ++i) {
        const std::uint64_t from = nowNs();
        traced.push_back(pipes[i]->fixed(ops[i], true));
        windows.push_back({from, nowNs()});
    }
    env.spans.enable(false);
    edb::obs::flushTrace();
    const std::vector<SinkSpan> sink = readSinkSpans(sinkPath, t0);
    const std::vector<SpanLog::Span> spans = env.spans.spans();

    const char *roots[] = {"cli.analyze.", "query.op.", "served.op."};
    for (std::size_t i = 0; i < pipes.size(); ++i) {
        pipes[i]->layers(sink, windows[i].first, windows[i].second);
        const std::string n = names[i];
        env.put("obs.trace_overhead_ratio." + n,
                untraced[i] ? (double)traced[i] / (double)untraced[i] : 0,
                "ratio");
        env.put("obs.span_coverage." + n,
                sinkCoverage(spans, sink, roots[i]), "ratio");
        env.notes.push_back(n + ": fixed ops " + std::to_string(ops[i]) +
                            ", untraced " +
                            number(msOf(untraced[i])) + " ms, traced " +
                            number(msOf(traced[i])) + " ms");
    }
    env.spans.writeChrome(env.opt.outDir + "/bench-spans-" +
                          env.opt.workload + "-" +
                          std::to_string(env.opt.seed) + ".json");
}

} // namespace

int
main(int argc, char **argv)
{
    Env env;
    try {
        if (!parseArgs(argc, argv, env.opt))
            return 2;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: bad option value: " << e.what() << "\n";
        return 2;
    }
    env.notes.push_back("workload " + env.opt.workload + ", seed " +
                        std::to_string(env.opt.seed) + ", trace " +
                        (env.opt.trace ? "1" : "0"));
    env.opt.nproc = std::max(1u, std::thread::hardware_concurrency());
    fs::create_directories(env.opt.workDir);
    fs::create_directories(env.opt.outDir);

    try {
        setUpAll(env);
        if (env.opt.trace) {
            runTraced(env);
        } else {
            std::unique_ptr<Pipeline> p =
                makePipeline(env.opt.workload, env);
            p->prepare();
            // Without the reset, peak_rss_mb would include set-up.
            if (!resetPeakRss())
                throw std::runtime_error(
                    "cannot reset the peak RSS (/proc/self/clear_refs)");
            p->timed(env.opt.seconds);
            env.put("peak_rss_mb", peakRssMb(), "MB");
        }
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }

    const std::uint64_t attempted = env.tally.attempted();
    const std::uint64_t failed = env.tally.failed();
    if (env.opt.trace) {
        env.put("error_rate",
                attempted ? (double)failed / (double)attempted : 1,
                "ratio");
    }

    // Human-readable report lines, then the result object last.
    std::ostringstream report;
    report << "{\"workload\": \"" << env.opt.workload
           << "\", \"seed\": " << env.opt.seed
           << ", \"seconds\": " << number(env.opt.seconds)
           << ", \"trace\": " << (env.opt.trace ? 1 : 0)
           << ", \"nproc\": " << env.opt.nproc << ", \"notes\": [";
    for (std::size_t i = 0; i < env.notes.size(); ++i) {
        std::cout << "# " << env.notes[i] << "\n";
        report << (i ? ", " : "") << "\"" << env.notes[i] << "\"";
    }
    report << "]}\n";
    std::ofstream(env.opt.outDir + "/report-" + env.opt.workload + "-" +
                  std::to_string(env.opt.seed) +
                  (env.opt.trace ? "-trace" : "") + ".json")
        << report.str();

    std::ostringstream out;
    out << "{\"correct\": " << (failed == 0 && attempted > 0 ? "true"
                                                             : "false")
        << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
        << ", \"failed\": " << failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : env.metrics) {
        out << (first ? "" : ", ") << "\"" << name
            << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
            << m.unit << "\"}";
        first = false;
    }
    out << "}}";
    std::cout << out.str() << std::endl;
    return 0;
}
