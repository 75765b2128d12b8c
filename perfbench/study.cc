/**
 * @file
 * The `study` workload: the paper's own phase-2 pipeline. One caller
 * runs `edb-trace analyze` (cli::cmdAnalyze) over every recorded
 * program in turn, alternating passes at --jobs 1 and --jobs nproc.
 *
 * Oracles: every output is byte-identical to the first pass's (jobs
 * nproc included), and a seeded sample of active sessions matches
 * sim::simulateOneSession at both job counts.
 *
 * The traced pass drives the same public calls cmdAnalyze makes
 * (trace::loadTrace -> report::studyTrace -> table render) with one
 * span each; its rendered output must equal cmdAnalyze's.
 */

#include "bench.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "cli/cli.h"
#include "model/timing.h"
#include "obs/obs.h"
#include "report/study.h"
#include "report/table.h"
#include "session/session.h"
#include "sim/simulator.h"
#include "trace/trace_io.h"

namespace pb {

using namespace edb;

namespace {

/** The analyze report, rendered exactly as cmdAnalyze prints it. */
std::string
renderAnalyze(const report::ProgramStudy &study,
              const model::TimingProfile &profile)
{
    std::ostringstream out;
    out << "program " << study.program << ": "
        << study.activeSessions.size() << " active sessions, base time "
        << report::fmt(study.baseUs / 1000, 0) << " ms (" << profile.name
        << ")\n\n";
    report::TextTable table;
    table.header({"Statistic", "NH", "VM-4K", "VM-8K", "TP", "CP"});
    auto row = [&](const char *label, auto get) {
        std::vector<std::string> cells = {label};
        for (std::size_t s = 0; s < 5; ++s)
            cells.push_back(report::fmt(get(study.overheadStats[s])));
        table.row(cells);
    };
    using S = SummaryStats;
    row("Min", [](const S &s) { return s.min; });
    row("Max", [](const S &s) { return s.max; });
    row("T-Mean", [](const S &s) { return s.tmean; });
    row("Mean", [](const S &s) { return s.mean; });
    row("90%", [](const S &s) { return s.p90; });
    row("98%", [](const S &s) { return s.p98; });
    out << table.render();
    out << "\n(relative overhead: estimated monitoring time / base "
           "execution time)\n";
    return out.str();
}

class Study final : public Pipeline
{
  public:
    explicit Study(Env &env) : env_(env), rng_(env.opt.seed ^ 0x5717d1ull)
    {
        for (const TraceFile &t : env.traces) {
            if (t.recorded)
                progs_.push_back(&t);
        }
    }


    void
    prepare() override
    {
        const model::TimingProfile profile = model::sparcStation2();
        const unsigned jn = env_.opt.nproc;
        for (const TraceFile *t : progs_) {
            // The first pass: its output is every later pass's oracle.
            std::ostringstream o;
            const std::uint64_t t0 = nowNs();
            const int rc = cli::cmdAnalyze(t->path, o, 1);
            pass1Ns_ += nowNs() - t0;
            env_.tally.check(rc == 0, "analyze " + t->name + " failed");
            ref_[t->name] = o.str() + (env_.opt.injectFault ? "!" : "");

            trace::Trace trace = trace::loadTrace(t->path);
            report::ProgramStudy s1 =
                report::studyTrace(trace, profile, 0, 1);
            report::ProgramStudy sn =
                report::studyTrace(trace, profile, 0, jn);
            env_.tally.check(s1.sim == sn.sim,
                             t->name + ": jobs " + std::to_string(jn) +
                                 " counters differ from jobs 1");
            sim_[t->name] = s1.sim;
            const std::size_t samples =
                std::min<std::size_t>(3, s1.activeSessions.size());
            for (std::size_t i = 0; i < samples; ++i) {
                const session::SessionId id = s1.activeSessions[rng_.below(
                    s1.activeSessions.size())];
                sim::SessionCounters want =
                    sim::simulateOneSession(trace, s1.sessions, id);
                if (env_.opt.injectFault)
                    want.hits += 1;
                env_.tally.check(s1.sim.counters[id] == want &&
                                     sn.sim.counters[id] == want,
                                 t->name + ": session " +
                                     std::to_string(id) +
                                     " differs from simulateOneSession");
            }
        }
        // Warm-up at jobs nproc (the jobs-1 warm-up was the first pass).
        passCli(jn);
    }

    void
    timed(double seconds) override
    {
        std::vector<double> a;
        std::vector<double> b;
        std::uint64_t analyses = 0;
        const std::uint64_t begin = nowNs();
        const std::uint64_t end = begin + (std::uint64_t)(seconds * 1e9);
        do {
            a.push_back(msOf(passCli(1)));
            b.push_back(msOf(passCli(env_.opt.nproc)));
            analyses += 2 * progs_.size();
        } while (nowNs() < end);
        const double wall = (double)(nowNs() - begin) / 1e9;
        env_.put("a_ms.p50", quantile(a, 0.5), "ms");
        env_.put("a_ms.p90", quantile(a, 0.9), "ms");
        env_.put("b_ms.p50", quantile(b, 0.5), "ms");
        env_.put("b_ms.p90", quantile(b, 0.9), "ms");
        env_.put("rate_per_s", (double)analyses / wall, "1/s");
        env_.notes.push_back("study: passes a (jobs 1) n=" +
                             std::to_string(a.size()) +
                             ", b (jobs " + std::to_string(env_.opt.nproc) +
                             ") n=" + std::to_string(b.size()));
    }

    std::uint64_t
    sizeFor(double seconds) override
    {
        // One pair of passes costs about two first passes.
        const double pair = 2.2 * (double)pass1Ns_ / 1e9;
        return std::max<std::uint64_t>(1, (std::uint64_t)(seconds / pair));
    }

    std::uint64_t
    fixed(std::uint64_t pairs, bool traced) override
    {
        const obs::Snapshot before = obs::takeSnapshot();
        std::uint64_t total = 0;
        for (std::uint64_t i = 0; i < pairs; ++i) {
            total += passLayers(1);
            total += passLayers(env_.opt.nproc);
        }
        const obs::Snapshot after = obs::takeSnapshot();
        for (const char *c :
             {"wms.shadow.fast", "wms.shadow.fallback", "pool.idle_ns"})
            delta_[c] = (double)(after.counter(c) - before.counter(c));
        if (traced)
            mappedComparison();
        passes_ = pairs;
        return total;
    }

    void
    layers(const std::vector<SinkSpan> &sink, std::uint64_t from,
           std::uint64_t to) override
    {
        const std::vector<SpanLog::Span> spans = env_.spans.spans();
        // Sink spans inside a bench span, by name. The sink's clock
        // origin is read a moment after ours, so its times may sit a
        // few microseconds early: allow that much slack.
        constexpr std::uint64_t slackNs = 50'000;
        auto inside = [&](const SpanLog::Span &s, const char *name) {
            std::vector<const SinkSpan *> out;
            for (const SinkSpan &k : sink) {
                if (k.start + slackNs >= s.start &&
                    k.end <= s.end + slackNs && k.name == name) {
                    out.push_back(&k);
                }
            }
            return out;
        };
        const double passes = (double)std::max<std::uint64_t>(1, passes_);
        double enumerate = 0, render = 0, modelSelf = 0, pass1 = 0;
        double simTotal = 0, parTotal = 0, profileTotal = 0;
        double openTotal = 0, mappedTotal = 0;
        std::vector<double> imbalance;
        for (const TraceFile *t : progs_) {
            const std::string &p = t->name;
            double load = 0, study1 = 0, sim1 = 0, simN = 0, prof = 0;
            double nLoad = 0, n1 = 0, nN = 0;
            for (const SpanLog::Span &s : spans) {
                if (s.start < from || s.end > to)
                    continue;
                const double ms = msOf(s.end - s.start);
                if (s.name == "trace.load." + p) {
                    load += ms;
                    ++nLoad;
                } else if (s.name == "cli.render." + p + ".j1") {
                    render += ms;
                } else if (s.name == "cli.analyze." + p + ".j1") {
                    pass1 += ms;
                } else if (s.name == "trace.open." + p) {
                    openTotal += ms;
                } else if (s.name == "sim.mapped_simulate." + p) {
                    mappedTotal += ms;
                } else if (s.name == "report.study." + p + ".j1") {
                    study1 += ms;
                    ++n1;
                    std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
                    for (const char *k : {"study.enumerate", "study.simulate",
                                          "study.index_profile"}) {
                        for (const SinkSpan *c : inside(s, k)) {
                            kids.push_back({c->start, c->end});
                            const double cms = msOf(c->end - c->start);
                            if (std::string(k) == "study.enumerate")
                                enumerate += cms;
                            else if (std::string(k) == "study.simulate")
                                sim1 += cms;
                            else
                                prof += cms;
                        }
                    }
                    modelSelf += ms - msOf(unionNs(kids));
                } else if (s.name == "report.study." + p + ".jn") {
                    ++nN;
                    for (const SinkSpan *c : inside(s, "study.simulate"))
                        simN += msOf(c->end - c->start);
                    for (const SinkSpan *d :
                         inside(s, "sim.parallel.dispatch")) {
                        std::vector<double> shards;
                        for (const SinkSpan &k : sink) {
                            if (k.name == "sim.parallel.shard" &&
                                k.start >= d->start && k.end <= d->end) {
                                shards.push_back(msOf(k.end - k.start));
                            }
                        }
                        if (shards.empty())
                            continue;
                        double sum = 0, mx = 0;
                        for (double v : shards) {
                            sum += v;
                            mx = std::max(mx, v);
                        }
                        imbalance.push_back(mx / (sum / shards.size()));
                    }
                }
            }
            nLoad = std::max(nLoad, 1.0);
            n1 = std::max(n1, 1.0);
            nN = std::max(nN, 1.0);
            env_.put("trace.load_ms." + p, load / nLoad, "ms");
            env_.put("report.study_ms." + p, study1 / n1, "ms");
            env_.put("sim.simulate_ms." + p, sim1 / n1, "ms");
            env_.put("sim.index_profile_ms." + p, prof / n1, "ms");
            env_.put("sim.parallel_simulate_ms." + p, simN / nN, "ms");
            simTotal += sim1 / n1;
            parTotal += simN / nN;
            profileTotal += prof / n1;
        }
        env_.put("session.enumerate_ms.study", enumerate / passes, "ms");
        env_.put("model.self_ms", modelSelf / passes, "ms");
        env_.put("cli.render_ms", render / passes, "ms");
        env_.put("sim.par_speedup", parTotal > 0 ? simTotal / parTotal : 0,
                 "ratio");
        double imb = 0;
        for (double v : imbalance)
            imb += v;
        env_.put("sim.shard_imbalance",
                 imbalance.empty() ? 0 : imb / imbalance.size(), "ratio");
        env_.put("sim.index_profile_share",
                 pass1 > 0 ? profileTotal * passes / pass1 : 0, "ratio");
        env_.put("trace.open_ms.study", openTotal, "ms");
        env_.put("sim.mapped_simulate_ms", mappedTotal, "ms");

        const double fast = delta_["wms.shadow.fast"];
        const double fallback = delta_["wms.shadow.fallback"];
        env_.put("wms.shadow.fast_ratio",
                 fast + fallback > 0 ? fast / (fast + fallback) : 0,
                 "ratio");
        env_.put("util.pool.idle_ms", delta_["pool.idle_ns"] / 1e6 / passes,
                 "ms");
    }

  private:
    /** Programs in a seeded rotation, fixed per pass. */
    std::vector<const TraceFile *>
    order()
    {
        std::vector<const TraceFile *> v = progs_;
        std::rotate(v.begin(), v.begin() + rng_.below(v.size()), v.end());
        return v;
    }

    /** One pass through the command; returns its wall ns. */
    std::uint64_t
    passCli(unsigned jobs)
    {
        std::uint64_t total = 0;
        for (const TraceFile *t : order()) {
            std::ostringstream o;
            const std::uint64_t t0 = nowNs();
            const int rc = cli::cmdAnalyze(t->path, o, jobs);
            total += nowNs() - t0;
            env_.tally.check(rc == 0 && o.str() == ref_[t->name],
                             "analyze " + t->name + " at jobs " +
                                 std::to_string(jobs) +
                                 " differs from the first pass");
        }
        return total;
    }

    /** One pass through the layers cmdAnalyze calls, one span each. */
    std::uint64_t
    passLayers(unsigned jobs)
    {
        const model::TimingProfile profile = model::sparcStation2();
        const std::string j = jobs == 1 ? ".j1" : ".jn";
        std::uint64_t total = 0;
        for (const TraceFile *t : order()) {
            const std::string &p = t->name;
            std::string out;
            const std::uint64_t t0 = nowNs();
            {
                SpanLog::Scope root(env_.spans, "cli.analyze." + p + j);
                std::optional<trace::Trace> trace;
                {
                    SpanLog::Scope s(env_.spans, "trace.load." + p);
                    trace.emplace(trace::loadTrace(t->path));
                }
                std::optional<report::ProgramStudy> study;
                {
                    SpanLog::Scope s(env_.spans, "report.study." + p + j);
                    study.emplace(
                        report::studyTrace(*trace, profile, 0, jobs));
                }
                SpanLog::Scope s(env_.spans, "cli.render." + p + j);
                out = renderAnalyze(*study, profile);
            }
            total += nowNs() - t0;
            env_.tally.check(out == ref_[p],
                             "layered analyze of " + p +
                                 " differs from cmdAnalyze");
        }
        return total;
    }

    /** The mapped read path the replay-driver refactor would use:
     *  open + sim::simulate(MappedTrace), against loadTrace. */
    void
    mappedComparison()
    {
        for (const TraceFile *t : progs_) {
            SpanLog::Scope root(env_.spans, "mapped." + t->name);
            std::optional<trace::MappedTrace> mapped;
            {
                SpanLog::Scope s(env_.spans, "trace.open." + t->name);
                mapped.emplace(t->path);
            }
            sim::SimResult res;
            {
                SpanLog::Scope s(env_.spans,
                                 "sim.mapped_simulate." + t->name);
                const session::SessionSet sessions =
                    session::SessionSet::enumerate(mapped->registry());
                res = sim::simulate(*mapped, sessions);
            }
            env_.tally.check(res == sim_[t->name],
                             "mapped simulate of " + t->name +
                                 " differs from simulate(Trace)");
        }
    }

    Env &env_;
    Rng rng_;
    std::vector<const TraceFile *> progs_;
    std::map<std::string, std::string> ref_;
    std::map<std::string, sim::SimResult> sim_;
    std::uint64_t pass1Ns_ = 0;
    std::uint64_t passes_ = 0;
    /** Obs counter deltas over the last fixed pass. */
    std::map<std::string, double> delta_;
};

} // namespace

std::unique_ptr<Pipeline>
makeStudy(Env &env)
{
    return std::make_unique<Study>(env);
}

} // namespace pb
