/**
 * @file
 * The `served` workload: the daemon path. An in-process
 * served::Server (default options) takes three tenant connections,
 * each its own closed loop over one shared set of OPEN_TRACEs, with
 * a seeded mix of
 *
 *   live     INSTALL 1-4 small monitors on installed objects,
 *            SUBSCRIBE, live RUN, drain EVT, RESUME, REMOVE;
 *   session  RUN of 1-4 active session ids;
 *   dense    a fixed share of live RUNs on the trace with the fewest
 *            writes, under one monitor spanning its densest
 *            quota-sized window of writes.
 *
 * Oracles: session counters equal sim::simulate's; live hits and
 * notifications equal the writes touching the monitored ranges
 * (precomputed from the loaded trace), EVT count equals the
 * notifications, sequence numbers are gap-free and RESUME's per-
 * monitor counts add up.
 */

#include "bench.h"
#include "catalog.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <thread>

#include "obs/obs.h"
#include "served/client.h"
#include "served/server.h"
#include "sim/simulator.h"
#include "trace/trace_io.h"

namespace pb {

using namespace edb;

namespace {

/** Largest monitor a live round installs. */
constexpr Addr smallMonitorBytes = 256;
/** Most hits one pooled sparse monitor may take per RUN. */
constexpr std::uint64_t sparseHitCap = 2000;
/** Every denseEvery-th op of a tenant is a dense run. */
constexpr std::uint64_t denseEvery = 16;
constexpr unsigned tenantCount = 3;

/** Per-trace oracle data. */
struct ServedTrace
{
    std::string path;
    /** Pairwise-disjoint word-aligned monitor ranges (<= 64). */
    std::vector<AddrRange> pool;
    /** Pool bits a live round may draw (sparse enough). */
    std::vector<std::uint32_t> sparseBits;
    /** For each write touching the pool, the bits it touches. */
    std::vector<std::uint64_t> masks;
    std::uint64_t writes = 0;
    session::SessionSet sessions;
    sim::SimResult sim;
    std::vector<session::SessionId> active;
};

/** What a live run under monitor set `m` must report. */
struct LiveExpect
{
    std::uint64_t hits = 0;
    std::uint64_t notifications = 0;
    std::vector<std::uint64_t> perBit; ///< notifications per pool bit
};

LiveExpect
expectLive(const ServedTrace &t, std::uint64_t m)
{
    LiveExpect e;
    e.perBit.assign(64, 0);
    for (std::uint64_t w : t.masks) {
        std::uint64_t hit = w & m;
        if (hit == 0)
            continue;
        ++e.hits;
        e.notifications += (std::uint64_t)std::popcount(hit);
        for (; hit; hit &= hit - 1)
            ++e.perBit[(unsigned)std::countr_zero(hit)];
    }
    return e;
}

/**
 * The median latency of each trace, averaged over the traces. A live
 * round or session RUN costs about the same each time on one trace
 * but several times more on the costly traces than on the cheap ones,
 * so the median of all of them pooled falls in the gap between the
 * two groups and jumps across it from run to run.
 */
double
traceMedianMean(const std::vector<Sample> &samples)
{
    std::map<std::size_t, std::vector<double>> by;
    for (const auto &[trace, ms] : samples)
        by[trace].push_back(ms);
    double sum = 0;
    for (const auto &[trace, v] : by)
        sum += quantile(v, 0.5);
    return by.empty() ? 0 : sum / (double)by.size();
}

/**
 * One tenant's draws from each trace's items (active sessions, or
 * sparse monitor bits): the items in a seeded order, dealt out in
 * turn, so that every run covers them evenly. As many draws in a row
 * as a trace has items are distinct.
 */
class Deck
{
  public:
    Deck(Rng &rng, std::vector<std::vector<std::uint32_t>> items)
        : order_(std::move(items)), next_(order_.size(), 0)
    {
        for (std::vector<std::uint32_t> &o : order_) {
            for (std::size_t j = o.size(); j > 1; --j)
                std::swap(o[j - 1], o[rng.below(j)]);
        }
    }

    std::uint32_t
    take(std::size_t trace)
    {
        const std::vector<std::uint32_t> &o = order_[trace];
        return o[next_[trace]++ % o.size()];
    }

  private:
    std::vector<std::vector<std::uint32_t>> order_;
    std::vector<std::size_t> next_;
};

/** Client-side samples of one tenant loop. */
struct TenantOut
{
    std::vector<Sample> live;
    std::vector<Sample> session;
    std::uint64_t denseNs = 0;
    std::uint64_t denseNotifications = 0;
    std::uint64_t liveHits = 0;
    std::uint64_t liveWrites = 0;
    std::uint64_t notifications = 0;
    std::map<std::string, std::pair<double, std::uint64_t>> rtt;
    /** (trace, ids) of each session RUN, for the direct replay. */
    std::vector<std::pair<std::size_t, std::vector<std::uint32_t>>> subsets;
    std::uint64_t opNs = 0;
};

class Served final : public Pipeline
{
  public:
    explicit Served(Env &env) : env_(env) {}

    ~Served() override
    {
        if (server_)
            server_->stop();
    }


    void
    prepare() override
    {
        Rng rng(env_.opt.seed ^ 0x5e7edull);
        for (const TraceFile &tf : env_.traces) {
            const trace::Trace trace = trace::loadTrace(tf.path);
            traces_.push_back(build(rng, trace, tf.path));
        }
        // Dense runs go to the trace with the fewest writes.
        for (std::size_t i = 0; i < traces_.size(); ++i) {
            if (traces_[i].writes > 0 &&
                (traces_[denseTrace_].writes == 0 ||
                 traces_[i].writes < traces_[denseTrace_].writes)) {
                denseTrace_ = i;
            }
        }
        buildDense(trace::loadTrace(traces_[denseTrace_].path));

        served::ServerOptions so;
        so.socketPath = env_.opt.workDir + "/served.sock";
        server_ = std::make_unique<served::Server>(so);
        server_->start();

        // Warm-up: one op of every kind per tenant, untimed; it also
        // sizes the fixed passes.
        const std::uint64_t t0 = nowNs();
        loop(0, 3, false, "warm");
        opNs_ = (double)(nowNs() - t0) / 3.0;
    }

    void
    timed(double seconds) override
    {
        const std::uint64_t end = nowNs() + (std::uint64_t)(seconds * 1e9);
        std::vector<TenantOut> outs = loop(end, 0, false, "timed");
        std::vector<Sample> a, b;
        std::uint64_t denseNs = 0, notes = 0;
        for (const TenantOut &o : outs) {
            a.insert(a.end(), o.live.begin(), o.live.end());
            b.insert(b.end(), o.session.begin(), o.session.end());
            denseNs += o.denseNs;
            notes += o.denseNotifications;
        }
        env_.put("a_ms.p50", traceMedianMean(a), "ms");
        env_.put("a_ms.p90", pooledQuantile(a, 0.9), "ms");
        env_.put("b_ms.p50", traceMedianMean(b), "ms");
        env_.put("b_ms.p90", pooledQuantile(b, 0.9), "ms");
        env_.put("rate_per_s",
                 denseNs ? (double)notes / ((double)denseNs / 1e9) : 0,
                 "1/s");
        env_.notes.push_back("served: a (live round) n=" +
                             std::to_string(a.size()) +
                             ", b (session RUN) n=" +
                             std::to_string(b.size()) +
                             ", dense notifications " +
                             std::to_string(notes));
    }

    std::uint64_t
    sizeFor(double seconds) override
    {
        return std::max<std::uint64_t>(
            4, (std::uint64_t)(seconds * 1e9 / std::max(opNs_, 1.0)));
    }

    std::uint64_t
    fixed(std::uint64_t n, bool traced) override
    {
        std::optional<served::MetricsReply> before;
        obs::Snapshot obsBefore;
        if (traced) {
            before = metrics();
            obsBefore = obs::takeSnapshot();
        }
        std::vector<TenantOut> outs = loop(0, n, traced, "fixed");
        std::uint64_t total = 0;
        for (const TenantOut &o : outs)
            total += o.opNs;
        if (traced) {
            // The server observes request latency after the reply.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            const served::MetricsReply after = metrics();
            const obs::Snapshot obsAfter = obs::takeSnapshot();
            summarize(outs, *before, after,
                      obsAfter.counter("served.events_streamed") -
                          obsBefore.counter("served.events_streamed"));
        }
        return total;
    }

    /** The traced fixed pass already reported its layers. */
    void
    layers(const std::vector<SinkSpan> &, std::uint64_t,
           std::uint64_t) override
    {
    }

  private:
    ServedTrace
    build(Rng &rng, const trace::Trace &trace, const std::string &path)
    {
        ServedTrace t;
        t.path = path;
        t.writes = trace.totalWrites;
        Catalog cat = buildCatalog(trace);
        t.sessions = std::move(cat.sessions);
        t.sim = std::move(cat.sim);
        t.active = std::move(cat.active);

        // Small, word-aligned object ranges, pairwise disjoint.
        std::vector<AddrRange> cand;
        for (const AddrRange &r : cat.objects) {
            const Addr b = r.begin & ~(wordBytes - 1);
            const Addr e = (r.end + wordBytes - 1) & ~(wordBytes - 1);
            if (e - b <= smallMonitorBytes)
                cand.push_back(AddrRange(b, e));
        }
        for (std::size_t i = cand.size(); i > 1; --i)
            std::swap(cand[i - 1], cand[rng.below(i)]);
        for (const AddrRange &r : cand) {
            if (t.pool.size() == 64)
                break;
            bool clash = false;
            for (const AddrRange &p : t.pool)
                clash = clash || p.intersects(r);
            if (!clash)
                t.pool.push_back(r);
        }
        std::vector<std::uint64_t> hits(64, 0);
        for (const trace::Event &e : trace.events) {
            if (e.kind != trace::EventKind::Write)
                continue;
            std::uint64_t m = 0;
            for (std::size_t i = 0; i < t.pool.size(); ++i) {
                if (t.pool[i].intersects(e.range()))
                    m |= 1ull << i;
            }
            if (m == 0)
                continue;
            t.masks.push_back(m);
            for (std::uint64_t h = m; h; h &= h - 1)
                ++hits[(unsigned)std::countr_zero(h)];
        }
        for (unsigned i = 0; i < t.pool.size(); ++i) {
            if (hits[i] <= sparseHitCap)
                t.sparseBits.push_back(i);
        }
        return t;
    }

    /** The densest quota-sized window of writes: one monitor on it. */
    void
    buildDense(const trace::Trace &trace)
    {
        const Addr quota = served::Quotas{}.maxMonitorBytes;
        std::vector<std::pair<Addr, Addr>> w;
        for (const trace::Event &e : trace.events) {
            if (e.kind == trace::EventKind::Write)
                w.push_back({e.begin, e.begin + e.size});
        }
        std::sort(w.begin(), w.end());
        std::size_t best = 0, bestLo = 0, bestHi = 0, lo = 0;
        Addr maxEnd = 0;
        for (std::size_t hi = 0; hi < w.size(); ++hi) {
            while (w[hi].second - w[lo].first > quota - 2 * wordBytes)
                ++lo;
            if (hi - lo + 1 > best) {
                best = hi - lo + 1;
                bestLo = lo;
                bestHi = hi;
            }
        }
        for (std::size_t i = bestLo; i <= bestHi && i < w.size(); ++i)
            maxEnd = std::max(maxEnd, w[i].second);
        if (w.empty())
            return;
        dense_ = AddrRange(w[bestLo].first & ~(wordBytes - 1),
                           (maxEnd + wordBytes - 1) & ~(wordBytes - 1));
        denseHits_ = 0;
        for (const auto &[b, e] : w)
            denseHits_ += dense_.intersects(AddrRange(b, e)) ? 1 : 0;
    }

    served::MetricsReply
    metrics()
    {
        served::Client c;
        c.connect(server_->socketPath());
        served::MetricsReply r = c.metricsReport();
        c.close();
        return r;
    }

    /**
     * Run the tenant loops: until `deadline` (ns) when nonzero, else
     * `ops` ops per tenant. The op list depends only on the seed, the
     * tenant and `tag`'s pass, so the untraced and traced fixed passes
     * run the same ops.
     */
    std::vector<TenantOut>
    loop(std::uint64_t deadline, std::uint64_t ops, bool traced,
         const std::string &tag)
    {
        std::vector<TenantOut> outs(tenantCount);
        std::vector<std::thread> threads;
        for (unsigned i = 0; i < tenantCount; ++i) {
            threads.emplace_back([this, i, deadline, ops, traced, &tag,
                                  &outs] {
                try {
                    tenant(i, deadline, ops, traced, tag, outs[i]);
                } catch (const std::exception &e) {
                    env_.tally.check(false, std::string("tenant: ") +
                                                e.what());
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        return outs;
    }

    void
    tenant(unsigned i, std::uint64_t deadline, std::uint64_t ops,
           bool traced, const std::string &tag, TenantOut &out)
    {
        served::Client c;
        c.connect(server_->socketPath());
        c.hello("tenant" + std::to_string(i));
        std::vector<std::uint32_t> ids;
        for (const ServedTrace &t : traces_)
            ids.push_back(c.openTrace(t.path).traceId);
        std::uint64_t seq = 1;
        Rng rng(env_.opt.seed * 31 + i * 7919 +
                std::hash<std::string>{}(tag));
        std::vector<std::vector<std::uint32_t>> bitItems, sessionItems;
        for (const ServedTrace &t : traces_) {
            bitItems.push_back(t.sparseBits);
            sessionItems.push_back(t.active);
        }
        Deck bits(rng, std::move(bitItems));
        Deck sessions(rng, std::move(sessionItems));
        // Live rounds and session RUNs alternate, each cycling through
        // the traces from a per-tenant offset, so every run weighs the
        // traces alike; monitors and sessions are dealt from decks.
        std::uint64_t live = i;
        std::uint64_t session = i;
        for (std::uint64_t k = 0;; ++k) {
            if (deadline ? nowNs() >= deadline : k >= ops)
                break;
            const std::uint64_t t0 = nowNs();
            if ((k + i * 5) % denseEvery == 0 && dense_.size() > 0) {
                denseRun(c, ids, seq, traced, out);
            } else if (live <= session) {
                const std::size_t ti =
                    liveRound(c, ids, bits, live++, seq, traced, out);
                out.live.push_back({ti, msOf(nowNs() - t0)});
            } else {
                const std::size_t ti =
                    sessionRun(c, ids, sessions, session++, traced, out);
                out.session.push_back({ti, msOf(nowNs() - t0)});
            }
            out.opNs += nowNs() - t0;
        }
        c.bye();
    }

    /** Time one client call under a span; rtt per op name. */
    template <typename F>
    auto
    call(const char *op, bool traced, TenantOut &out, F &&f)
    {
        std::optional<SpanLog::Scope> s;
        if (traced)
            s.emplace(env_.spans, std::string("served.rtt.") + op);
        const std::uint64_t t0 = nowNs();
        auto finish = [&] {
            auto &r = out.rtt[op];
            r.first += msOf(nowNs() - t0);
            ++r.second;
        };
        if constexpr (std::is_void_v<decltype(f())>) {
            f();
            finish();
        } else {
            auto v = f();
            finish();
            return v;
        }
    }

    /** Check EVTs against the expected count and the running seq. */
    bool
    eventsOk(const std::vector<served::EventOut> &events,
             std::uint64_t want, std::uint64_t &seq)
    {
        bool ok = events.size() == want;
        for (const served::EventOut &e : events)
            ok = ok && e.seq == seq++;
        return ok;
    }

    /** One sparse live round; returns the trace it ran on. */
    std::size_t
    liveRound(served::Client &c, const std::vector<std::uint32_t> &ids,
              Deck &bits, std::uint64_t n, std::uint64_t &seq, bool traced,
              TenantOut &out)
    {
        std::vector<std::size_t> usable;
        for (std::size_t t = 0; t < traces_.size(); ++t) {
            if (!traces_[t].sparseBits.empty())
                usable.push_back(t);
        }
        const std::size_t ti = usable[n % usable.size()];
        const ServedTrace &t = traces_[ti];
        // 1-4 monitors in turn: each costs an INSTALL and a REMOVE.
        const std::uint64_t k = std::min<std::uint64_t>(
            1 + (n / usable.size()) % 4, t.sparseBits.size());
        std::uint64_t m = 0;
        for (std::uint64_t j = 0; j < k; ++j)
            m |= 1ull << bits.take(ti);
        LiveExpect want = expectLive(t, m);
        if (env_.opt.injectFault)
            want.hits += 1;

        std::optional<SpanLog::Scope> root;
        if (traced)
            root.emplace(env_.spans, "served.op.live");
        std::map<std::uint32_t, unsigned> bitOf;
        for (std::uint64_t b = m; b; b &= b - 1) {
            const unsigned bit = (unsigned)std::countr_zero(b);
            const std::uint32_t id = call("install", traced, out,
                                          [&] { return c.install(t.pool[bit]); });
            bitOf[id] = bit;
        }
        call("subscribe", traced, out, [&] { c.subscribe(true); });
        const served::RunReply r =
            call("run_live", traced, out, [&] { return c.run(ids[ti]); });
        const std::vector<served::EventOut> events = c.takeEvents();
        const served::ResumeReply rs =
            call("resume", traced, out, [&] { return c.resume(); });
        for (const auto &[id, bit] : bitOf)
            call("remove", traced, out, [&] { c.remove(id); });

        bool ok = !r.sessionMode && r.hits == want.hits &&
                  r.notifications == want.notifications &&
                  eventsOk(events, want.notifications, seq) &&
                  rs.dropped == 0;
        std::uint64_t resumed = 0;
        for (const served::ResumeHit &h : rs.hits) {
            auto it = bitOf.find(h.monitorId);
            ok = ok && it != bitOf.end() &&
                 h.count == want.perBit[it->second];
            resumed += h.count;
        }
        ok = ok && resumed == want.notifications;
        env_.tally.check(ok, "live RUN differs from the write oracle");
        out.liveHits += r.hits;
        out.liveWrites += r.writes;
        out.notifications += r.notifications;
        return ti;
    }

    /** One session RUN; returns the trace it ran on. */
    std::size_t
    sessionRun(served::Client &c, const std::vector<std::uint32_t> &ids,
               Deck &sessions, std::uint64_t n, bool traced,
               TenantOut &out)
    {
        std::vector<std::size_t> usable;
        for (std::size_t t = 0; t < traces_.size(); ++t) {
            if (!traces_[t].active.empty())
                usable.push_back(t);
        }
        const std::size_t ti = usable[n % usable.size()];
        const ServedTrace &t = traces_[ti];
        // 1-4 ids in turn, from the deck so they are distinct: a RUN
        // naming one session twice aborts the daemon
        // (SessionSet::subset asserts), which is not the load this
        // workload measures.
        const std::uint64_t k = std::min<std::uint64_t>(
            1 + (n / usable.size()) % 4, t.active.size());
        std::vector<std::uint32_t> sel;
        for (std::uint64_t j = 0; j < k; ++j)
            sel.push_back(sessions.take(ti));

        std::optional<SpanLog::Scope> root;
        if (traced)
            root.emplace(env_.spans, "served.op.session");
        const served::RunReply r = call("run_session", traced, out, [&] {
            return c.run(ids[ti], sel);
        });
        bool ok = r.sessionMode && r.counters.size() == sel.size() &&
                  r.totalWrites == t.sim.totalWrites;
        for (std::size_t j = 0; ok && j < sel.size(); ++j) {
            sim::SessionCounters want = t.sim.counters[sel[j]];
            if (env_.opt.injectFault)
                want.hits += 1;
            ok = r.counters[j] == want;
        }
        env_.tally.check(ok, "session RUN differs from sim::simulate");
        out.subsets.push_back({ti, sel});
        return ti;
    }

    void
    denseRun(served::Client &c, const std::vector<std::uint32_t> &ids,
             std::uint64_t &seq, bool traced, TenantOut &out)
    {
        std::optional<SpanLog::Scope> root;
        if (traced)
            root.emplace(env_.spans, "served.op.dense");
        const std::uint32_t id = call("install", traced, out,
                                      [&] { return c.install(dense_); });
        call("subscribe", traced, out, [&] { c.subscribe(true); });
        const std::uint64_t t0 = nowNs();
        const served::RunReply r = call("run_dense", traced, out, [&] {
            return c.run(ids[denseTrace_]);
        });
        const std::vector<served::EventOut> events = c.takeEvents();
        out.denseNs += nowNs() - t0;
        const served::ResumeReply rs =
            call("resume", traced, out, [&] { return c.resume(); });
        call("remove", traced, out, [&] { c.remove(id); });
        const std::uint64_t want =
            denseHits_ + (env_.opt.injectFault ? 1 : 0);
        std::uint64_t resumed = 0;
        for (const served::ResumeHit &h : rs.hits)
            resumed += h.monitorId == id ? h.count : 0;
        env_.tally.check(r.hits == want && r.notifications == want &&
                             eventsOk(events, want, seq) &&
                             resumed == want,
                         "dense live RUN differs from the write oracle");
        out.denseNotifications += events.size();
        out.notifications += r.notifications;
    }

    /** Per-layer metrics of the traced fixed pass. */
    void
    summarize(const std::vector<TenantOut> &outs,
              const served::MetricsReply &before,
              const served::MetricsReply &after,
              std::int64_t eventsStreamed)
    {
        std::map<std::string, std::pair<double, std::uint64_t>> rtt;
        std::uint64_t hits = 0, writes = 0, notes = 0;
        for (const TenantOut &o : outs) {
            for (const auto &[op, v] : o.rtt) {
                rtt[op].first += v.first;
                rtt[op].second += v.second;
            }
            hits += o.liveHits;
            writes += o.liveWrites;
            notes += o.notifications;
        }
        double rttSum = 0;
        std::uint64_t rttN = 0;
        for (const char *op : {"install", "subscribe", "run_live", "resume",
                               "remove", "run_session", "run_dense"}) {
            const auto &v = rtt[op];
            env_.put(std::string("served.rtt_ms.") + op,
                v.second ? v.first / (double)v.second : 0, "ms");
            rttSum += v.first;
            rttN += v.second;
        }

        // Server-side time from the METRICS histograms' deltas.
        auto delta = [&](const std::string &name, const std::string &op) {
            auto find = [&](const served::MetricsReply &r) {
                for (const served::MetricsHistRow &h : r.hists) {
                    if (h.name != name)
                        continue;
                    bool match = op.empty() && h.labels.empty();
                    for (const telemetry::Label &l : h.labels)
                        match = match || (l.key == "op" && l.value == op);
                    if (match)
                        return std::make_pair((double)h.sum, h.count);
                }
                return std::make_pair(0.0, (std::uint64_t)0);
            };
            const auto b = find(before);
            const auto a = find(after);
            return std::make_pair(a.first - b.first, a.second - b.second);
        };
        double serverSum = 0;
        std::uint64_t serverN = 0;
        for (const char *op :
             {"INSTALL", "SUBSCRIBE", "RUN", "RESUME", "REMOVE"}) {
            const auto d = delta("served.request_ns", op);
            std::string lower = op;
            std::transform(lower.begin(), lower.end(), lower.begin(),
                           [](unsigned char ch) { return std::tolower(ch); });
            env_.put("served.server_ms." + lower,
                d.second ? d.first / 1e6 / (double)d.second : 0, "ms");
            serverSum += d.first / 1e6;
            serverN += d.second;
        }
        const auto run = delta("served.run_ns", "");
        env_.put("served.server_ms.run_exec",
            run.second ? run.first / 1e6 / (double)run.second : 0, "ms");
        env_.put("served.transport_ms",
            rttN && serverN ? (rttSum - serverSum) / (double)rttN : 0, "ms");
        env_.put("served.live_yield", writes ? (double)hits / (double)writes : 0,
            "ratio");
        env_.put("served.evt_per_frame",
            eventsStreamed > 0 ? (double)notes / (double)eventsStreamed : 0,
            "ratio");

        // The planned session RUN without the daemon: mapped simulate
        // of the same subsets.
        std::vector<std::optional<trace::MappedTrace>> mapped(traces_.size());
        double ms = 0;
        std::uint64_t n = 0;
        for (const TenantOut &o : outs) {
            for (const auto &[ti, sel] : o.subsets) {
                if (n == 200)
                    break;
                if (!mapped[ti])
                    mapped[ti].emplace(traces_[ti].path);
                const ServedTrace &t = traces_[ti];
                SpanLog::Scope s(env_.spans, "sim.session_run");
                const std::uint64_t t0 = nowNs();
                const session::SessionSet sub = t.sessions.subset(
                    std::vector<session::SessionId>(sel.begin(), sel.end()));
                const sim::SimResult r = sim::simulate(*mapped[ti], sub);
                ms += msOf(nowNs() - t0);
                ++n;
                bool ok = r.counters.size() == sel.size();
                for (std::size_t j = 0; ok && j < sel.size(); ++j)
                    ok = r.counters[j] == t.sim.counters[sel[j]];
                env_.tally.check(ok, "mapped subset simulate differs");
            }
        }
        env_.put("sim.session_run_ms", n ? ms / (double)n : 0, "ms");
    }

    Env &env_;
    std::vector<ServedTrace> traces_;
    std::size_t denseTrace_ = 0;
    AddrRange dense_{0, 0};
    std::uint64_t denseHits_ = 0;
    double opNs_ = 0;
    std::unique_ptr<served::Server> server_;
};

} // namespace

std::unique_ptr<Pipeline>
makeServed(Env &env)
{
    return std::make_unique<Served>(env);
}

} // namespace pb
