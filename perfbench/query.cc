/**
 * @file
 * The `query` workload: interactive use. One caller runs
 * `edb-trace query --format json --jobs 1` (cli::cmdQuery) over the
 * indexed traces, a seeded mix of two classes:
 *
 *   point  1-2 session, --addr or --aux predicates drawn from the
 *          trace's active sessions, installed objects and write sites;
 *   scan   kind or aggregation only, so every block is decoded.
 *
 * Every op's JSON is checked against query::scanAll, precomputed
 * untimed. The traced pass drives the calls cmdQuery makes on a v2
 * trace (MappedTrace open, SessionSet::enumerate, needle resolution,
 * query::runQuery) with one span each.
 */

#include "bench.h"
#include "catalog.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <sstream>
#include <thread>

#include "cli/cli.h"
#include "obs/obs.h"
#include "query/query.h"
#include "trace/trace_io.h"

namespace pb {

using namespace edb;

namespace {

using Pairs = std::vector<std::pair<std::string, std::uint64_t>>;

bool
resultKey(const std::string &k)
{
    return k == "matches" || k == "page" || k == "count" ||
           k == "session" || k == "index" || k == "begin" ||
           k == "size" || k == "aux";
}

/** The result fields of an edb-query-v1 document, in order: every
 *  integer whose key names a result field (block stats excluded). */
Pairs
jsonPairs(const std::string &s)
{
    Pairs out;
    std::string key;
    for (std::size_t i = 0; i < s.size();) {
        const char c = s[i];
        if (c == '"') {
            std::string str;
            for (++i; i < s.size() && s[i] != '"'; ++i) {
                if (s[i] == '\\')
                    ++i;
                if (i < s.size())
                    str += s[i];
            }
            ++i;
            std::size_t j = i;
            while (j < s.size() && std::isspace((unsigned char)s[j]))
                ++j;
            if (j < s.size() && s[j] == ':')
                key = str;
        } else if (std::isdigit((unsigned char)c)) {
            std::size_t end = i;
            const std::uint64_t v = std::stoull(s.substr(i), &end);
            if (resultKey(key))
                out.push_back({key, v});
            i += end;
        } else {
            ++i;
        }
    }
    return out;
}

/** The same fields from a QueryResult, as renderQueryJson orders them. */
Pairs
resultPairs(const query::QuerySpec &spec, const query::QueryResult &r)
{
    Pairs out{{"matches", r.matches}};
    if (spec.agg == query::Agg::CountByPage ||
        spec.agg == query::Agg::TopPages) {
        for (const query::PageCount &pc : r.pages) {
            out.push_back({"page", pc.page});
            out.push_back({"count", pc.count});
        }
    } else if (spec.agg == query::Agg::CountBySession) {
        for (std::size_t i = 0; i < r.sessionCounts.size(); ++i) {
            out.push_back({"session", spec.sessions[i]});
            out.push_back({"count", r.sessionCounts[i]});
        }
    } else if (spec.agg != query::Agg::Count) {
        for (const query::MatchedRow &row : r.rows) {
            out.push_back({"index", row.index});
            out.push_back({"begin", row.event.begin});
            out.push_back({"size", row.event.size});
            out.push_back({"aux", row.event.aux});
        }
    }
    return out;
}

/** --session needles resolve as cmdQuery does: every session whose
 *  description contains the needle, first-seen order, deduplicated. */
std::vector<session::SessionId>
resolveNeedles(const session::SessionSet &sessions,
               const trace::Trace &shim,
               const std::vector<std::string> &needles)
{
    std::vector<session::SessionId> out;
    for (const std::string &n : needles) {
        for (session::SessionId id = 0; id < sessions.size(); ++id) {
            if (sessions.describe(id, shim).find(n) != std::string::npos &&
                std::find(out.begin(), out.end(), id) == out.end()) {
                out.push_back(id);
            }
        }
    }
    return out;
}

struct QueryOp
{
    std::size_t trace = 0;
    bool scan = false;
    std::vector<std::string> opts; ///< cmdQuery options, json format
    query::QuerySpec spec;         ///< sessions left for resolution
    std::vector<std::string> needles;
    Pairs expect;
};

/** Per-op layer record of the traced pass. */
struct OpLayers
{
    bool scan = false;
    std::uint64_t planNs = 0;
    std::uint64_t blocksTotal = 0;
    std::uint64_t blocksDecoded = 0;
    std::uint64_t writesDecoded = 0;
    std::uint64_t matches = 0;
    std::int64_t idxHits = 0;
    std::int64_t idxStale = 0;
};

class Query final : public Pipeline
{
  public:
    explicit Query(Env &env) : env_(env) {}


    void
    prepare() override
    {
        Rng rng(env_.opt.seed ^ 0x9e7aull);
        for (std::size_t t = 0; t < env_.traces.size(); ++t) {
            const trace::Trace trace =
                trace::loadTrace(env_.traces[t].path);
            const Catalog cat = buildCatalog(trace);
            std::vector<QueryOp> ops;
            for (int i = 0; i < pointPerTrace; ++i) {
                QueryOp op;
                if (makePoint(rng, trace, cat, t, i, op))
                    ops.push_back(std::move(op));
            }
            for (int i = 0; i < scanPerTrace; ++i) {
                ops.push_back({});
                makeScan(t, i, ops.back());
            }
            oracles(trace, cat, ops);
            std::vector<std::size_t> pools[2];
            for (QueryOp &op : ops) {
                if (op.expect.empty())
                    continue;
                pools[op.scan].push_back(ops_.size());
                ops_.push_back(std::move(op));
            }
            for (auto &pool : pools) {
                if (!pool.empty())
                    slots_.push_back(std::move(pool));
            }
        }
        // Warm-up: one op of every slot through the command, untimed.
        const std::uint64_t t0 = nowNs();
        for (std::size_t k = 0; k < slots_.size(); ++k)
            runCli(draw(k));
        meanNs_ = (double)(nowNs() - t0) /
                  (double)std::max<std::size_t>(1, slots_.size());
        env_.notes.push_back("query: pool of " + std::to_string(ops_.size()) +
                             " specs in " + std::to_string(slots_.size()) +
                             " (trace, class) slots");
    }

    void
    timed(double seconds) override
    {
        std::vector<Sample> a;
        std::vector<Sample> b;
        const std::uint64_t begin = nowNs();
        const std::uint64_t end = begin + (std::uint64_t)(seconds * 1e9);
        for (std::uint64_t k = 0; nowNs() < end; ++k) {
            const QueryOp &op = draw(k);
            (op.scan ? b : a).push_back({op.trace, msOf(runCli(op))});
        }
        const double wall = (double)(nowNs() - begin) / 1e9;
        // Pooled: a trace's point queries are either pruned by the
        // index or not, so a per-trace median would jump between the
        // two with the seed's specs.
        env_.put("a_ms.p50", pooledQuantile(a, 0.5), "ms");
        env_.put("a_ms.p90", pooledQuantile(a, 0.9), "ms");
        env_.put("b_ms.p50", pooledQuantile(b, 0.5), "ms");
        env_.put("b_ms.p90", pooledQuantile(b, 0.9), "ms");
        env_.put("rate_per_s", (double)(a.size() + b.size()) / wall, "1/s");
        env_.notes.push_back("query: a (point) n=" + std::to_string(a.size()) +
                             ", b (scan) n=" + std::to_string(b.size()));
    }

    std::uint64_t
    sizeFor(double seconds) override
    {
        return std::max<std::uint64_t>(
            8, (std::uint64_t)(seconds * 1e9 / std::max(meanNs_, 1.0)));
    }

    std::uint64_t
    fixed(std::uint64_t n, bool traced) override
    {
        layers_.clear();
        std::uint64_t total = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            const QueryOp &op = draw(i);
            const obs::Snapshot before = obs::takeSnapshot();
            OpLayers l;
            total += runLayers(op, l);
            const obs::Snapshot after = obs::takeSnapshot();
            l.idxHits = after.counter("trace.idx.hits") -
                        before.counter("trace.idx.hits");
            l.idxStale = after.counter("trace.idx.stale") -
                         before.counter("trace.idx.stale");
            if (traced)
                layers_.push_back(l);
        }
        return total;
    }

    void
    layers(const std::vector<SinkSpan> &, std::uint64_t from,
           std::uint64_t to) override
    {
        const std::vector<SpanLog::Span> spans = env_.spans.spans();
        for (const char *cls : {"point", "scan"}) {
            const bool scan = std::string(cls) == "scan";
            const std::string c = std::string(".") + cls;
            double open = 0, enumerate = 0, run = 0;
            for (const SpanLog::Span &s : spans) {
                if (s.start < from || s.end > to)
                    continue;
                const double ms = msOf(s.end - s.start);
                if (s.name == "trace.open" + c)
                    open += ms;
                else if (s.name == "session.enumerate" + c)
                    enumerate += ms;
                else if (s.name == "query.run" + c)
                    run += ms;
            }
            double n = 0, plan = 0, total = 0, decoded = 0, writes = 0;
            double matches = 0, hits = 0, stale = 0;
            for (const OpLayers &l : layers_) {
                if (l.scan != scan)
                    continue;
                ++n;
                plan += msOf(l.planNs);
                total += (double)l.blocksTotal;
                decoded += (double)l.blocksDecoded;
                writes += (double)l.writesDecoded;
                matches += (double)l.matches;
                hits += (double)l.idxHits;
                stale += (double)l.idxStale;
            }
            n = std::max(n, 1.0);
            env_.put("trace.open_ms" + c, open / n, "ms");
            env_.put("session.enumerate_ms" + c, enumerate / n, "ms");
            env_.put("query.plan_ms" + c, plan / n, "ms");
            env_.put("query.exec_ms" + c, (run - plan) / n, "ms");
            env_.put("query.blocks_decoded_ratio" + c,
                     total > 0 ? decoded / total : 0, "ratio");
            env_.put("query.match_yield" + c,
                     writes > 0 ? matches / writes : 0, "ratio");
            env_.put("trace.idx.hits" + c, hits / n, "count/op");
            env_.put("trace.idx.stale" + c, stale, "count");
        }
    }

  private:
    /** About the point queries a 20 s run makes per trace: a larger
     *  pool averages out the mix of specs the index prunes and specs
     *  it cannot, which otherwise moves a_ms with the seed. */
    static constexpr int pointPerTrace = 48;
    static constexpr int scanPerTrace = 8;

    /** Op k: slots cycle point/scan within each trace, trace after
     *  trace, so every run weighs classes and traces alike; within a
     *  slot, the seeded specs are dealt in turn, so every run uses
     *  them alike too. */
    const QueryOp &
    draw(std::uint64_t k)
    {
        const std::vector<std::size_t> &pool = slots_[k % slots_.size()];
        return ops_[pool[(k / slots_.size()) % pool.size()]];
    }

    /** The description of an active session that no other session's
     *  description contains, so the needle selects one session;
     *  empty when a few draws find none. */
    static std::string
    uniqueNeedle(Rng &rng, const trace::Trace &trace, const Catalog &cat)
    {
        for (int tries = 0; tries < 8 && !cat.active.empty(); ++tries) {
            const std::string n = cat.sessions.describe(
                cat.active[rng.below(cat.active.size())], trace);
            if (resolveNeedles(cat.sessions, trace, {n}).size() == 1)
                return n;
        }
        return {};
    }

    bool
    makePoint(Rng &rng, const trace::Trace &trace, const Catalog &cat,
              std::size_t t, int j, QueryOp &op)
    {
        op.trace = t;
        // The predicate count and kinds follow the spec's index j, so
        // every pool has the same make-up; their values are drawn.
        const int npred = 1 + (j / 3) % 2;
        for (int i = 0; i < npred; ++i) {
            switch ((j + i) % 3) {
              case 0:
                if (const std::string n = uniqueNeedle(rng, trace, cat);
                    !n.empty()) {
                    op.needles.push_back(n);
                    op.opts.insert(op.opts.end(), {"--session", n});
                    break;
                }
                [[fallthrough]];
              case 1:
                if (!cat.objects.empty()) {
                    const AddrRange r =
                        cat.objects[rng.below(cat.objects.size())];
                    op.spec.addrRanges.push_back(r);
                    op.opts.insert(op.opts.end(),
                                   {"--addr", std::to_string(r.begin) + ":" +
                                                  std::to_string(r.end)});
                    break;
                }
                [[fallthrough]];
              default:
                if (!cat.aux.empty()) {
                    const std::uint32_t v =
                        cat.aux[rng.below(cat.aux.size())];
                    op.spec.auxAny.push_back(v);
                    op.opts.insert(op.opts.end(),
                                   {"--aux", std::to_string(v)});
                }
                break;
            }
        }
        if (op.opts.empty())
            return false;
        static const query::Agg aggs[] = {
            query::Agg::Count, query::Agg::First, query::Agg::Last,
            query::Agg::Rows, query::Agg::TopPages,
            query::Agg::CountByPage, query::Agg::CountBySession};
        const std::size_t nAggs = op.needles.empty() ? 6 : 7;
        setAgg(op, aggs[rng.below(nAggs)]);
        return true;
    }

    /** Scan j: with scanPerTrace = 8, a trace's scans are the eight
     *  (kind filter, aggregation) pairs, so they are the same for
     *  every seed. */
    static void
    makeScan(std::size_t t, int j, QueryOp &op)
    {
        op.trace = t;
        op.scan = true;
        if (j % 2) {
            op.spec.kindMask = query::kindBit(trace::EventKind::Write);
            op.opts.insert(op.opts.end(), {"--kind", "write"});
        }
        static const query::Agg aggs[] = {query::Agg::Count,
                                          query::Agg::CountByPage,
                                          query::Agg::TopPages,
                                          query::Agg::Last};
        setAgg(op, aggs[(j / 2) % 4]);
    }

    static void
    setAgg(QueryOp &op, query::Agg agg)
    {
        op.spec.agg = agg;
        op.opts.insert(op.opts.end(), {"--agg", query::aggName(agg)});
        if (agg == query::Agg::Rows) {
            op.spec.rowLimit = 16;
            op.opts.insert(op.opts.end(), {"--limit", "16"});
        } else if (agg == query::Agg::TopPages) {
            op.spec.k = 5;
            op.opts.insert(op.opts.end(), {"--k", "5"});
        }
        op.opts.insert(op.opts.end(), {"--format", "json"});
    }

    /** The scanAll oracle of every op (valid specs only), computed on
     *  nproc threads: scanAll is a full stateful walk per spec. */
    void
    oracles(const trace::Trace &trace, const Catalog &cat,
            std::vector<QueryOp> &ops)
    {
        std::atomic<std::size_t> next{0};
        auto work = [&] {
            for (std::size_t i; (i = next.fetch_add(1)) < ops.size();) {
                QueryOp &op = ops[i];
                query::QuerySpec spec = op.spec;
                spec.sessions =
                    resolveNeedles(cat.sessions, trace, op.needles);
                if (!query::validateSpec(spec, cat.sessions.size()).empty())
                    continue;
                op.expect = resultPairs(
                    spec, query::scanAll(trace, cat.sessions, spec));
                if (env_.opt.injectFault)
                    op.expect[0].second += 1;
            }
        };
        std::vector<std::thread> threads;
        for (unsigned i = 1; i < env_.opt.nproc; ++i)
            threads.emplace_back(work);
        work();
        for (std::thread &th : threads)
            th.join();
    }

    /** One op through the command; returns its wall ns. */
    std::uint64_t
    runCli(const QueryOp &op)
    {
        std::ostringstream out;
        std::ostringstream err;
        const std::uint64_t t0 = nowNs();
        const int rc =
            cli::cmdQuery(env_.traces[op.trace].path, op.opts, out, err, 1);
        const std::uint64_t ns = nowNs() - t0;
        env_.tally.check(rc == 0 && jsonPairs(out.str()) == op.expect,
                         "query on " + env_.traces[op.trace].name +
                             " differs from scanAll: " + err.str());
        return ns;
    }

    /** One op through the layers cmdQuery calls; returns wall ns. */
    std::uint64_t
    runLayers(const QueryOp &op, OpLayers &l)
    {
        const std::string c = op.scan ? ".scan" : ".point";
        const std::string &path = env_.traces[op.trace].path;
        query::QuerySpec spec = op.spec;
        query::QueryResult res;
        query::QueryStats stats;
        l.scan = op.scan;
        const std::uint64_t t0 = nowNs();
        {
            SpanLog::Scope root(env_.spans, "query.op" + c);
            std::optional<trace::MappedTrace> mapped;
            {
                SpanLog::Scope s(env_.spans, "trace.open" + c);
                mapped.emplace(path);
            }
            std::optional<session::SessionSet> sessions;
            {
                SpanLog::Scope s(env_.spans, "session.enumerate" + c);
                sessions.emplace(
                    session::SessionSet::enumerate(mapped->registry()));
            }
            {
                SpanLog::Scope s(env_.spans, "query.resolve" + c);
                trace::Trace shim;
                shim.program = mapped->program();
                shim.registry = mapped->registry();
                spec.sessions = resolveNeedles(*sessions, shim, op.needles);
                if (!query::validateSpec(spec, sessions->size()).empty())
                    throw std::runtime_error("query: invalid pooled spec");
            }
            {
                SpanLog::Scope s(env_.spans, "query.run" + c);
                query::QueryOptions qo;
                qo.jobs = 1;
                res = query::runQuery(*mapped, *sessions, spec, qo, &stats);
            }
            l.planNs = stats.planNs;
            l.blocksTotal = stats.blocksTotal;
            l.blocksDecoded = stats.blocksFull + stats.blocksControlOnly;
            for (std::size_t b = 0; b < stats.actions.size(); ++b) {
                if (stats.actions[b] == query::BlockAction::Full)
                    l.writesDecoded += mapped->block(b).writes;
            }
        }
        const std::uint64_t ns = nowNs() - t0;
        l.matches = res.matches;
        env_.tally.check(resultPairs(spec, res) == op.expect,
                         "layered query on " + env_.traces[op.trace].name +
                             " differs from scanAll");
        return ns;
    }

    Env &env_;
    std::vector<QueryOp> ops_;
    /** Op ids per (trace, class), in trace order, point before scan. */
    std::vector<std::vector<std::size_t>> slots_;
    std::vector<OpLayers> layers_;
    double meanNs_ = 0;
};

} // namespace

std::unique_ptr<Pipeline>
makeQuery(Env &env)
{
    return std::make_unique<Query>(env);
}

} // namespace pb
