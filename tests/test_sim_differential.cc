/**
 * @file
 * Differential harness for phase-2 replay.
 *
 * Phase 2 runs in two ways, pinned here to each other and to the
 * paper's per-session replay:
 *
 *   simulateOneSession()  the paper's per-session replay (the oracle)
 *   simulate()            the one-pass multi-session sweep, inline at
 *                         jobs 1 and sharded (workers + counter merge)
 *                         at any other job count, over an in-memory or
 *                         a mapped v2 trace
 *
 * Counter by counter: on randomized traces across jobs in {1,2,4,8}
 * and deliberately tiny shard sizes (so events-per-shard and boundary
 * snapshots are exercised hard), and on all five real workload traces,
 * where every mode must be bit-identical — block plan included.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <tuple>

#include <unistd.h>

#include "sim/simulator.h"
#include "testing/random_trace.h"
#include "trace/index_format.h"
#include "trace/trace_io.h"
#include "workload/workload.h"

namespace edb::sim {
namespace {

using session::SessionSet;
using testgen::randomTrace;

/** Assert two results agree on every counter of every session. */
void
expectIdentical(const SimResult &got, const SimResult &want,
                const SessionSet &set, const trace::Trace &t)
{
    ASSERT_EQ(got.totalWrites, want.totalWrites);
    ASSERT_EQ(got.counters.size(), want.counters.size());
    for (session::SessionId s = 0; s < set.size(); ++s) {
        const auto &g = got.counters[s];
        const auto &w = want.counters[s];
        ASSERT_EQ(g.installs, w.installs) << set.describe(s, t);
        ASSERT_EQ(g.removes, w.removes) << set.describe(s, t);
        ASSERT_EQ(g.hits, w.hits) << set.describe(s, t);
        for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
            ASSERT_EQ(g.vm[i].protects, w.vm[i].protects)
                << set.describe(s, t) << " page size " << vmPageSizes[i];
            ASSERT_EQ(g.vm[i].unprotects, w.vm[i].unprotects)
                << set.describe(s, t) << " page size " << vmPageSizes[i];
            ASSERT_EQ(g.vm[i].activePageMisses,
                      w.vm[i].activePageMisses)
                << set.describe(s, t) << " page size " << vmPageSizes[i];
        }
    }
}

/** Assert two session sets enumerate the same sessions and the same
 *  object -> session index. */
void
expectSameSessions(const SessionSet &got, const SessionSet &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (session::SessionId s = 0; s < want.size(); ++s) {
        const session::SessionInfo &g = got.session(s);
        const session::SessionInfo &w = want.session(s);
        ASSERT_EQ(g.type, w.type) << "session " << s;
        ASSERT_EQ(g.object, w.object) << "session " << s;
        ASSERT_EQ(g.function, w.function) << "session " << s;
    }
    ASSERT_EQ(got.objectCount(), want.objectCount());
    for (trace::ObjectId o = 0; o < want.objectCount(); ++o)
        ASSERT_EQ(got.sessionsOf(o), want.sessionsOf(o)) << "object " << o;
}

/** (seed, jobs) matrix over randomized traces. */
class DifferentialRandom
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

TEST_P(DifferentialRandom, ParallelMatchesSequential)
{
    auto [seed, jobs] = GetParam();
    trace::Trace t = randomTrace(seed);
    SessionSet set = SessionSet::enumerate(t);
    SimResult seq = simulate(t, set);

    // Tiny shards force many boundary snapshots; the default exercises
    // the single-shard fast path too.
    for (std::size_t shard : {std::size_t(7), std::size_t(64),
                              std::size_t(64) * 1024}) {
        ReplayStats stats;
        SimResult par =
            simulate(t, set, {.jobs = jobs, .shardEvents = shard}, &stats);
        expectIdentical(par, seq, set, t);
        // Shards are spans of the trace itself; jobs 1 replays inline.
        EXPECT_EQ(stats.shards,
                  jobs == 1 ? 0 : (t.events.size() + shard - 1) / shard);
        EXPECT_EQ(stats.jobs, jobs);
    }
}

TEST_P(DifferentialRandom, StreamingMatchesSequential)
{
    // A trace streamed through the v1 container chunk by chunk, with
    // its sessions enumerated from the streamed header alone, replays
    // bit-identically to the in-memory original at every job count.
    auto [seed, jobs] = GetParam();
    trace::Trace t = randomTrace(seed * 31 + 7);
    SessionSet set = SessionSet::enumerate(t);
    SimResult seq = simulate(t, set);

    std::stringstream ss;
    trace::WriteOptions v1;
    v1.format = trace::TraceFormat::V1Flat;
    trace::writeTrace(t, ss, v1);
    trace::TraceReader reader(ss);
    SessionSet streamed_set = SessionSet::enumerate(reader.registry());
    expectSameSessions(streamed_set, set);

    trace::Trace streamed;
    streamed.totalWrites = t.totalWrites;
    std::vector<trace::Event> chunk(128);
    while (std::size_t n = reader.read(chunk.data(), chunk.size()))
        streamed.events.insert(streamed.events.end(), chunk.begin(),
                               chunk.begin() + (std::ptrdiff_t)n);
    EXPECT_TRUE(reader.done());
    EXPECT_EQ(reader.totalWrites(), t.totalWrites);

    SimResult par = simulate(streamed, streamed_set,
                             {.jobs = jobs, .shardEvents = 128});
    expectIdentical(par, seq, set, t);
}

TEST_P(DifferentialRandom, ParallelMatchesPerSessionOracle)
{
    auto [seed, jobs] = GetParam();
    trace::Trace t = randomTrace(seed * 977 + 3, 400);
    SessionSet set = SessionSet::enumerate(t);

    SimResult par = simulate(t, set, {.jobs = jobs, .shardEvents = 51});

    // The oracle replay is quadratic; spot-check a spread of sessions
    // rather than all of them (test_sim_property covers the full
    // oracle-vs-simulate sweep).
    for (session::SessionId s = 0; s < set.size();
         s = s * 2 + 1) {
        SessionCounters oracle = simulateOneSession(t, set, s);
        const auto &g = par.counters[s];
        ASSERT_EQ(g.installs, oracle.installs) << set.describe(s, t);
        ASSERT_EQ(g.removes, oracle.removes) << set.describe(s, t);
        ASSERT_EQ(g.hits, oracle.hits) << set.describe(s, t);
        for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
            ASSERT_EQ(g.vm[i].protects, oracle.vm[i].protects)
                << set.describe(s, t);
            ASSERT_EQ(g.vm[i].unprotects, oracle.vm[i].unprotects)
                << set.describe(s, t);
            ASSERT_EQ(g.vm[i].activePageMisses,
                      oracle.vm[i].activePageMisses)
                << set.describe(s, t);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndJobs, DifferentialRandom,
    ::testing::Combine(::testing::Values(11, 22, 33, 44),
                       ::testing::Values(1u, 2u, 4u, 8u)));

/** The acceptance matrix: every workload trace, jobs in {1,2,4,8}. */
class DifferentialWorkload
    : public ::testing::TestWithParam<std::string_view>
{
};

TEST_P(DifferentialWorkload, ParallelBitIdenticalOnWorkloadTrace)
{
    auto w = workload::makeWorkload(GetParam());
    trace::Trace t = workload::runTraced(*w);
    SessionSet set = SessionSet::enumerate(t);
    SimResult seq = simulate(t, set);

    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        SimResult par =
            simulate(t, set, {.jobs = jobs, .shardEvents = 16 * 1024});
        expectIdentical(par, seq, set, t);
    }
}

TEST_P(DifferentialWorkload, SequentialMatchesOracleOnWorkloadTrace)
{
    auto w = workload::makeWorkload(GetParam());
    trace::Trace t = workload::runTraced(*w);
    SessionSet set = SessionSet::enumerate(t);
    SimResult seq = simulate(t, set);

    // The per-session oracle walks the whole trace once per session,
    // so pin a geometric spread of sessions (first, last, and powers
    // in between) rather than all of them; the randomized traces
    // above cover the full sweep.
    std::vector<session::SessionId> picks;
    for (session::SessionId s = 0; s < set.size(); s = s * 2 + 1)
        picks.push_back(s);
    if (set.size() > 0)
        picks.push_back((session::SessionId)(set.size() - 1));

    for (session::SessionId s : picks) {
        SessionCounters oracle = simulateOneSession(t, set, s);
        const auto &g = seq.counters[s];
        ASSERT_EQ(g.installs, oracle.installs) << set.describe(s, t);
        ASSERT_EQ(g.removes, oracle.removes) << set.describe(s, t);
        ASSERT_EQ(g.hits, oracle.hits) << set.describe(s, t);
        for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
            ASSERT_EQ(g.vm[i].protects, oracle.vm[i].protects)
                << set.describe(s, t);
            ASSERT_EQ(g.vm[i].unprotects, oracle.vm[i].unprotects)
                << set.describe(s, t);
            ASSERT_EQ(g.vm[i].activePageMisses,
                      oracle.vm[i].activePageMisses)
                << set.describe(s, t);
        }
    }
}

/** RAII v2 artifact of a trace, for mapped replay. */
class SavedV2
{
  public:
    explicit SavedV2(const trace::Trace &t)
        : path_(::testing::TempDir() + "/edb_diff_" + t.program + "." +
                std::to_string(::getpid()) + ".trc")
    {
        trace::saveTrace(t, path_);
    }
    ~SavedV2() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST_P(DifferentialWorkload, MappedBlockSkipBitIdenticalOnFullSet)
{
    auto w = workload::makeWorkload(GetParam());
    trace::Trace t = workload::runTraced(*w);
    SessionSet set = SessionSet::enumerate(t);
    SimResult seq = simulate(t, set);

    SavedV2 saved(t);
    trace::MappedTrace mapped(saved.path());
    // Sessions enumerated from the mapped header alone match the ones
    // enumerated from the materialized trace.
    expectSameSessions(SessionSet::enumerate(mapped.registry()), set);

    // The block-skip replay must be bit-identical to the in-memory
    // sweep — on the full session set the skip rarely fires (almost
    // every page is monitored somewhere), which pins the "don't skip
    // when you must not" side.
    ReplayStats stats;
    SimResult ms = simulate(mapped, set, {}, &stats);
    expectIdentical(ms, seq, set, t);
    ASSERT_TRUE(ms == seq);
    EXPECT_EQ(stats.blocksTotal, mapped.blockCount());
    EXPECT_LE(stats.blocksSkipped + stats.blocksControlOnly,
              stats.blocksTotal);

    // Block-sharded replay, across the jobs matrix.
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        ReplayStats pstats;
        SimResult par = simulate(
            mapped, set, {.jobs = jobs, .shardEvents = 16 * 1024}, &pstats);
        expectIdentical(par, seq, set, t);
        ASSERT_TRUE(par == seq) << "jobs " << jobs;
        EXPECT_EQ(pstats.jobs, jobs);
    }
}

TEST_P(DifferentialWorkload, SparseSubsetSkipMatchesFullRunAndOracle)
{
    auto w = workload::makeWorkload(GetParam());
    trace::Trace t = workload::runTraced(*w);
    SessionSet set = SessionSet::enumerate(t);
    SimResult seq = simulate(t, set);

    SavedV2 saved(t);
    trace::MappedTrace mapped(saved.path());

    // Sparse subsets are where the summary skip actually fires.
    // Counters computed under subset(keep) are positionally comparable
    // to the full run: subset counters[i] == full counters[keep[i]].
    std::vector<session::SessionId> every7;
    for (session::SessionId s = 0; s < set.size(); s += 7)
        every7.push_back(s);
    std::vector<session::SessionId> singles = {0};
    if (set.size() > 2)
        singles.push_back((session::SessionId)(set.size() / 2));
    if (set.size() > 1)
        singles.push_back((session::SessionId)(set.size() - 1));

    std::vector<std::vector<session::SessionId>> keeps = {every7};
    for (session::SessionId s : singles)
        keeps.push_back({s});

    for (const auto &keep : keeps) {
        SessionSet sub = set.subset(keep);
        SimResult ms = simulate(mapped, sub);
        ASSERT_EQ(ms.totalWrites, seq.totalWrites);
        ASSERT_EQ(ms.counters.size(), keep.size());
        for (std::size_t i = 0; i < keep.size(); ++i) {
            ASSERT_TRUE(ms.counters[i] == seq.counters[keep[i]])
                << set.describe(keep[i], t) << " in subset of "
                << keep.size();
        }

        for (unsigned jobs : {1u, 2u, 4u, 8u}) {
            SimResult par = simulate(
                mapped, sub, {.jobs = jobs, .shardEvents = 16 * 1024});
            ASSERT_TRUE(par == ms)
                << "jobs " << jobs << " subset of " << keep.size();
        }
    }

    // Tie one single-session subset straight to the per-session
    // oracle, independent of simulate().
    SessionSet one = set.subset({singles.back()});
    SimResult ms = simulate(mapped, one);
    SessionCounters oracle = simulateOneSession(t, set, singles.back());
    ASSERT_TRUE(ms.counters[0] == oracle)
        << set.describe(singles.back(), t);
}

TEST_P(DifferentialWorkload, OnePlanAtEveryJobCount)
{
    auto w = workload::makeWorkload(GetParam());
    trace::Trace t = workload::runTraced(*w);
    SessionSet set = SessionSet::enumerate(t);
    SimResult seq = simulate(t, set);

    // A sparse subset, so the plan has skips of every kind to agree on.
    std::vector<session::SessionId> keep;
    for (session::SessionId s = set.size() / 3; s < set.size(); s += 97)
        keep.push_back(s);
    SessionSet sub = set.subset(keep);

    SavedV2 saved(t);
    const trace::MappedTrace plain(saved.path());
    ASSERT_EQ(plain.index(), nullptr);
    const std::string sidecar = saved.path() + ".plan.edbi";
    {
        trace::TraceIndex idx = trace::buildTraceIndex(plain);
        trace::saveTraceIndex(idx, sidecar);
    }
    trace::MappedTrace indexed(saved.path());
    const bool attached = indexed.openIndex(sidecar);
    std::remove(sidecar.c_str());
    ASSERT_TRUE(attached);

    ReplayStats want;
    const SimResult ref = simulate(plain, sub, {}, &want);
    for (std::size_t i = 0; i < keep.size(); ++i)
        ASSERT_TRUE(ref.counters[i] == seq.counters[keep[i]])
            << set.describe(keep[i], t);
    EXPECT_GT(want.blocksSkipped + want.blocksControlOnly, 0u);

    const trace::MappedTrace *handles[] = {&plain, &indexed};
    for (const trace::MappedTrace *m : handles) {
        const char *tag = m->index() ? "indexed" : "plain";
        for (unsigned jobs : {1u, 2u, 4u, 8u}) {
            for (std::size_t shard : {std::size_t(1), std::size_t(51),
                                      std::size_t(16384)}) {
                ReplayStats got;
                const SimResult r = simulate(
                    *m, sub, {.jobs = jobs, .shardEvents = shard}, &got);
                ASSERT_TRUE(r == ref) << tag << " jobs " << jobs
                                      << " shard " << shard;
                EXPECT_EQ(got.blocksTotal, want.blocksTotal) << tag;
                EXPECT_EQ(got.blocksSkipped, want.blocksSkipped)
                    << tag << " jobs " << jobs << " shard " << shard;
                EXPECT_EQ(got.blocksControlOnly, want.blocksControlOnly)
                    << tag << " jobs " << jobs << " shard " << shard;
                EXPECT_EQ(got.writesSkipped, want.writesSkipped)
                    << tag << " jobs " << jobs << " shard " << shard;
                EXPECT_EQ(got.jobs, jobs);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DifferentialWorkload,
    ::testing::ValuesIn(workload::workloadNames()),
    [](const ::testing::TestParamInfo<std::string_view> &info) {
        return std::string(info.param);
    });

} // namespace
} // namespace edb::sim
