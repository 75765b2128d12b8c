/**
 * @file
 * Phase-2 replay: both simulate() entry points, the shard
 * dispatcher they share, and the per-session oracle.
 *
 * Every mode replays on the shared ReplayEngine (replay_core.h), which
 * owns the bitset/flat-table hot path, and every mapped replay follows
 * the one BlockPlanner (block_plan.h), so inline and sharded runs stay
 * identical by construction. simulateOneSession() deliberately keeps
 * its naive flat-list implementation: it is the oracle the
 * differential tests pin everything else against, so it must stay
 * simple enough to be obviously correct.
 */

#include "sim/simulator.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "sim/block_plan.h"
#include "sim/replay_core.h"
#include "util/thread_pool.h"

namespace edb::sim {

#if EDB_OBS_ENABLED
namespace {
obs::Counter obsDispatchRuns{"sim.parallel.runs"};
obs::Counter obsShards{"sim.parallel.shards"};
/** Wall time one worker spends replaying one shard. */
obs::Histogram obsShardWallNs{"sim.parallel.shard_wall_ns"};
} // namespace
#endif

using session::SessionId;
using session::SessionMaskTable;
using session::SessionSet;
using trace::Event;
using trace::EventKind;
using trace::MappedTrace;
using trace::ObjectId;
using trace::Trace;

namespace {

using detail::LiveMonitor;
using detail::ReplayEngine;

/** ReplayOptions::jobs resolved to a worker count. */
unsigned
jobsOf(const ReplayOptions &opts)
{
    return std::min(opts.jobs ? opts.jobs : ThreadPool::defaultJobs(),
                    ThreadPool::maxJobs);
}

void
checkTotalWrites(const SimResult &result, std::uint64_t header)
{
    EDB_ASSERT(result.totalWrites == header,
               "trace totalWrites header (%llu) disagrees with events "
               "(%llu)",
               (unsigned long long)header,
               (unsigned long long)result.totalWrites);
}

/**
 * The one shard dispatcher. The caller walks the stream in order and,
 * for each shard, calls submit() and then advance() over the shard's
 * events. submit() snapshots the live monitors at the shard's first
 * event; a worker seeds a pooled engine from that snapshot *without
 * counting* — the installs that built it belong to earlier shards —
 * and replays the shard (DESIGN.md §7). finish() sums the partials.
 *
 * Engines are pre-sized before the pool starts (live objects bound
 * monitored pages), one per worker, so replay allocates nothing and
 * never rehashes a page table mid-shard.
 */
class ShardDispatcher
{
  public:
    ShardDispatcher(const SessionSet &sessions, unsigned jobs)
        : masks_(sessions), slots_(jobs), jobs_(jobs),
          pool_(jobs, jobs)
    {
        EDB_OBS_INC(obsDispatchRuns);
        for (Slot &s : slots_) {
            s.engine = std::make_unique<ReplayEngine>(
                sessions, masks_, sessions.objectCount());
            s.sum.counters.resize(sessions.size());
            free_.push_back(&s);
        }
    }

    // Workers hold `this`.
    ShardDispatcher(const ShardDispatcher &) = delete;
    ShardDispatcher &operator=(const ShardDispatcher &) = delete;

    /** Queue one shard; `replay(engine)` runs on a worker. */
    template <typename Replay>
    void
    submit(Replay replay)
    {
        ++shards_;
        EDB_OBS_INC(obsShards);
        std::vector<LiveMonitor> snap;
        snap.reserve(live_.size());
        for (const auto &[begin, rest] : live_)
            snap.push_back(LiveMonitor{begin, rest.first, rest.second});
        pool_.submit([this, snap = std::move(snap), replay] {
            EDB_OBS_TIMED_SPAN("sim.parallel.shard", obsShardWallNs);
            Slot *slot = acquire();
            // Back to the free list even if the replay throws, so the
            // remaining shards still find an engine.
            std::unique_ptr<Slot, Releaser> held(slot, Releaser{this});
            slot->engine->reset();
            slot->engine->seed(snap.data(), snap.size());
            replay(*slot->engine);
            slot->sum.merge(slot->engine->result());
        });
    }

    /** Fold a submitted shard's install/removes into the boundary
     *  state the next snapshot is taken from. */
    void
    advance(std::span<const Event> events)
    {
        for (const Event &e : events) {
            const AddrRange r = e.range();
            if (e.kind == EventKind::InstallMonitor) {
                const bool inserted =
                    live_.emplace(r.begin, std::make_pair(r.end, e.aux))
                        .second;
                EDB_ASSERT(inserted, "overlapping install at %s",
                           r.str().c_str());
            } else if (e.kind == EventKind::RemoveMonitor) {
                auto it = live_.find(r.begin);
                EDB_ASSERT(it != live_.end() &&
                               it->second.first == r.end &&
                               it->second.second == e.aux,
                           "remove %s does not match a live install",
                           r.str().c_str());
                live_.erase(it);
            }
        }
    }

    /** Wait for every shard and sum their counters. */
    SimResult
    finish(ReplayStats &stats)
    {
        pool_.wait();
        SimResult merged;
        for (const Slot &s : slots_)
            merged.merge(s.sum);
        stats.shards = shards_;
        stats.jobs = jobs_;
        return merged;
    }

  private:
    /** One worker engine plus the running sum of its shards. */
    struct Slot
    {
        std::unique_ptr<ReplayEngine> engine;
        SimResult sum;
    };

    struct Releaser
    {
        ShardDispatcher *owner;
        void
        operator()(Slot *s) const
        {
            std::lock_guard<std::mutex> lock(owner->mu_);
            owner->free_.push_back(s);
        }
    };

    Slot *
    acquire()
    {
        std::lock_guard<std::mutex> lock(mu_);
        // One slot per pool thread, each released before its shard
        // finishes, so a free slot always exists.
        EDB_ASSERT(!free_.empty(), "engine pool exhausted");
        Slot *s = free_.back();
        free_.pop_back();
        return s;
    }

    const SessionMaskTable masks_;
    std::vector<Slot> slots_;
    std::mutex mu_;
    std::vector<Slot *> free_;
    /** Boundary state: begin -> (end, object) of each live monitor. */
    std::map<Addr, std::pair<Addr, ObjectId>> live_;
    std::size_t shards_ = 0;
    unsigned jobs_;
    // Last, so its destructor drains queued shards while everything
    // they touch is still alive.
    ThreadPool pool_;
};

/** A mapped shard: planned blocks plus all their control events, in
 *  stream order. */
struct BlockShard
{
    std::vector<BlockStep> steps;
    std::vector<Event> ctl;
};

void
replayBlockShard(const MappedTrace &trace, const BlockShard &shard,
                 ReplayEngine &engine)
{
    trace::WriteBatch batch;
    const Event *ctl = shard.ctl.data();
    for (const BlockStep &s : shard.steps) {
        const auto n = (std::size_t)trace.block(s.block).controls();
        if (s.action == BlockAction::ControlOnly) {
            engine.replay(ctl, n);
        } else {
            trace.decodeBlockBatch(s.block, batch);
            engine.replayBlock(batch);
        }
        ctl += n;
    }
}

/** Shard a block plan: runs of planned blocks up to the event budget,
 *  never splitting a block. Skipped writes fold in here, never
 *  reaching a worker. */
SimResult
dispatchBlocks(const MappedTrace &trace, const SessionSet &sessions,
               BlockPlanner &planner, const ReplayOptions &opts,
               ReplayStats &stats)
{
    EDB_OBS_SPAN("sim.parallel.dispatch");
    ShardDispatcher shards(sessions, stats.jobs);
    const std::size_t budget =
        std::max<std::size_t>(opts.shardEvents, 1);
    std::vector<Event> ctlbuf(trace.largestBlockEvents());
    std::uint64_t folded = 0;
    while (!planner.done()) {
        auto shard = std::make_shared<BlockShard>();
        std::size_t events = 0;
        while (!planner.done() && events < budget) {
            BlockStep s = planner.next();
            folded += s.writes;
            if (s.action == BlockAction::Skip)
                continue;
            const MappedTrace::Block &blk = trace.block(s.block);
            std::span<const Event> ctl = s.ctl;
            if (ctl.empty() && blk.controls() > 0) {
                trace.decodeBlockControl(s.block, ctlbuf.data());
                ctl = {ctlbuf.data(), (std::size_t)blk.controls()};
            }
            planner.advance(ctl);
            shard->ctl.insert(shard->ctl.end(), ctl.begin(), ctl.end());
            events += s.action == BlockAction::Full
                          ? (std::size_t)blk.events
                          : ctl.size();
            s.ctl = {};
            shard->steps.push_back(s);
        }
        if (shard->steps.empty())
            continue; // the tail of the trace was all skipped
        shards.submit([shard, &trace](ReplayEngine &engine) {
            replayBlockShard(trace, *shard, engine);
        });
        shards.advance(shard->ctl);
    }
    SimResult merged = shards.finish(stats);
    merged.totalWrites += folded;
    return merged;
}

} // namespace

SimResult
simulate(const Trace &trace, const SessionSet &sessions,
         const ReplayOptions &opts, ReplayStats *stats)
{
    ReplayStats local;
    local.jobs = jobsOf(opts);
    SimResult result;
    if (local.jobs == 1) {
        const SessionMaskTable masks(sessions);
        ReplayEngine engine(sessions, masks, sessions.objectCount());
        engine.replay(trace.events.data(), trace.events.size());
        result = engine.result();
    } else {
        // Shards are spans of the trace itself: nothing is copied.
        EDB_OBS_SPAN("sim.parallel.dispatch");
        ShardDispatcher shards(sessions, local.jobs);
        const std::size_t budget =
            std::max<std::size_t>(opts.shardEvents, 1);
        const std::span<const Event> all(trace.events);
        for (std::size_t at = 0; at < all.size(); at += budget) {
            const auto shard =
                all.subspan(at, std::min(budget, all.size() - at));
            shards.submit([shard](ReplayEngine &engine) {
                engine.replay(shard.data(), shard.size());
            });
            shards.advance(shard);
        }
        result = shards.finish(local);
    }
    if (stats != nullptr)
        *stats = local;
    checkTotalWrites(result, trace.totalWrites);
    return result;
}

SimResult
simulate(const MappedTrace &trace, const SessionSet &sessions,
         const ReplayOptions &opts, ReplayStats *stats)
{
    ReplayStats local;
    local.jobs = jobsOf(opts);
    BlockPlanner planner(trace, sessions, local);
    SimResult result;
    if (local.jobs == 1) {
        const SessionMaskTable masks(sessions);
        ReplayEngine engine(sessions, masks, sessions.objectCount());
        trace::WriteBatch batch;
        while (!planner.done()) {
            const BlockStep s = planner.next();
            if (s.action == BlockAction::ControlOnly) {
                engine.replay(s.ctl.data(), s.ctl.size());
                planner.advance(s.ctl);
            } else if (s.action == BlockAction::Full) {
                trace.decodeBlockBatch(s.block, batch);
                engine.replayBlock(batch);
                planner.advance(batch.ctl);
            }
            engine.skipWrites(s.writes);
        }
        result = engine.result();
    } else {
        result = dispatchBlocks(trace, sessions, planner, opts, local);
    }
    planner.publish();
    if (stats != nullptr)
        *stats = local;
    checkTotalWrites(result, trace.totalWrites());
    return result;
}

SessionCounters
simulateOneSession(const Trace &trace, const SessionSet &sessions,
                   SessionId id)
{
    SessionCounters c;

    // Live monitors of this session only, as a flat list — an
    // intentionally different (and obviously correct) structure from
    // the one-pass simulator's, so tests can use this as an oracle.
    std::vector<std::pair<AddrRange, ObjectId>> monitors;
    std::array<std::unordered_map<Addr, std::uint32_t>,
               vmPageSizeCount> page_counts;

    auto in_session = [&](ObjectId obj) {
        const auto &s = sessions.sessionsOf(obj);
        return std::binary_search(s.begin(), s.end(), id);
    };

    for (const Event &e : trace.events) {
        switch (e.kind) {
          case EventKind::InstallMonitor: {
            if (!in_session(e.aux))
                break;
            ++c.installs;
            const AddrRange r = e.range();
            monitors.emplace_back(r, e.aux);
            for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
                auto [first, last] = pageSpan(r, vmPageSizes[i]);
                for (Addr p = first; p <= last; ++p) {
                    if (++page_counts[i][p] == 1)
                        ++c.vm[i].protects;
                }
            }
            break;
          }

          case EventKind::RemoveMonitor: {
            if (!in_session(e.aux))
                break;
            ++c.removes;
            const AddrRange r = e.range();
            auto it = std::find_if(
                monitors.begin(), monitors.end(), [&](const auto &m) {
                    return m.first == r && m.second == e.aux;
                });
            EDB_ASSERT(it != monitors.end(),
                       "oracle: remove %s without install",
                       r.str().c_str());
            monitors.erase(it);
            for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
                auto [first, last] = pageSpan(r, vmPageSizes[i]);
                for (Addr p = first; p <= last; ++p) {
                    auto pc = page_counts[i].find(p);
                    EDB_ASSERT(pc != page_counts[i].end() &&
                                   pc->second > 0,
                               "oracle: page count corrupt");
                    if (--pc->second == 0) {
                        ++c.vm[i].unprotects;
                        page_counts[i].erase(pc);
                    }
                }
            }
            break;
          }

          case EventKind::Write: {
            const AddrRange w = e.range();
            bool hit = std::any_of(
                monitors.begin(), monitors.end(),
                [&](const auto &m) { return m.first.intersects(w); });
            if (hit) {
                ++c.hits;
                break;
            }
            for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
                auto [first, last] = pageSpan(w, vmPageSizes[i]);
                for (Addr p = first; p <= last; ++p) {
                    auto pc = page_counts[i].find(p);
                    if (pc != page_counts[i].end() && pc->second > 0) {
                        ++c.vm[i].activePageMisses;
                        break;
                    }
                }
            }
            break;
          }
        }
    }
    return c;
}

} // namespace edb::sim
