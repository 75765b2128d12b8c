/**
 * @file
 * The replay-side block planner (internal to src/sim).
 *
 * Replay over a mapped v2 trace asks one question per block: can this
 * block's writes possibly change a counter? BlockPlanner answers it,
 * once, for both the inline and the sharded consumer of
 * simulate(const MappedTrace&): it owns the only replay-side set of
 * monitored summary pages and emits one BlockStep per decision, in
 * stream order —
 *
 *  - *superblock skip*: a pure-write sidecar-index node whose merged
 *    runs miss every monitored page retires all its member blocks in
 *    one probe (DESIGN.md §16);
 *  - *pure-write skip*: the block's write summary misses every
 *    monitored page and it has no control event, so nothing decodes;
 *  - *control-only*: a mixed block whose summary misses both the
 *    monitored pages and every page its own installs add, so only the
 *    control group replays (DESIGN.md §11);
 *  - *full*: anything else decodes and replays whole.
 *
 * Skipped writes contribute only their header count, so a plan is
 * bit-identical to full replay. The planner's monitored set advances
 * from the controls its consumer already holds (advance()): the ones
 * the planner decoded for a mixed-block decision, or the ones the
 * consumer decoded to replay or shard the block.
 *
 * A second mode plans against a FixedPageSet instead of sessions: the
 * daemon's live RUN, whose monitors stay put for the whole walk and
 * which replays writes only. There no control event can change the
 * set, so every block and superblock whose summary misses it skips,
 * mixed or not, and no step is ControlOnly or needs advance().
 */

#ifndef EDB_SIM_BLOCK_PLAN_H
#define EDB_SIM_BLOCK_PLAN_H

#include <span>
#include <vector>

#include "session/session.h"
#include "sim/relevance.h"
#include "sim/simulator.h"
#include "trace/index_format.h"
#include "trace/trace_io.h"

namespace edb::sim {

/** What replay does with one planned step. */
enum class BlockAction
{
    Skip,        ///< decode nothing; the writes fold as a count
    ControlOnly, ///< replay only the control group; the writes fold
    Full,        ///< decode and replay the whole block
};

/** One planner decision. */
struct BlockStep
{
    /** First block of the step. */
    std::size_t block = 0;
    /** Blocks the step retires (a superblock skip retires many). */
    std::size_t blocks = 1;
    BlockAction action = BlockAction::Full;
    /** Writes folded as a count (Skip and ControlOnly). */
    std::uint64_t writes = 0;
    /** The block's control events when planning had to decode them —
     *  every ControlOnly step, and a Full one whose own installs
     *  blocked the skip — else empty. Valid until the next next(). */
    std::span<const trace::Event> ctl;
};

class BlockPlanner
{
  public:
    /** Plan `trace` for `sessions`, tallying into `stats`. */
    BlockPlanner(const trace::MappedTrace &trace,
                 const session::SessionSet &sessions, ReplayStats &stats)
        : trace_(trace), sessions_(&sessions), stats_(stats),
          scratch_(trace.largestBlockEvents())
    {
        stats_.blocksTotal = trace.blockCount();
    }

    /** Plan `trace`'s writes against the fixed page set `pages`,
     *  ignoring its control events; `pages` must outlive the planner. */
    BlockPlanner(const trace::MappedTrace &trace,
                 const FixedPageSet &pages, ReplayStats &stats)
        : trace_(trace), fixed_(&pages), stats_(stats)
    {
        stats_.blocksTotal = trace.blockCount();
    }

    bool done() const { return next_ >= trace_.blockCount(); }

    /** Decide the step at the cursor and move past it. In session
     *  mode every ControlOnly and Full step must be followed by
     *  advance() over the block's controls before the next call. */
    BlockStep
    next()
    {
        const std::size_t b = next_;
        const trace::TraceIndex *idx = trace_.index();
        // Tree descent: a node with no control event (or any node,
        // when controls are ignored) cannot change the monitored set,
        // and its runs cover every member block's.
        if (idx != nullptr &&
            (b & (trace::traceIndexSuperSpan - 1)) == 0) {
            const trace::IndexNode &super = idx->superOf(b);
            if ((fixed_ != nullptr ||
                 (super.pureWrites() && super.writes > 0)) &&
                !monitored(super.runs.begin(), super.runs.size())) {
                elided_ += super.blocks;
                return skip(b, super.blocks, super.writes);
            }
        }
        const trace::MappedTrace::Block &blk = trace_.block(b);
        next_ = b + 1;
        if (fixed_ != nullptr) {
            if (monitored(blk.runs.begin(), blk.runs.size()))
                return BlockStep{b, 1, BlockAction::Full, 0, {}};
            return skip(b, 1, blk.writes);
        }
        if (blk.writes == 0 ||
            pages_.anyMonitored(blk.runs.begin(), blk.runs.size()))
            return BlockStep{b, 1, BlockAction::Full, 0, {}};
        if (blk.pureWrites())
            return skip(b, 1, blk.writes);
        // Mixed block: the writes may still skip if nothing it
        // installs lands on their summary either.
        const std::span<const trace::Event> ctl(
            scratch_.data(), (std::size_t)blk.controls());
        trace_.decodeBlockControl(b, scratch_.data());
        if (anyInstallTouchesRuns(ctl.data(), ctl.size(),
                                  blk.runs.begin(), blk.runs.size(),
                                  [this](trace::ObjectId obj) {
                                      return relevant(obj);
                                  })) {
            return BlockStep{b, 1, BlockAction::Full, 0, ctl};
        }
        ++stats_.blocksControlOnly;
        stats_.writesSkipped += blk.writes;
        return BlockStep{b, 1, BlockAction::ControlOnly, blk.writes,
                         ctl};
    }

    /** Fold one planned block's control events into the monitored
     *  set. Objects outside every session cannot contribute to any
     *  counter, so they never block a skip. */
    void
    advance(std::span<const trace::Event> ctl)
    {
        for (const trace::Event &e : ctl) {
            if (!relevant(e.aux))
                continue;
            if (e.kind == trace::EventKind::InstallMonitor)
                pages_.add(e.range());
            else
                pages_.remove(e.range());
        }
    }

    /** Publish the plan's skip and index-elision counters. */
    void
    publish() const
    {
        trace::obsNoteSkippedBlocks(stats_.blocksSkipped +
                                        stats_.blocksControlOnly,
                                    stats_.writesSkipped);
        if (trace_.index() != nullptr) {
            trace::obsNoteIndexPlan(trace_.blockCount() - elided_,
                                    elided_);
        }
    }

  private:
    bool
    relevant(trace::ObjectId obj) const
    {
        return !sessions_->sessionsOf(obj).empty();
    }

    bool
    monitored(const trace::PageRun *runs, std::size_t n) const
    {
        return fixed_ != nullptr ? fixed_->anyMonitored(runs, n)
                                 : pages_.anyMonitored(runs, n);
    }

    BlockStep
    skip(std::size_t b, std::size_t blocks, std::uint64_t writes)
    {
        next_ = b + blocks;
        stats_.blocksSkipped += blocks;
        stats_.writesSkipped += writes;
        return BlockStep{b, blocks, BlockAction::Skip, writes, {}};
    }

    const trace::MappedTrace &trace_;
    /** Session mode: the sessions whose objects are relevant. */
    const session::SessionSet *sessions_ = nullptr;
    /** Fixed mode: the whole relevance predicate. */
    const FixedPageSet *fixed_ = nullptr;
    ReplayStats &stats_;
    /** Summary pages of the live session-relevant objects. */
    SummaryPageTracker pages_;
    std::vector<trace::Event> scratch_;
    std::size_t next_ = 0;
    /** Blocks retired by superblock skips. */
    std::uint64_t elided_ = 0;
};

} // namespace edb::sim

#endif // EDB_SIM_BLOCK_PLAN_H
