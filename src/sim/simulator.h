/**
 * @file
 * The phase-2 simulator (paper Section 4, Figure 1).
 *
 * "In phase 2, the simulator uses that trace and a description of the
 * objects to be monitored to output detailed data about program
 * behavior with respect to the monitored objects."
 *
 * The paper ran phase 2 once per monitor session; we exploit the fact
 * that its counting variables are all additive to evaluate *every*
 * session of a trace in a single pass (the paper itself observes that
 * per-session re-runs "would be impractical" for some programs):
 *
 *  - an interval map of currently installed objects resolves each
 *    WriteEvent to the objects it touches, and the object -> session
 *    inverted index attributes MonitorHit_sigma;
 *  - per VM page size, a page -> (session, active-monitor-count) table
 *    maintained by install/remove events yields VMProtect_sigma /
 *    VMUnprotect_sigma transitions and, on writes, the
 *    VMActivePageMiss_sigma attribution;
 *  - epoch marking deduplicates sessions so a write touching two
 *    objects of one session still counts a single monitor hit, exactly
 *    as "there is a single monitor notification for each monitor hit"
 *    (Section 2).
 *
 * The same additivity holds along the *event axis*, so one replay
 * path serves every caller: with `jobs == 1` it replays inline;
 * otherwise it splits the stream into contiguous shards, replays each
 * on a worker against the live-monitor state snapshotted at its
 * boundary, and sums the partial counters (DESIGN.md §7). Over a
 * mapped v2 trace, one block planner decides per block whether its
 * writes can matter at all, and skipped writes fold in as a bare count
 * (DESIGN.md §11/§16). Every mode is bit-identical to every other.
 */

#ifndef EDB_SIM_SIMULATOR_H
#define EDB_SIM_SIMULATOR_H

#include <cstddef>
#include <cstdint>

#include "session/session.h"
#include "sim/counters.h"
#include "trace/trace.h"
#include "trace/trace_io.h"

namespace edb::sim {

/** How a simulation runs. */
struct ReplayOptions
{
    /** Worker threads: 1 replays inline, 0 means
     *  ThreadPool::defaultJobs(), anything else shards. */
    unsigned jobs = 1;
    /** Events per shard. Small shards exercise the boundary logic
     *  (tests use tiny values); large shards amortize snapshot cost.
     *  A mapped shard never splits a block. */
    std::size_t shardEvents = 64 * 1024;
};

/** What one simulation did: its block plan and its sharding. */
struct ReplayStats
{
    /** Blocks in a mapped trace (0 for an in-memory one). */
    std::uint64_t blocksTotal = 0;
    /** Pure-write blocks skipped without decoding a single byte. */
    std::uint64_t blocksSkipped = 0;
    /** Mixed blocks whose writes were skipped: only the (small)
     *  control column group was decoded and replayed. */
    std::uint64_t blocksControlOnly = 0;
    /** Write events across both kinds of skipped block. */
    std::uint64_t writesSkipped = 0;
    /** Shards dispatched to workers (0 when replayed inline). */
    std::size_t shards = 0;
    /** Worker threads used (1 when replayed inline). */
    unsigned jobs = 0;
};

/**
 * Simulate every session of an in-memory trace in one pass. A sharded
 * run replays spans of `trace.events` in place.
 *
 * @param trace    The phase-1 event trace.
 * @param sessions Sessions enumerated from the same trace.
 * @param opts     Inline or sharded; see ReplayOptions.
 * @param stats    Optional out-param describing the run.
 * @return Counting variables for every session.
 */
SimResult simulate(const trace::Trace &trace,
                   const session::SessionSet &sessions,
                   const ReplayOptions &opts = {},
                   ReplayStats *stats = nullptr);

/**
 * The same simulation over a mapped v2 trace, block by block. A block
 * whose write summary touches no currently-monitored page (of any
 * session in `sessions`) — nor any page its own installs monitor —
 * never decodes its write columns: the installs and removes still
 * replay exactly, and the write count folds straight into the
 * counters, bit-identically to full replay (DESIGN.md §11). Most
 * profitable under a sparse SessionSet::subset(), where most blocks
 * miss the monitored set. Sharded runs dispatch runs of planned
 * blocks; workers decode them straight out of the mapping. Throws
 * trace::TraceError on a corrupt block.
 */
SimResult simulate(const trace::MappedTrace &trace,
                   const session::SessionSet &sessions,
                   const ReplayOptions &opts = {},
                   ReplayStats *stats = nullptr);

/**
 * Reference implementation: recompute the counters of a single session
 * by replaying the trace with only that session's monitors installed,
 * exactly as the paper's per-session simulator did. Quadratic if used
 * for every session; used by tests as an oracle for simulate() and by
 * examples that inspect one session.
 */
SessionCounters simulateOneSession(const trace::Trace &trace,
                                   const session::SessionSet &sessions,
                                   session::SessionId id);

} // namespace edb::sim

#endif // EDB_SIM_SIMULATOR_H
