/**
 * @file
 * The experiment driver: turns one trace into the per-program data
 * behind Tables 1, 3, 4 and Figures 7–9.
 *
 * "For each benchmark program, we discovered all instances of the
 * monitor session types described in Section 5. ... Monitor sessions
 * that had no monitor hits were discarded under the assumption that
 * they are unlikely candidates during debugging." (Section 8.)
 */

#ifndef EDB_REPORT_STUDY_H
#define EDB_REPORT_STUDY_H

#include <array>
#include <cstdint>
#include <vector>

#include "model/advisor.h"
#include "model/models.h"
#include "session/session.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "util/stats.h"

namespace edb::report {

/** Mean counting-variable data over a program's sessions (Table 3). */
struct MeanCounters
{
    double installs = 0;
    double removes = 0;
    double hits = 0;
    double misses = 0;
    /** Per vmPageSizes slot. */
    std::array<double, sim::vmPageSizeCount> vmProtects{};
    std::array<double, sim::vmPageSizeCount> vmUnprotects{};
    std::array<double, sim::vmPageSizeCount> vmActivePageMisses{};
};

/**
 * Everything the tables and figures need for one benchmark program.
 */
struct ProgramStudy
{
    std::string program;
    std::uint64_t totalWrites = 0;
    /** Base execution time used as the relative-overhead denominator. */
    double baseUs = 0;

    session::SessionSet sessions;
    sim::SimResult sim;

    /** Sessions retained for Table 4 (at least one monitor hit). */
    std::vector<session::SessionId> activeSessions;
    /** Retained-session count per session type (Table 1). */
    std::array<std::size_t, session::sessionTypeCount> activeByType{};

    /** Table 3: means over the retained sessions. */
    MeanCounters meanCounters;

    /**
     * Per strategy (model::allStrategies order): relative overhead of
     * each retained session, parallel to activeSessions.
     */
    std::array<std::vector<double>, 5> relativeOverheads;
    /** Table 4 statistics of each strategy's population. */
    std::array<SummaryStats, 5> overheadStats;

    /** @name Adaptive strategy selection (DESIGN.md section 8) */
    /// @{
    /** Session shapes, parallel to activeSessions. */
    std::vector<model::SessionShape> shapes;
    /** Advisor recommendations, parallel to activeSessions. */
    std::vector<model::Advice> advice;
    /**
     * Relative overhead of the advisor's pick per retained session —
     * what an adaptive WMS that chose the fastest feasible backend
     * would cost. Parallel to activeSessions.
     */
    std::vector<double> adaptiveRelativeOverheads;
    /** Statistics of the adaptive population. */
    SummaryStats adaptiveStats;
    /** Retained sessions picking each strategy (allStrategies order). */
    std::array<std::size_t, 5> pickCounts{};
    /** Retained sessions where NativeHardware is shape-feasible. */
    std::size_t hwFeasibleSessions = 0;
    /// @}
};

/**
 * Run the full phase-2 analysis of one trace.
 *
 * @param trace        The phase-1 trace.
 * @param timing       Timing profile for the analytical models.
 * @param base_us      Base execution time in microseconds; pass 0 to
 *                     derive it from the trace's instruction estimate
 *                     and the profile's execution rate.
 * @param jobs         Simulation worker threads (sim::ReplayOptions):
 *                     1 replays inline, more shard (bit-identical
 *                     results), 0 picks a default from EDB_JOBS / the
 *                     hardware.
 * @throws trace::TraceError when base_us is 0 and the trace header
 *                     carries no instruction estimate.
 */
ProgramStudy studyTrace(const trace::Trace &trace,
                        const model::TimingProfile &timing,
                        double base_us = 0, unsigned jobs = 1);

} // namespace edb::report

#endif // EDB_REPORT_STUDY_H
