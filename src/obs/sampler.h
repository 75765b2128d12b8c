/**
 * @file
 * Time-series collection over the obs registry (DESIGN.md §10.5).
 *
 * A Sampler takes periodic snapshots of every counter and gauge —
 * label-less and labeled alike — into fixed-size per-series ring
 * buffers of {t, value} points, and derives per-second rates for
 * counters over the ring window. The daemon runs one Sampler on a
 * configurable interval and serves its report through the METRICS
 * protocol op; `edb-trace top` renders the same report client-side.
 *
 * Sampling cost is one snapshot merge per tick — microseconds of work
 * against second-scale intervals, and entirely off the request path
 * (the sampler owns its thread and its own mutex; instruments stay
 * lock-free relaxed atomics).
 *
 * Histograms are not ringed: they are already cumulative, so a
 * report carries the live buckets and quantiles are computed from
 * them at export time.
 *
 * Under EDB_OBS=OFF the Sampler is an inert shell and every report
 * is empty — the daemon still answers METRICS with a valid (empty)
 * exposition.
 */

#ifndef EDB_OBS_SAMPLER_H
#define EDB_OBS_SAMPLER_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "obs/obs.h"

namespace edb::obs {

struct SamplerOptions
{
    /** Tick period of the sampling thread started by start(). */
    std::uint64_t intervalMs = 1000;
    /** {t, value} points retained per series; the rate window is
     *  the ring span, so capacity * interval is the averaging
     *  horizon (default ~2 minutes at 1s ticks). */
    std::size_t ringCapacity = 128;
};

#if EDB_OBS_ENABLED

class Sampler
{
  public:
    explicit Sampler(SamplerOptions options = {});

    /** stop()s the thread if running. */
    ~Sampler();

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /** Spawn the tick thread (idempotent). */
    void start();

    /** Join the tick thread (idempotent; the destructor calls it). */
    void stop();

    /**
     * Take one sample now. The tick thread calls this; tests call it
     * directly with an injected monotonic timestamp (`now_ns` != 0)
     * to pin rate derivation deterministically.
     */
    void sampleOnce(std::uint64_t now_ns = 0);

    /**
     * One fresh snapshot, stamped with the sampler's interval and
     * tick count. A sampled counter or gauge reports its value as of
     * the last tick, and a counter with two points or more its rate
     * over the ring window; a series born since the last tick carries
     * its live value and no rate.
     */
    Snapshot makeReport() const;

    std::uint64_t samples() const;

  private:
    struct Point
    {
        std::uint64_t t_ns = 0;
        std::int64_t value = 0;
    };
    /** A series' last ringCapacity points, oldest first. */
    using Ring = std::deque<Point>;

    void threadLoop();

    SamplerOptions options_;
    mutable std::mutex mu_;
    std::map<std::string, Ring> rings_; ///< by detail::seriesKey()
    std::uint64_t samples_taken_ = 0;
    std::thread thread_;
    std::mutex wake_mu_;
    std::condition_variable wake_cv_;
    bool stop_requested_ = false;
    bool running_ = false;
};

#else // !EDB_OBS_ENABLED

class Sampler
{
  public:
    explicit Sampler(SamplerOptions = {}) {}
    void start() {}
    void stop() {}
    void sampleOnce(std::uint64_t = 0) {}
    Snapshot makeReport() const { return {}; }
    std::uint64_t samples() const { return 0; }
};

#endif // EDB_OBS_ENABLED

} // namespace edb::obs

#endif // EDB_OBS_SAMPLER_H
