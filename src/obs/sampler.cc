/**
 * @file
 * Sampler implementation: the tick thread, per-series ring buffers
 * and counter-rate derivation.
 */

#include "obs/sampler.h"

#if EDB_OBS_ENABLED

#include <chrono>

namespace edb::obs {

Sampler::Sampler(SamplerOptions options) : options_(options)
{
    if (options_.ringCapacity < 2)
        options_.ringCapacity = 2;
    if (options_.intervalMs == 0)
        options_.intervalMs = 1000;
}

Sampler::~Sampler()
{
    stop();
}

void
Sampler::start()
{
    std::lock_guard<std::mutex> lk(wake_mu_);
    if (running_)
        return;
    stop_requested_ = false;
    running_ = true;
    thread_ = std::thread([this] { threadLoop(); });
}

void
Sampler::stop()
{
    {
        std::lock_guard<std::mutex> lk(wake_mu_);
        if (!running_)
            return;
        stop_requested_ = true;
    }
    wake_cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    std::lock_guard<std::mutex> lk(wake_mu_);
    running_ = false;
}

void
Sampler::threadLoop()
{
    prepareCurrentThread();
    for (;;) {
        sampleOnce();
        std::unique_lock<std::mutex> lk(wake_mu_);
        wake_cv_.wait_for(
            lk, std::chrono::milliseconds(options_.intervalMs),
            [this] { return stop_requested_; });
        if (stop_requested_)
            return;
    }
}

void
Sampler::sampleOnce(std::uint64_t now_ns)
{
    if (now_ns == 0)
        now_ns = monotonicNs();
    const Snapshot snap = takeSnapshot();

    std::lock_guard<std::mutex> lk(mu_);
    for (const ScalarValue &s : snap.series) {
        Ring &ring = rings_[detail::seriesKey(s.name, s.labels)];
        ring.push_back({now_ns, s.value});
        if (ring.size() > options_.ringCapacity)
            ring.pop_front();
    }
    ++samples_taken_;
}

Snapshot
Sampler::makeReport() const
{
    Snapshot report = takeSnapshot();
    report.intervalMs = options_.intervalMs;
    std::lock_guard<std::mutex> lk(mu_);
    report.samples = samples_taken_;
    for (ScalarValue &s : report.series) {
        const auto it = rings_.find(detail::seriesKey(s.name, s.labels));
        if (it == rings_.end())
            continue;
        const Ring &ring = it->second;
        const Point &last = ring.back();
        s.value = last.value;
        if (s.kind == Kind::Counter && ring.size() >= 2) {
            const Point &oldest = ring.front();
            const std::uint64_t dt = last.t_ns - oldest.t_ns;
            if (dt > 0 && last.value >= oldest.value) {
                s.rate = (double)(last.value - oldest.value) * 1e9 /
                         (double)dt;
                s.hasRate = true;
            }
        }
    }
    return report;
}

std::uint64_t
Sampler::samples() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return samples_taken_;
}

} // namespace edb::obs

#endif // EDB_OBS_ENABLED
