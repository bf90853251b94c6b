#ifndef RSAFE_OBS_HEALTH_PROBE_H_
#define RSAFE_OBS_HEALTH_PROBE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

/**
 * @file
 * The per-tenant live-signal probe the health monitor samples.
 *
 * Most pipeline telemetry is read after join (per-thread registries
 * merged once the run is over), which is exactly what a *live* monitor
 * cannot use: replay lag is mutated on the CR thread, checkpoint-store
 * occupancy is CR-thread-only, and verdict completions land on whichever
 * pool worker claimed the job. The probe is the narrow, always-safe
 * window into that state: a handful of relaxed atomics the producing
 * threads store into on paths they already execute, and the monitor
 * thread loads on its sampling cadence.
 *
 * Relaxed ordering is deliberate — every field is an independent gauge
 * reading, never a synchronization edge, so a torn *set* of fields (lag
 * from this tick, queue depth from the last) is fine and the hot-path
 * cost is one uncontended store. Nothing here feeds determinism-gated
 * counters: the probe exists so the health plane can watch the pipeline
 * without perturbing it.
 */

namespace rsafe::obs {

/**
 * Geometry of every verdict-latency histogram (ArStage's
 * `ar.verdict_latency` and the monitor's per-tenant p99): one alarm
 * replay costs millions of cycles, so a wide range with coarse buckets
 * keeps the percentiles meaningful without a huge table.
 */
inline constexpr std::uint64_t kVerdictLatencyHistMax = 64ull << 20;
inline constexpr std::size_t kVerdictLatencyHistBuckets = 64;

/**
 * Geometry of the `ar.verdict_host_us` histogram: the host time from the
 * CR queueing an alarm to its verdict, in µs. 512 µs buckets up to
 * 65 ms; a later verdict lands in the overflow bucket.
 */
inline constexpr std::uint64_t kVerdictHostUsHistMax = 64ull << 10;
inline constexpr std::size_t kVerdictHostUsHistBuckets = 128;

/** Live signals one monitored session exports (all relaxed atomics). */
struct HealthProbe {
    /** Instructions the CR trails the recorder (Replayer::sample_lag). */
    std::atomic<std::uint64_t> replay_lag{0};

    /** Checkpoint-store occupancy, refreshed after every take/recycle. @{ */
    std::atomic<std::uint64_t> ckpt_live_bytes{0};
    std::atomic<std::uint64_t> ckpt_budget_bytes{0};
    /** @} */

    /** Alarm jobs the CR queued for alarm replay (cumulative). */
    std::atomic<std::uint64_t> alarms_queued{0};

    /** Alarm verdicts completed by AR workers (cumulative). */
    std::atomic<std::uint64_t> verdicts_done{0};

    /**
     * Largest AR analysis latency (sim cycles) observed since the
     * monitor last drained this field (exchange(0) per sampling tick);
     * workers publish with fetch-max.
     */
    std::atomic<std::uint64_t> verdict_cycles_peak{0};

    /** Worker-side publish: fold @p cycles into the per-tick peak. */
    void note_verdict(std::uint64_t cycles)
    {
        verdicts_done.fetch_add(1, std::memory_order_relaxed);
        std::uint64_t seen =
            verdict_cycles_peak.load(std::memory_order_relaxed);
        while (cycles > seen &&
               !verdict_cycles_peak.compare_exchange_weak(
                   seen, cycles, std::memory_order_relaxed))
            ;
    }

    /** Alarm jobs queued but not yet decided (monitor-side view). */
    std::uint64_t queue_depth() const
    {
        const std::uint64_t q = alarms_queued.load(std::memory_order_relaxed);
        const std::uint64_t d = verdicts_done.load(std::memory_order_relaxed);
        return q > d ? q - d : 0;
    }
};

}  // namespace rsafe::obs

#endif  // RSAFE_OBS_HEALTH_PROBE_H_
