#ifndef RSAFE_FLEET_WORK_POOL_H_
#define RSAFE_FLEET_WORK_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

/**
 * @file
 * The fleet's shared alarm-replay worker pool.
 *
 * One pool serves every tenant of a ReplayFleet, sized once (default:
 * hardware_concurrency) instead of per pipeline — N tenants no longer
 * mean N private pools oversubscribing the host. Alarm replays are
 * independent jobs, so scheduling is one fair-share FIFO under one lock:
 * each tenant has a FIFO of queued jobs and a count of running ones, and
 * an idle worker takes the oldest job of the next tenant, round-robin,
 * that is below its in-flight cap. One tenant's alarm storm (16 ROP
 * alarms at once) therefore never holds more than its cap of workers,
 * and a benign tenant's single false positive is next in line.
 *
 * Shutdown: discard() drops every queued job (counted per tenant, so the
 * fleet can flag partial results) and never blocks; drain() is the only
 * wait. Every path that empties the books — a job finishing or a
 * discard — wakes drain().
 */

namespace rsafe::fleet {

/** Pool-wide scheduling counters. */
struct PoolStats {
    std::uint64_t submitted = 0;
    std::uint64_t executed = 0;
    std::uint64_t discarded = 0;
    /** Always 0: the pool has no stealing. Kept for the benchmark's
     *  fleet.pool.steals series. */
    std::uint64_t steals = 0;
    /** Times a worker went to sleep finding no runnable work. */
    std::uint64_t starved_waits = 0;
    /** High-water mark of jobs a worker could start but has not yet:
     *  the sum over tenants of min(queued, cap - running). */
    std::size_t max_admitted = 0;
    /** Actual worker-thread count. */
    std::size_t workers = 0;
};

/** Per-tenant scheduling counters. */
struct TenantPoolStats {
    std::string name;
    std::uint64_t submitted = 0;
    std::uint64_t executed = 0;
    std::uint64_t discarded = 0;
};

/** The shared fair-share worker pool. */
class FairSharePool {
  public:
    using Job = std::function<void()>;

    /**
     * @param workers              worker threads; 0 =
     *                             std::thread::hardware_concurrency().
     * @param tenant_inflight_cap  max jobs of one tenant running at once
     *                             (>= 1).
     */
    FairSharePool(std::size_t workers, std::size_t tenant_inflight_cap);

    /** discard()s queued jobs, drain()s the running ones, and joins the
     *  workers. */
    ~FairSharePool();

    FairSharePool(const FairSharePool&) = delete;
    FairSharePool& operator=(const FairSharePool&) = delete;

    /** Add a tenant; @return its id for submit(). */
    std::size_t register_tenant(std::string name);

    /** Queue one job for @p tenant. Thread-safe, never blocks. The job
     *  must not throw: it runs on a worker thread with no handler. */
    void submit(std::size_t tenant, Job job);

    /** Drop every queued job, counting it discarded. Never blocks. */
    void discard();

    /** Block until every submitted job has executed or been discarded.
     *  Callers must have stopped submitting for this to terminate. */
    void drain();

    PoolStats stats() const;
    std::vector<TenantPoolStats> tenant_stats() const;

  private:
    struct Tenant {
        std::deque<Job> queued;
        std::size_t running = 0;
        TenantPoolStats stats;
    };

    void worker_main(std::size_t index);

    /** Pop the oldest job of the next tenant, round-robin, below its
     *  cap. Requires mu_. */
    bool take(std::size_t* tenant, Job* job);

    /** Jobs a worker could start now. Requires mu_. */
    std::size_t startable() const;

    const std::size_t tenant_inflight_cap_;

    mutable std::mutex mu_;
    std::condition_variable work_cv_;  ///< workers: a job is startable
    std::condition_variable idle_cv_;  ///< drain(): outstanding_ == 0
    std::vector<Tenant> tenants_;
    std::size_t rr_ = 0;           ///< next tenant to take from
    std::size_t outstanding_ = 0;  ///< submitted - executed - discarded
    bool stopping_ = false;
    PoolStats stats_;

    std::vector<std::thread> workers_;
};

}  // namespace rsafe::fleet

#endif  // RSAFE_FLEET_WORK_POOL_H_
