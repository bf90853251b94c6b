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
 * mean N private pools oversubscribing the host. Scheduling is two
 * layers:
 *
 *  - Fair-share admission: each tenant has an in-flight cap; jobs over
 *    the cap park in the tenant's FIFO backlog and are admitted as that
 *    tenant's earlier jobs complete. Admitted jobs are handed to workers
 *    round-robin across tenants, so one tenant's alarm storm (16 ROP
 *    alarms at once) cannot occupy every worker while a benign tenant's
 *    single false positive waits — the storm is throttled to its cap and
 *    the benign alarm goes to the head of the next hand-off.
 *
 *  - Work stealing: a worker takes a small round-robin batch of admitted
 *    jobs into its own deque (owner pops the front), and a worker that
 *    finds the admission queues empty steals half of the largest
 *    sibling deque from the back. Steal/starvation counters are
 *    exported for the bench.
 *
 * Shutdown is two-mode: drain() waits for every submitted job; abandon()
 * discards everything not yet executing (per-tenant discard counts let
 * the fleet flag partial results) and waits only for the jobs already
 * running.
 */

namespace rsafe::fleet {

/** Pool configuration. */
struct PoolOptions {
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    std::size_t workers = 0;
    /** Max jobs of one tenant admitted (queued-to-run or running). */
    std::size_t tenant_inflight_cap = 2;
};

/** Pool-wide scheduling counters. */
struct PoolStats {
    std::uint64_t submitted = 0;
    std::uint64_t executed = 0;
    std::uint64_t discarded = 0;
    /** Batches handed from the admission queues to worker deques. */
    std::uint64_t global_takes = 0;
    /** Successful steal operations / jobs they moved. */
    std::uint64_t steals = 0;
    std::uint64_t stolen_jobs = 0;
    /** Times a worker went to sleep finding no runnable work. */
    std::uint64_t starved_waits = 0;
    /** High-water mark of admitted-but-not-yet-taken jobs. */
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
    /** High-water mark of jobs parked behind the in-flight cap. */
    std::size_t max_parked = 0;
};

/** The shared work-stealing worker pool. */
class WorkStealingPool {
  public:
    using Job = std::function<void()>;

    explicit WorkStealingPool(const PoolOptions& options = {});

    /** abandon()s outstanding work and joins the workers. */
    ~WorkStealingPool();

    /** Add a tenant; @return its id for submit(). Not thread-safe with
     *  concurrent submit()/register_tenant() calls. */
    std::size_t register_tenant(std::string name);

    /** Queue one job for @p tenant. Thread-safe, never blocks. */
    void submit(std::size_t tenant, Job job);

    /** Block until every submitted job has executed (or was discarded).
     *  Callers must have stopped submitting for this to terminate. */
    void drain();

    /**
     * Discard every job not yet picked up by a worker (parked, admitted,
     * and stolen-but-unstarted alike), then wait for the jobs already
     * executing. Discards are counted per tenant.
     */
    void abandon();

    PoolStats stats() const;
    std::vector<TenantPoolStats> tenant_stats() const;
    std::size_t worker_count() const { return workers_.size(); }

  private:
    /** A job bound to the tenant whose cap it occupies. */
    struct QueuedJob {
        std::size_t tenant = 0;
        Job fn;
    };

    struct Tenant {
        std::string name;
        std::deque<QueuedJob> parked;    ///< over-cap FIFO backlog
        std::deque<QueuedJob> admitted;  ///< runnable, awaiting a worker
        std::size_t inflight = 0;        ///< admitted + running jobs
        TenantPoolStats stats;
    };

    /** One worker's private deque: owner pops front, thieves take the
     *  back half. */
    struct WorkerDeque {
        std::mutex mu;
        std::deque<QueuedJob> jobs;
    };

    void worker_main(std::size_t index);

    /** Pop the front of worker @p w's own deque. */
    bool pop_local(std::size_t w, QueuedJob* out);

    /** Hand worker @p w a round-robin batch of admitted jobs; the first
     *  lands in @p out, the rest in its deque. */
    bool take_admitted(std::size_t w, QueuedJob* out);

    /** Steal half of the largest sibling deque into @p w's. */
    bool steal(std::size_t w, QueuedJob* out);

    /** Account one finished job and admit the tenant's next parked job. */
    void complete(const QueuedJob& job);

    /** Total admitted jobs across tenants. Requires mu_. */
    std::size_t admitted_total() const;

    PoolOptions options_;

    mutable std::mutex mu_;
    std::condition_variable work_cv_;  ///< workers: admitted work exists
    std::condition_variable idle_cv_;  ///< drain()/abandon(): outstanding==0
    std::vector<Tenant> tenants_;
    std::size_t rr_ = 0;               ///< round-robin hand-off cursor
    std::size_t outstanding_ = 0;      ///< submitted - executed - discarded
    bool stopping_ = false;
    PoolStats stats_;

    std::vector<std::unique_ptr<WorkerDeque>> deques_;
    std::vector<std::thread> workers_;
};

}  // namespace rsafe::fleet

#endif  // RSAFE_FLEET_WORK_POOL_H_
