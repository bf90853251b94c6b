#include "fleet/work_pool.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "obs/trace.h"

namespace rsafe::fleet {

FairSharePool::FairSharePool(std::size_t workers,
                             std::size_t tenant_inflight_cap)
    : tenant_inflight_cap_(tenant_inflight_cap)
{
    std::size_t n =
        workers != 0 ? workers : std::thread::hardware_concurrency();
    if (n == 0)
        n = 1;
    if (tenant_inflight_cap_ == 0)
        fatal("FairSharePool: tenant_inflight_cap must be >= 1");
    stats_.workers = n;
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        workers_.emplace_back([this, i] { worker_main(i); });
}

FairSharePool::~FairSharePool()
{
    discard();
    drain();
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (auto& worker : workers_)
        worker.join();
}

std::size_t
FairSharePool::register_tenant(std::string name)
{
    std::lock_guard<std::mutex> lock(mu_);
    Tenant tenant;
    tenant.stats.name = std::move(name);
    tenants_.push_back(std::move(tenant));
    return tenants_.size() - 1;
}

void
FairSharePool::submit(std::size_t tenant, Job job)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (tenant >= tenants_.size())
        fatal("FairSharePool: submit to unregistered tenant");
    Tenant& t = tenants_[tenant];
    ++t.stats.submitted;
    ++stats_.submitted;
    ++outstanding_;
    t.queued.push_back(std::move(job));
    // Over the cap the job waits for one of its tenant's running jobs.
    if (t.running + t.queued.size() <= tenant_inflight_cap_) {
        stats_.max_admitted = std::max(stats_.max_admitted, startable());
        work_cv_.notify_one();
    }
}

std::size_t
FairSharePool::startable() const
{
    std::size_t total = 0;
    for (const Tenant& t : tenants_)
        total += std::min(t.queued.size(),
                          tenant_inflight_cap_ - t.running);
    return total;
}

bool
FairSharePool::take(std::size_t* tenant, Job* job)
{
    const std::size_t n = tenants_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t id = (rr_ + i) % n;
        Tenant& t = tenants_[id];
        if (t.queued.empty() || t.running >= tenant_inflight_cap_)
            continue;
        *job = std::move(t.queued.front());
        t.queued.pop_front();
        ++t.running;
        *tenant = id;
        rr_ = (id + 1) % n;
        return true;
    }
    return false;
}

void
FairSharePool::worker_main(std::size_t index)
{
    if (obs::Tracer::instance().enabled()) {
        const std::string name = "fleet.worker" + std::to_string(index);
        obs::Tracer::instance().attach_thread(name.c_str());
    }
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        std::size_t tenant = 0;
        Job job;
        if (!take(&tenant, &job)) {
            if (stopping_)
                return;
            ++stats_.starved_waits;
            work_cv_.wait(lock,
                          [this] { return stopping_ || startable() > 0; });
            continue;
        }
        lock.unlock();
        job(index);
        job = nullptr;  // release the closure's captures unlocked
        lock.lock();
        Tenant& t = tenants_[tenant];
        --t.running;
        ++t.stats.executed;
        ++stats_.executed;
        --outstanding_;
        // The freed cap slot makes the tenant's next job startable; this
        // worker's next take() is the wakeup it needs.
        if (!t.queued.empty())
            stats_.max_admitted = std::max(stats_.max_admitted, startable());
        if (outstanding_ == 0)
            idle_cv_.notify_all();
    }
}

void
FairSharePool::discard()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (Tenant& t : tenants_) {
        const std::size_t dropped = t.queued.size();
        t.stats.discarded += dropped;
        stats_.discarded += dropped;
        outstanding_ -= dropped;
        t.queued.clear();
    }
    if (outstanding_ == 0)
        idle_cv_.notify_all();
}

void
FairSharePool::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

PoolStats
FairSharePool::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::vector<TenantPoolStats>
FairSharePool::tenant_stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TenantPoolStats> out;
    out.reserve(tenants_.size());
    for (const Tenant& t : tenants_)
        out.push_back(t.stats);
    return out;
}

}  // namespace rsafe::fleet
