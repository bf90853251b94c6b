/** @file Unit tests of the fleet's fair-share alarm-replay pool: the
 *  per-tenant in-flight cap, round-robin service across tenants, the
 *  submitted == executed + discarded books, destructor discard, and a
 *  race of discard() against a drain() that is already waiting. */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "fleet/work_pool.h"

namespace rsafe::fleet {
namespace {

using namespace std::chrono_literals;

/** A job that blocks its worker until open() is called. */
class Gate {
  public:
    FairSharePool::Job job()
    {
        return [this] {
            started_.set_value();
            opened_.wait();
        };
    }
    void wait_started() { started_.get_future().wait(); }
    void open() { open_.set_value(); }

  private:
    std::promise<void> started_;
    std::promise<void> open_;
    std::shared_future<void> opened_ = open_.get_future().share();
};

TEST(FairSharePool, TenantNeverRunsMoreThanItsCap)
{
    constexpr std::size_t kCap = 2;
    std::array<std::atomic<int>, 2> running{};
    std::array<std::atomic<int>, 2> peak{};
    {
        FairSharePool pool(4, kCap);
        const std::size_t a = pool.register_tenant("a");
        const std::size_t b = pool.register_tenant("b");
        for (int i = 0; i < 12; ++i) {
            for (const std::size_t t : {a, b}) {
                pool.submit(t, [&running, &peak, t] {
                    const int now = ++running[t];
                    int seen = peak[t].load();
                    while (now > seen &&
                           !peak[t].compare_exchange_weak(seen, now)) {
                    }
                    std::this_thread::sleep_for(1ms);
                    --running[t];
                });
            }
        }
        pool.drain();
    }
    EXPECT_LE(peak[0].load(), static_cast<int>(kCap));
    EXPECT_LE(peak[1].load(), static_cast<int>(kCap));
    EXPECT_GE(peak[0].load(), 1);
    EXPECT_GE(peak[1].load(), 1);
}

TEST(FairSharePool, SecondTenantRunsBeforeTheFirstBacklogDrains)
{
    // One worker, tenant "a" submits a backlog first, "b" one job after
    // it: round-robin serves b's job right after a's running one.
    FairSharePool pool(1, 2);
    const std::size_t a = pool.register_tenant("a");
    const std::size_t b = pool.register_tenant("b");
    std::mutex mu;
    std::vector<std::string> order;
    const auto note = [&](std::string name) {
        return [&mu, &order, name] {
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(name);
        };
    };
    Gate gate;
    pool.submit(a, gate.job());
    gate.wait_started();
    for (int i = 1; i <= 4; ++i)
        pool.submit(a, note("a" + std::to_string(i)));
    pool.submit(b, note("b0"));
    gate.open();
    pool.drain();
    const std::vector<std::string> want = {"b0", "a1", "a2", "a3", "a4"};
    EXPECT_EQ(order, want);
}

TEST(FairSharePool, DrainRunsEverything)
{
    std::atomic<int> ran{0};
    FairSharePool pool(3, 2);
    const std::size_t a = pool.register_tenant("a");
    const std::size_t b = pool.register_tenant("b");
    for (int i = 0; i < 50; ++i)
        pool.submit(i % 3 == 0 ? b : a, [&ran] { ++ran; });
    pool.drain();
    EXPECT_EQ(ran.load(), 50);
    const PoolStats stats = pool.stats();
    EXPECT_EQ(stats.submitted, 50u);
    EXPECT_EQ(stats.executed, 50u);
    EXPECT_EQ(stats.discarded, 0u);
    EXPECT_EQ(stats.steals, 0u);
    EXPECT_EQ(stats.workers, 3u);
    const auto tenants = pool.tenant_stats();
    ASSERT_EQ(tenants.size(), 2u);
    EXPECT_EQ(tenants[0].name, "a");
    EXPECT_EQ(tenants[0].executed, 33u);
    EXPECT_EQ(tenants[1].name, "b");
    EXPECT_EQ(tenants[1].executed, 17u);
}

TEST(FairSharePool, DiscardKeepsTheBooks)
{
    // One worker, cap 1: a's first job runs behind a gate, everything
    // else is queued when discard() drops it.
    std::atomic<int> ran{0};
    FairSharePool pool(1, 1);
    const std::size_t a = pool.register_tenant("a");
    const std::size_t b = pool.register_tenant("b");
    Gate gate;
    pool.submit(a, gate.job());
    gate.wait_started();
    for (int i = 0; i < 5; ++i)
        pool.submit(a, [&ran] { ++ran; });
    for (int i = 0; i < 3; ++i)
        pool.submit(b, [&ran] { ++ran; });
    pool.discard();  // never blocks, though a job is still running
    gate.open();
    pool.drain();
    EXPECT_EQ(ran.load(), 0);

    const PoolStats stats = pool.stats();
    EXPECT_EQ(stats.submitted, 9u);
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.discarded, 8u);
    const auto tenants = pool.tenant_stats();
    ASSERT_EQ(tenants.size(), 2u);
    EXPECT_EQ(tenants[0].executed, 1u);
    EXPECT_EQ(tenants[0].discarded, 5u);
    EXPECT_EQ(tenants[1].executed, 0u);
    EXPECT_EQ(tenants[1].discarded, 3u);
    for (const TenantPoolStats& t : tenants)
        EXPECT_EQ(t.submitted, t.executed + t.discarded) << t.name;

    // The pool stays usable after a discard.
    pool.submit(b, [&ran] { ++ran; });
    pool.drain();
    EXPECT_EQ(ran.load(), 1);
}

TEST(FairSharePool, DestructorDropsQueuedJobsWithoutRunningThem)
{
    // The running job waits for the queued jobs' closures to be
    // destroyed, which only a discard can do before they run: the test
    // is deterministic and hangs (failing by ctest timeout) if the
    // destructor ran them instead.
    struct Opener {
        std::promise<void> done;
        ~Opener() { done.set_value(); }
    };
    std::atomic<int> ran{0};
    {
        auto opener = std::make_shared<Opener>();
        std::shared_future<void> dropped =
            opener->done.get_future().share();
        FairSharePool pool(1, 1);
        const std::size_t a = pool.register_tenant("a");
        std::promise<void> started;
        pool.submit(a, [&started, dropped] {
            started.set_value();
            dropped.wait();
        });
        started.get_future().wait();
        for (int i = 0; i < 5; ++i)
            pool.submit(a, [&ran, opener] { ++ran; });
        opener.reset();
    }
    EXPECT_EQ(ran.load(), 0);
}

TEST(FairSharePool, SubmitToAnUnregisteredTenantThrows)
{
    FairSharePool pool(1, 1);
    EXPECT_THROW(pool.submit(0, [] {}), FatalError);
    pool.register_tenant("a");
    EXPECT_THROW(pool.submit(1, [] {}), FatalError);
    EXPECT_THROW({ FairSharePool bad(1, 0); }, FatalError);
}

TEST(FairSharePool, MaxAdmittedCountsStartableJobs)
{
    // One worker, cap 2. With a's gated job running, a second job of a
    // is startable (one cap slot free), a third is not; b's job is.
    // When the gated job finishes, both of a's queued jobs are.
    FairSharePool pool(1, 2);
    const std::size_t a = pool.register_tenant("a");
    const std::size_t b = pool.register_tenant("b");
    Gate gate;
    pool.submit(a, gate.job());
    gate.wait_started();
    pool.submit(a, [] {});
    pool.submit(a, [] {});
    pool.submit(b, [] {});
    EXPECT_EQ(pool.stats().max_admitted, 2u);
    gate.open();
    pool.drain();
    EXPECT_EQ(pool.stats().max_admitted, 3u);
}

TEST(FairSharePool, DiscardWakesADrainAlreadyWaiting)
{
    // One worker, cap 1: each iteration runs a job behind a gate with
    // eight queued behind it, parks drain() on another thread, then
    // opens the gate and discards — racing the worker as it finishes
    // the gated job and takes the next. The discard lands 0-175 us
    // after the gate opens, sweeping that window. Whichever of the two
    // empties the books must wake drain(). A missed wakeup fails here by
    // name (and a fresh job unsticks the waiter) instead of hanging.
    FairSharePool pool(1, 1);
    const std::size_t a = pool.register_tenant("a");
    constexpr int kIterations = 200;
    for (int iter = 0; iter < kIterations; ++iter) {
        Gate gate;
        pool.submit(a, gate.job());
        gate.wait_started();
        for (int i = 0; i < 8; ++i)
            pool.submit(a, [] {});
        auto waiter = std::async(std::launch::async, [&pool] {
            pool.drain();
        });
        std::this_thread::sleep_for(100us);  // let drain() block
        gate.open();
        std::this_thread::sleep_for(iter % 8 * 25us);
        pool.discard();
        const bool woke =
            waiter.wait_for(10s) == std::future_status::ready;
        if (!woke)
            pool.submit(a, [] {});  // its completion unsticks drain()
        waiter.get();
        ASSERT_TRUE(woke) << "drain() missed its wakeup on iteration "
                          << iter;
    }
    const PoolStats stats = pool.stats();
    EXPECT_EQ(stats.submitted, stats.executed + stats.discarded);
    EXPECT_GE(stats.executed, static_cast<std::uint64_t>(kIterations));
}

}  // namespace
}  // namespace rsafe::fleet
