/** @file ReplayFleet tests: a fleet tenant must be bit-identical to the
 *  same workload run through RnrSafeFramework alone (verdicts, state
 *  digests, counter snapshots — TB on and off), per-tenant metric
 *  namespaces must never alias, and both shutdown modes must wind a live
 *  fleet down without deadlocks or inconsistent bookkeeping. */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "core/framework.h"
#include "fleet/fleet.h"
#include "kernel/layout.h"
#include "obs/metrics.h"
#include "workloads/attack_mix.h"
#include "workloads/benchmarks.h"
#include "workloads/generator.h"

namespace rsafe {
namespace {

namespace k = rsafe::kernel;

core::VmFactory
benign_factory(const char* name, std::uint64_t iterations)
{
    auto profile = workloads::benchmark_profile(name);
    profile.iterations_per_task = iterations;
    return workloads::vm_factory(profile);
}

core::VmFactory
attack_factory()
{
    workloads::AttackMixOptions options;
    options.iterations_per_task = 120;
    return workloads::attack_mix(options).factory;
}

core::FrameworkConfig
streamed_config()
{
    core::FrameworkConfig config;
    config.pipeline = core::PipelineMode::kConcurrent;
    return config;
}

/** Fleet options with @p workers pool workers, everything else
 *  defaulted. */
fleet::FleetOptions
pool_options(std::size_t workers)
{
    fleet::FleetOptions options;
    options.workers = workers;
    return options;
}

/** Everything the fleet-vs-framework gates compare. */
struct Digest {
    hv::RunResult record_result{};
    rnr::ReplayOutcome cr_outcome{};
    std::size_t alarms_logged = 0;
    std::uint64_t underflows_resolved = 0;
    std::size_t alarm_replays = 0;
    bool attack = false;
    std::uint64_t rec_hash = 0;
    std::uint64_t cr_hash = 0;
    std::vector<std::uint8_t> log_bytes;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    // Per alarm, in alarm order.
    std::vector<std::size_t> ar_log_index;
    std::vector<int> ar_cause;
    std::vector<std::string> ar_report;
    std::vector<Cycles> ar_cycles;

    bool operator==(const Digest&) const = default;
};

Digest
digest(const core::FrameworkResult& result)
{
    Digest d;
    d.record_result = result.record_result;
    d.cr_outcome = result.cr_outcome;
    d.alarms_logged = result.alarms_logged;
    d.underflows_resolved = result.underflows_resolved;
    d.alarm_replays = result.ar_results.size();
    d.attack = result.alarms.attack_detected();
    d.rec_hash = result.recorded_vm->state_hash();
    d.cr_hash = result.cr_vm->state_hash();
    d.log_bytes = result.recorder->log().serialize();
    d.counters = result.pipeline_stats.snapshot();
    for (const auto& ar : result.ar_results) {
        d.ar_log_index.push_back(ar.log_index);
        d.ar_cause.push_back(static_cast<int>(ar.analysis.cause));
        d.ar_report.push_back(ar.analysis.report);
        d.ar_cycles.push_back(ar.analysis.analysis_cycles);
    }
    return d;
}

TEST(Fleet, FleetOfOneMatchesTheFramework)
{
    // One tenant over a three-worker pool is bit-identical to the
    // framework's own fleet of one (two workers, tenant "pipeline"): pool
    // width and tenant name change nothing the digest compares.
    const auto factory = attack_factory();

    core::RnrSafeFramework framework(factory, streamed_config());
    const Digest solo = digest(framework.run());
    ASSERT_TRUE(solo.attack);

    fleet::ReplayFleet one({{"solo", factory, streamed_config()}},
                           pool_options(3));
    auto result = one.run();
    ASSERT_EQ(result.tenants.size(), 1u);
    EXPECT_FALSE(result.tenants[0].partial);
    EXPECT_EQ(digest(result.tenants[0].result), solo);

    // Every alarm travelled the shared pool, none were discarded.
    EXPECT_EQ(result.pool.submitted, solo.ar_log_index.size());
    EXPECT_EQ(result.pool.executed, result.pool.submitted);
    EXPECT_EQ(result.pool.discarded, 0u);
}

TEST(Fleet, TenantsMatchTheirSoloRunsBitForBit)
{
    // Three concurrent tenants — an attack mix squeezed between two
    // benign Table 3 workloads — against three solo framework runs.
    const std::vector<fleet::FleetTenant> tenants = {
        {"mysql", benign_factory("mysql", 100), streamed_config()},
        {"attack", attack_factory(), streamed_config()},
        {"apache", benign_factory("apache", 300), streamed_config()},
    };

    std::vector<Digest> solo;
    for (const auto& tenant : tenants) {
        core::RnrSafeFramework framework(tenant.factory, tenant.config);
        solo.push_back(digest(framework.run()));
    }

    fleet::ReplayFleet fleet(tenants, pool_options(2));
    auto result = fleet.run();
    ASSERT_EQ(result.tenants.size(), tenants.size());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        EXPECT_EQ(result.tenants[i].name, tenants[i].name);
        EXPECT_FALSE(result.tenants[i].partial) << tenants[i].name;
        EXPECT_EQ(digest(result.tenants[i].result), solo[i])
            << tenants[i].name;
    }
    // Only the attack tenant fed the pool; sharing did not leak jobs
    // across tenants.
    ASSERT_EQ(result.tenant_pool.size(), 3u);
    EXPECT_EQ(result.tenant_pool[0].submitted, 0u);
    EXPECT_GT(result.tenant_pool[1].submitted, 0u);
    EXPECT_EQ(result.tenant_pool[2].submitted, 0u);
    EXPECT_EQ(result.pool.executed, result.pool.submitted);
}

TEST(Fleet, TbOnOffAgreesThroughTheFleet)
{
    // The TB on/off gate extended to the fleet path: interpreter-only
    // tenants must produce the same digests as TB-enabled ones.
    const auto factory = attack_factory();
    const auto interp = [factory]() {
        auto vm = factory();
        vm->cpu().set_tb_enabled(false);
        return vm;
    };
    fleet::ReplayFleet tb({{"t", factory, streamed_config()}},
                          pool_options(2));
    fleet::ReplayFleet no_tb({{"t", interp, streamed_config()}},
                             pool_options(2));
    auto tb_result = tb.run();
    auto no_tb_result = no_tb.run();
    EXPECT_EQ(digest(tb_result.tenants[0].result),
              digest(no_tb_result.tenants[0].result));
}

TEST(Fleet, TenantMetricNamespacesNeverAlias)
{
    fleet::ReplayFleet fleet(
        {
            {"attack", attack_factory(), streamed_config()},
            {"mysql", benign_factory("mysql", 100), streamed_config()},
        },
        pool_options(2));
    auto result = fleet.run();

    // Every per-tenant counter lands under its own prefix with exactly
    // the tenant's own value — the two series never blend.
    for (const auto& tenant : result.tenants) {
        const std::string prefix = "tenant." + tenant.name + ".";
        for (const auto& [name, value] :
             tenant.result.pipeline_stats.snapshot())
            EXPECT_EQ(result.metrics.value(prefix + name), value)
                << prefix + name;
    }
    const std::uint64_t attack_replays =
        result.metrics.value("tenant.attack.ar.replays");
    const std::uint64_t mysql_replays =
        result.metrics.value("tenant.mysql.ar.replays");
    EXPECT_GT(attack_replays, 0u);
    EXPECT_EQ(mysql_replays, 0u);
    EXPECT_NE(attack_replays, mysql_replays);

    // The verdict-latency histograms are per tenant too.
    const auto& hists = result.metrics.histograms();
    ASSERT_TRUE(hists.count("tenant.attack.ar.verdict_latency"));
    ASSERT_TRUE(hists.count("tenant.mysql.ar.verdict_latency"));
    EXPECT_GT(hists.at("tenant.attack.ar.verdict_latency").count(), 0u);
    EXPECT_EQ(hists.at("tenant.mysql.ar.verdict_latency").count(), 0u);

    // And the namespaces survive both exporters distinctly. (ar.replays
    // only exists where replays happened; record.instructions exists for
    // every tenant, with different per-tenant values.)
    obs::MetricsExporter exporter(result.metrics);
    const std::string json = exporter.to_json();
    EXPECT_NE(json.find("tenant.attack.ar.replays"), std::string::npos);
    EXPECT_EQ(json.find("tenant.mysql.ar.replays"), std::string::npos);
    EXPECT_NE(json.find("tenant.attack.record.instructions"),
              std::string::npos);
    EXPECT_NE(json.find("tenant.mysql.record.instructions"),
              std::string::npos);
    EXPECT_NE(result.metrics.value("tenant.attack.record.instructions"),
              result.metrics.value("tenant.mysql.record.instructions"));
    const std::string prom = exporter.to_prometheus();
    EXPECT_NE(prom.find("rsafe_tenant_attack_record_instructions"),
              std::string::npos);
    EXPECT_NE(prom.find("rsafe_tenant_mysql_record_instructions"),
              std::string::npos);
}

/** A workload far too long to finish: shutdown must cut it short. */
core::VmFactory
long_factory()
{
    auto profile = workloads::benchmark_profile("mysql");
    profile.iterations_per_task = 2'000'000;
    return workloads::vm_factory(profile);
}

TEST(Fleet, DrainShutdownStopsSessionsWithoutLosingJobs)
{
    fleet::ReplayFleet fleet(
        {
            {"a", long_factory(), streamed_config()},
            {"b", long_factory(), streamed_config()},
        },
        pool_options(2));

    fleet::FleetResult result;
    std::thread runner([&] { result = fleet.run(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    fleet.shutdown(fleet::ShutdownMode::kDrain);
    runner.join();  // must return promptly: no deadlock, no leaked thread

    ASSERT_EQ(result.tenants.size(), 2u);
    for (const auto& tenant : result.tenants) {
        EXPECT_TRUE(tenant.partial) << tenant.name;
        EXPECT_EQ(tenant.jobs_dropped, 0u) << tenant.name;
    }
    // Drain ran everything that was submitted.
    EXPECT_EQ(result.pool.discarded, 0u);
    EXPECT_EQ(result.pool.executed, result.pool.submitted);
}

TEST(Fleet, AbandonShutdownKeepsTheBooksConsistent)
{
    // A storm of alarm jobs over a single starved worker, abandoned
    // mid-flight: whatever the timing, submitted = executed + discarded,
    // per-tenant drop counts match the pool's, and dropped tenants are
    // flagged partial.
    workloads::AttackMixOptions options;
    options.iterations_per_task = 120;
    options.attackers = 6;
    const auto storm = workloads::attack_mix(options).factory;
    fleet::FleetOptions pool = pool_options(1);
    pool.tenant_inflight_cap = 1;

    fleet::ReplayFleet fleet(
        {
            {"storm", storm, streamed_config()},
            {"quiet", benign_factory("mysql", 100), streamed_config()},
        },
        pool);

    fleet::FleetResult result;
    std::thread runner([&] { result = fleet.run(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    fleet.shutdown(fleet::ShutdownMode::kAbandon);
    runner.join();

    EXPECT_EQ(result.pool.submitted,
              result.pool.executed + result.pool.discarded);
    ASSERT_EQ(result.tenant_pool.size(), 2u);
    for (std::size_t i = 0; i < result.tenants.size(); ++i) {
        const auto& tenant = result.tenants[i];
        EXPECT_EQ(tenant.jobs_dropped, result.tenant_pool[i].discarded)
            << tenant.name;
        if (tenant.jobs_dropped > 0) {
            EXPECT_TRUE(tenant.partial) << tenant.name;
        }
        // Completed verdicts are still finalized in alarm order.
        EXPECT_EQ(tenant.result.ar_results.size(),
                  result.tenant_pool[i].executed);
        for (std::size_t j = 1; j < tenant.result.ar_results.size(); ++j)
            EXPECT_LT(tenant.result.ar_results[j - 1].log_index,
                      tenant.result.ar_results[j].log_index);
    }
}

TEST(Fleet, RejectsBadTenantLists)
{
    const auto build = [](std::vector<fleet::FleetTenant> tenants) {
        fleet::ReplayFleet fleet(std::move(tenants));
    };
    EXPECT_THROW(build({}), FatalError);

    std::vector<fleet::FleetTenant> dup;
    dup.push_back({"dup", benign_factory("mysql", 10), {}});
    dup.push_back({"dup", benign_factory("mysql", 10), {}});
    EXPECT_THROW(build(std::move(dup)), FatalError);

    std::vector<fleet::FleetTenant> unnamed;
    unnamed.push_back({"", benign_factory("mysql", 10), {}});
    EXPECT_THROW(build(std::move(unnamed)), FatalError);
}

}  // namespace
}  // namespace rsafe
