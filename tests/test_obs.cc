/** @file Observability subsystem tests: tracer + Chrome JSON export,
 *  flow correlation of alarms to AR workers, tracing on/off A/B,
 *  metrics export, forensic-report wire roundtrips, and the
 *  golden attack recording's where/who/what forensics. */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/framework.h"
#include "obs/forensic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads/attack_mix.h"

#ifndef RSAFE_CORPUS_DIR
#error "RSAFE_CORPUS_DIR must point at tests/corpus (set by CMake)"
#endif

namespace rsafe {
namespace {

/** Enable tracing for one test body; always restores the off state. */
class ScopedTracing {
  public:
    ScopedTracing()
    {
        obs::Tracer::instance().set_enabled(true);
        obs::Tracer::instance().begin_session();
    }
    ~ScopedTracing() { obs::Tracer::instance().set_enabled(false); }
};

core::FrameworkResult
run_attack_pipeline(core::PipelineMode mode, std::size_t workers)
{
    const auto mix = workloads::attack_mix();
    core::FrameworkConfig config;
    config.pipeline = mode;
    config.ar_workers = workers;
    core::RnrSafeFramework framework(mix.factory, config);
    return framework.run();
}

TEST(Tracer, SpanNestingStitchesBalancedAndDeterministic)
{
    ScopedTracing tracing;
    auto& tracer = obs::Tracer::instance();
    tracer.attach_thread("test-main");
    {
        obs::ScopedSpan outer("outer", "test");
        obs::ScopedSpan inner("inner", "test");
        tracer.instant("marker", "test", "value", 42);
        tracer.counter("gauge", "test", 7);
    }
    EXPECT_EQ(tracer.event_count(), 6u);
    EXPECT_EQ(tracer.dropped(), 0u);

    const std::string json = tracer.export_chrome_json();
    std::string error;
    EXPECT_TRUE(obs::validate_trace_json(json, &error)) << error;
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"test-main\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    // The stitch is a pure function of the captured buffers.
    EXPECT_EQ(json, tracer.export_chrome_json());
}

TEST(Tracer, BufferSpillsToCounterInsteadOfAllocating)
{
    obs::TraceBuffer buffer("tiny", 8);
    obs::TraceEvent event;
    event.name = "e";
    event.category = "test";
    for (int i = 0; i < 20; ++i)
        buffer.emit(event);
    // The hot path never grows the buffer: overflow is counted, not kept.
    EXPECT_EQ(buffer.size(), 8u);
    EXPECT_EQ(buffer.dropped(), 12u);
}

TEST(Tracer, UnbalancedSpanIsRejectedByTheValidator)
{
    ScopedTracing tracing;
    auto& tracer = obs::Tracer::instance();
    tracer.attach_thread("test-main");
    tracer.span_begin("dangling", "test");
    std::string error;
    EXPECT_FALSE(
        obs::validate_trace_json(tracer.export_chrome_json(), &error));
    EXPECT_NE(error.find("unclosed"), std::string::npos);
    tracer.span_end("dangling", "test");  // rebalance for later tests
}

TEST(Tracer, FlowLinksEveryAlarmToItsArWorker)
{
    ScopedTracing tracing;
    auto result =
        run_attack_pipeline(core::PipelineMode::kConcurrent, 2);
    ASSERT_TRUE(result.alarms.attack_detected());
    ASSERT_FALSE(result.ar_results.empty());

    auto& tracer = obs::Tracer::instance();
    const std::string json = tracer.export_chrome_json();
    std::string error;
    ASSERT_TRUE(obs::validate_trace_json(json, &error)) << error;

    // Every analyzed alarm is correlated by a flow whose id is the
    // alarm's log index: a start ("s") where the CR queued it and a
    // finish ("f") inside the AR worker's analysis span.
    for (const auto& ar : result.ar_results) {
        const std::string id = std::to_string(ar.log_index);
        EXPECT_NE(json.find("\"ph\":\"s\",\"pid\":1"), std::string::npos);
        EXPECT_NE(json.find("\"id\":" + id), std::string::npos)
            << "no flow for alarm at log index " << id;
    }
    // Both halves of the pipeline contributed spans.
    EXPECT_NE(json.find("\"cr.run\""), std::string::npos);
    EXPECT_NE(json.find("\"ar.analyze\""), std::string::npos);
    EXPECT_NE(json.find("\"record.run\""), std::string::npos);
}

TEST(Tracer, NoTraceKillSwitchPreservesVerdictsAndSilencesEvents)
{
    // Arm A: traced run.
    core::FrameworkResult traced;
    {
        ScopedTracing tracing;
        traced = run_attack_pipeline(core::PipelineMode::kConcurrent, 2);
        EXPECT_GT(obs::Tracer::instance().event_count(), 0u);
    }

    // Arm B: tracing switched off.
    auto& tracer = obs::Tracer::instance();
    tracer.set_enabled(false);
    EXPECT_FALSE(tracer.enabled());
    tracer.begin_session();
    auto untraced = run_attack_pipeline(core::PipelineMode::kConcurrent, 2);
    EXPECT_EQ(tracer.event_count(), 0u);

    // Identical pipeline outcomes either way: tracing observes, never
    // participates.
    EXPECT_EQ(traced.alarms_logged, untraced.alarms_logged);
    ASSERT_EQ(traced.ar_results.size(), untraced.ar_results.size());
    for (std::size_t i = 0; i < traced.ar_results.size(); ++i) {
        EXPECT_EQ(traced.ar_results[i].analysis.cause,
                  untraced.ar_results[i].analysis.cause);
        EXPECT_EQ(traced.ar_results[i].analysis.report,
                  untraced.ar_results[i].analysis.report);
    }
    EXPECT_EQ(traced.recorded_vm->state_hash(),
              untraced.recorded_vm->state_hash());
    EXPECT_EQ(traced.cr_vm->state_hash(), untraced.cr_vm->state_hash());
    EXPECT_EQ(traced.pipeline_stats.snapshot(),
              untraced.pipeline_stats.snapshot());
}

TEST(Metrics, ExportsJsonAndPrometheus)
{
    stats::StatRegistry reg;
    reg.counter("ar.replays").inc(3);
    auto& hist = reg.histogram("ar.lat", 100, 4);
    for (std::uint64_t v : {10u, 20u, 30u, 90u})
        hist.sample(v);
    reg.gauge("cr.replay_lag").set(1000, 77);

    const obs::MetricsExporter exporter(reg);
    const std::string json = exporter.to_json();
    EXPECT_NE(json.find("\"ar.replays\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"p95\""), std::string::npos);
    EXPECT_NE(json.find("\"series\""), std::string::npos);
    EXPECT_NE(json.find("\"last\": 77"), std::string::npos);

    const std::string prom = exporter.to_prometheus();
    // Names are sanitized and prefixed; histograms emit the cumulative
    // bucket/sum/count triple Prometheus expects.
    EXPECT_NE(prom.find("rsafe_ar_replays 3"), std::string::npos);
    EXPECT_NE(prom.find("rsafe_ar_lat_bucket{le=\"+Inf\"} 4"),
              std::string::npos);
    EXPECT_NE(prom.find("rsafe_ar_lat_sum 150"), std::string::npos);
    EXPECT_NE(prom.find("rsafe_ar_lat_count 4"), std::string::npos);
    EXPECT_NE(prom.find("rsafe_cr_replay_lag 77"), std::string::npos);
    EXPECT_EQ(obs::sanitize_metric_name("a.b-c:d"), "a_b_c:d");
}

obs::ForensicReport
sample_report()
{
    obs::ForensicReport report;
    report.log_index = 42;
    report.icount = 123456;
    report.cause = "rop-attack";
    report.is_attack = true;
    report.kernel_mode = true;
    report.ret_pc = 0x2048;
    report.faulting_function = "k_vulnerable";
    report.function_begin = 0x2000;
    report.function_end = 0x2100;
    report.expected_target = 0x2050;
    report.call_site_function = "k_logmsg";
    report.actual_target = 0x6000;
    report.target_function = "k_set_root";
    report.tid = 3;
    report.shadow_depth = 5;
    report.shadow_delta = -2;
    report.threads_tracked = 4;
    obs::GadgetInfo gadget;
    gadget.pc = 0x6000;
    gadget.cls = obs::GadgetClass::kStackPivot;
    gadget.disasm = "addsp 16";
    gadget.function = "k_set_root";
    report.gadgets.push_back(gadget);
    return report;
}

TEST(Forensic, WireRoundtripPreservesEveryField)
{
    const auto report = sample_report();
    const auto bytes = report.serialize();
    obs::ForensicReport back;
    ASSERT_TRUE(obs::ForensicReport::deserialize(bytes, &back).ok());
    EXPECT_EQ(back.log_index, report.log_index);
    EXPECT_EQ(back.icount, report.icount);
    EXPECT_EQ(back.cause, report.cause);
    EXPECT_EQ(back.is_attack, report.is_attack);
    EXPECT_EQ(back.kernel_mode, report.kernel_mode);
    EXPECT_EQ(back.ret_pc, report.ret_pc);
    EXPECT_EQ(back.faulting_function, report.faulting_function);
    EXPECT_EQ(back.function_begin, report.function_begin);
    EXPECT_EQ(back.function_end, report.function_end);
    EXPECT_EQ(back.expected_target, report.expected_target);
    EXPECT_EQ(back.call_site_function, report.call_site_function);
    EXPECT_EQ(back.actual_target, report.actual_target);
    EXPECT_EQ(back.target_function, report.target_function);
    EXPECT_EQ(back.tid, report.tid);
    EXPECT_EQ(back.shadow_depth, report.shadow_depth);
    EXPECT_EQ(back.shadow_delta, report.shadow_delta);
    EXPECT_EQ(back.threads_tracked, report.threads_tracked);
    ASSERT_EQ(back.gadgets.size(), 1u);
    EXPECT_EQ(back.gadgets[0].pc, report.gadgets[0].pc);
    EXPECT_EQ(back.gadgets[0].cls, report.gadgets[0].cls);
    EXPECT_EQ(back.gadgets[0].disasm, report.gadgets[0].disasm);
    EXPECT_EQ(back.gadgets[0].function, report.gadgets[0].function);
}

TEST(Forensic, CorruptionIsReportedNotFatal)
{
    auto bytes = sample_report().serialize();
    // Flip one payload byte: the CRC32C frame check must catch it.
    bytes[bytes.size() / 2] ^= 0x40;
    obs::ForensicReport out;
    const Status status = obs::ForensicReport::deserialize(bytes, &out);
    EXPECT_FALSE(status.ok());

    // Truncation is equally non-fatal.
    auto truncated = sample_report().serialize();
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(
        obs::ForensicReport::deserialize(truncated, &out).ok());
    EXPECT_FALSE(
        obs::ForensicReport::deserialize({}, &out).ok());
}

TEST(Forensic, RendersWhereWhoWhat)
{
    const auto report = sample_report();
    const std::string text = report.to_string();
    EXPECT_NE(text.find("k_vulnerable"), std::string::npos);
    EXPECT_NE(text.find("tid"), std::string::npos);
    const std::string json = report.to_json();
    EXPECT_NE(json.find("\"where\""), std::string::npos);
    EXPECT_NE(json.find("\"who\""), std::string::npos);
    EXPECT_NE(json.find("\"what\""), std::string::npos);
    EXPECT_NE(json.find("\"0x2048\""), std::string::npos);
}

TEST(Forensic, AttackPipelineFillsTheStructuredReport)
{
    auto result = run_attack_pipeline(core::PipelineMode::kSerial, 1);
    ASSERT_TRUE(result.alarms.attack_detected());
    const auto mix = workloads::attack_mix();

    bool saw_hijack = false;
    for (const auto& ar : result.ar_results) {
        const auto& forensic = ar.analysis.forensic;
        EXPECT_EQ(forensic.log_index, ar.log_index);
        EXPECT_EQ(forensic.cause,
                  replay::alarm_cause_name(ar.analysis.cause));
        if (!forensic.is_attack)
            continue;
        // Who + what hold for every attack-classified alarm, including
        // follow-on alarms raised while the ROP chain unwinds.
        EXPECT_EQ(forensic.tid, mix.attacker_tid);
        EXPECT_GT(forensic.threads_tracked, 0u);
        ASSERT_FALSE(forensic.gadgets.empty());
        // The text report lists the same chain the record holds.
        bool classified = false;
        for (const auto& gadget : forensic.gadgets) {
            classified |= gadget.cls != obs::GadgetClass::kUnknown;
            std::ostringstream line;
            line << "\n    0x" << std::hex << gadget.pc;
            EXPECT_NE(ar.analysis.report.find(line.str()), std::string::npos);
        }
        EXPECT_TRUE(classified);
        // And the report survives its own wire format.
        obs::ForensicReport back;
        EXPECT_TRUE(obs::ForensicReport::deserialize(forensic.serialize(),
                                                     &back)
                        .ok());
        EXPECT_EQ(back.ret_pc, forensic.ret_pc);
        // Where: only the original hijack fires at the vulnerable
        // function's return; later alarms land on the gadget rets.
        if (forensic.ret_pc != mix.vulnerable_ret)
            continue;
        saw_hijack = true;
        EXPECT_EQ(forensic.faulting_function, "k_vulnerable");
        EXPECT_GT(forensic.function_begin, 0u);
        EXPECT_LE(forensic.function_begin, forensic.ret_pc);
        EXPECT_LT(forensic.ret_pc, forensic.function_end);
    }
    EXPECT_TRUE(saw_hijack);
}

TEST(GoldenAttack, ShippedLogReplaysToNamedForensics)
{
    // The acceptance gate: replay the checked-in golden attack recording
    // through the wire path and recover the full where/who/what.
    const std::string path =
        std::string(RSAFE_CORPUS_DIR) + "/golden/attack.rnrlog";
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(in) << "missing " << path
                    << " — run build/tools/rsafe-corpus to regenerate";
    const auto size = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    std::vector<std::uint8_t> bytes(size);
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(size));
    ASSERT_TRUE(in);

    const auto mix = workloads::attack_mix();
    core::FrameworkConfig config;
    config.pipeline = core::PipelineMode::kConcurrent;
    config.ar_workers = 2;
    core::RnrSafeFramework framework(mix.factory, config);
    auto result = framework.replay_wire(bytes);

    EXPECT_TRUE(result.log_integrity.intact())
        << result.log_integrity.status.to_string();
    ASSERT_TRUE(result.alarms.attack_detected());
    bool saw_hijack = false;
    for (const auto& ar : result.ar_results) {
        const auto& forensic = ar.analysis.forensic;
        if (!forensic.is_attack)
            continue;
        EXPECT_EQ(forensic.tid, mix.attacker_tid);
        EXPECT_FALSE(forensic.gadgets.empty());
        if (forensic.ret_pc != mix.vulnerable_ret)
            continue;
        saw_hijack = true;
        EXPECT_EQ(forensic.faulting_function, "k_vulnerable");
    }
    EXPECT_TRUE(saw_hijack);
}

}  // namespace
}  // namespace rsafe
