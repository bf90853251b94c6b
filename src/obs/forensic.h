#ifndef RSAFE_OBS_FORENSIC_H_
#define RSAFE_OBS_FORENSIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

/**
 * @file
 * The structured forensic record of one analyzed alarm — the paper's
 * Section 6 "where / who / what" answer in machine-readable form.
 *
 * The AlarmReplayer's text report is for humans at a terminal; incident
 * response wants fields. A ForensicReport captures where the hijack
 * happened (faulting PC, its containing function and that function's
 * bounds), who mounted it (thread id from BackRAS introspection,
 * shadow-stack depth and delta since the checkpoint), and what was staged
 * (the gadget chain with a per-gadget classification of the primitive
 * each provides). It is the verdict's only copy of these facts: the text
 * report is rendered from it.
 * Reports serialize on the hardened CRC32C wire format
 * (PayloadKind::kForensicReport) so they survive shipping alongside the
 * log, and deserialize with Status — malformed bytes are reported, never
 * fatal, per the no-CHECK decode policy.
 */

namespace rsafe::obs {

/** What primitive a gadget's first instruction provides an attacker. */
enum class GadgetClass : std::uint8_t {
    kUnknown = 0,   ///< not decodable / outside the image
    kChain,         ///< ret — pure chain link
    kLoad,          ///< memory or immediate load
    kStore,         ///< memory store
    kAlu,           ///< arithmetic / logic
    kStackPivot,    ///< sp manipulation (setsp/addsp/push/pop)
    kBranch,        ///< jump / call redirection
    kSystem,        ///< syscall / iret / pio — the payoff instruction
};

/** @return a short stable name for @p cls. */
const char* gadget_class_name(GadgetClass cls);

/** One classified link of a gadget chain. */
struct GadgetInfo {
    Addr pc = 0;
    GadgetClass cls = GadgetClass::kUnknown;
    std::string disasm;    ///< first instruction, disassembled
    std::string function;  ///< containing function name (may be empty)
};

/** The structured record of one analyzed alarm. */
struct ForensicReport {
    // Identification.
    std::uint64_t log_index = 0;   ///< alarm's index in the input log
    InstrCount icount = 0;         ///< instruction count at the alarm
    std::string cause;             ///< alarm_cause_name() of the verdict
    bool is_attack = false;
    bool kernel_mode = false;

    // Where: the faulting return and the control-flow redirection.
    Addr ret_pc = 0;
    std::string faulting_function;
    /** Bounds of faulting_function from the kernel's symbol table, which
     *  the static analysis proves equal to the CFG-inferred bounds (0
     *  if unknown; filled on attack verdicts only). */
    Addr function_begin = 0;
    Addr function_end = 0;
    Addr expected_target = 0;
    std::string call_site_function;
    Addr actual_target = 0;
    std::string target_function;

    // Who: the mounting thread, seen through BackRAS introspection.
    ThreadId tid = 0;
    std::uint64_t shadow_depth = 0;   ///< shadow-stack depth at the alarm
    std::int64_t shadow_delta = 0;    ///< depth change since the checkpoint
    std::uint64_t threads_tracked = 0;

    // What: the staged chain.
    std::vector<GadgetInfo> gadgets;

    /** Serialize on the wire format (PayloadKind::kForensicReport). */
    std::vector<std::uint8_t> serialize() const;

    /** Strict decode of @p bytes into @p out; never throws. */
    static Status deserialize(const std::vector<std::uint8_t>& bytes,
                              ForensicReport* out);

    /** Multi-line human-readable rendering. */
    std::string to_string() const;

    /** JSON object rendering. */
    std::string to_json() const;
};

}  // namespace rsafe::obs

#endif  // RSAFE_OBS_FORENSIC_H_
