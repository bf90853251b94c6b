#ifndef RSAFE_RNR_LOG_RECORD_H_
#define RSAFE_RNR_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "cpu/cpu.h"

/**
 * @file
 * Input-log record types.
 *
 * The log captures every non-deterministic input of the recorded VM
 * (Section 7.3) plus the RnR-Safe markers:
 *
 *  - synchronous injections, consumed when the replayed guest traps at the
 *    same instruction: rdtsc values, pio read values, MMIO read values,
 *    and NIC DMA payloads ("data copied by virtual devices"),
 *  - asynchronous injections, positioned by instruction count: virtual
 *    interrupt vectors,
 *  - RnR-Safe markers: ROP alarm records, RAS Evict records, and the
 *    final halt marker.
 *
 * Every record carries the instruction count at which it was produced;
 * for synchronous records this doubles as a divergence check during
 * replay.
 */

namespace rsafe::rnr {

/** Discriminator for LogRecord. */
enum class RecordType : std::uint8_t {
    kRdtsc = 0,     ///< value = timestamp
    kIoIn = 1,      ///< addr = port, value = data
    kMmioRead = 2,  ///< addr = register address, value = data
    kNicDma = 3,    ///< addr = guest buffer, payload = packet bytes
    kIrqInject = 4, ///< value = vector
    kRasAlarm = 5,  ///< alarm fields + tid
    kRasEvict = 6,  ///< addr = evicted return address, tid
    kHalt = 7,      ///< end of execution
    kDiskComplete = 8,  ///< DMA completion applied (frees the controller)
    /**
     * A pluggable detector's hardware trigger fired: value = detector id
     * (core::DetectorId), alarm.ret_pc = the triggering site,
     * alarm.actual = the observed transfer/fetch target, tid. Positional,
     * like kRasAlarm: the AR stops here and asks the detector's precise
     * classifier for the verdict.
     */
    kDetectorAlarm = 9,
};

/** @return a short name for @p type (diagnostics). */
const char* record_type_name(RecordType type);

/** Alarm details carried by kRasAlarm records. */
struct AlarmInfo {
    cpu::RasAlarmKind kind = cpu::RasAlarmKind::kMispredict;
    Addr ret_pc = 0;
    Addr predicted = 0;
    Addr actual = 0;
    Addr sp_after = 0;
    bool kernel_mode = true;
};

/** One input-log record. */
struct LogRecord {
    RecordType type = RecordType::kHalt;
    InstrCount icount = 0;
    Word value = 0;
    Addr addr = 0;
    ThreadId tid = 0;
    AlarmInfo alarm;
    std::vector<std::uint8_t> payload;

    /** @return the on-disk size of this record in bytes. */
    std::size_t serialized_size() const;

    /** Append the binary encoding of this record to @p out. */
    void serialize(std::vector<std::uint8_t>* out) const;

    /**
     * Decode one record from @p data at offset @p pos (advanced past the
     * record). On malformed input the status names the byte offset where
     * decoding stopped and the field that overran or the value that is
     * out of range — forensic detail the wire-level LoadReport carries
     * up to the framework.
     */
    static Status decode(const std::vector<std::uint8_t>& data,
                         std::size_t* pos, LogRecord* out);

    /** One-line human-readable rendering (diagnostics, forensics). */
    std::string to_string() const;
};

}  // namespace rsafe::rnr

#endif  // RSAFE_RNR_LOG_RECORD_H_
