#include "rnr/log_record.h"

#include <sstream>

#include "common/bytes.h"
#include "common/log.h"

namespace rsafe::rnr {

const char*
record_type_name(RecordType type)
{
    switch (type) {
      case RecordType::kRdtsc: return "rdtsc";
      case RecordType::kIoIn: return "io-in";
      case RecordType::kMmioRead: return "mmio-read";
      case RecordType::kNicDma: return "nic-dma";
      case RecordType::kIrqInject: return "irq";
      case RecordType::kRasAlarm: return "ALARM";
      case RecordType::kRasEvict: return "evict";
      case RecordType::kHalt: return "halt";
      case RecordType::kDiskComplete: return "disk-complete";
      case RecordType::kDetectorAlarm: return "DETECTOR-ALARM";
    }
    return "<bad>";
}

std::size_t
LogRecord::serialized_size() const
{
    // type + icount, then per-type payload.
    std::size_t size = 1 + 8;
    switch (type) {
      case RecordType::kRdtsc:
        size += 8;
        break;
      case RecordType::kIoIn:
        size += 2 + 8;
        break;
      case RecordType::kMmioRead:
        size += 4 + 8;
        break;
      case RecordType::kNicDma:
        size += 8 + 4 + payload.size();
        break;
      case RecordType::kIrqInject:
        size += 1;
        break;
      case RecordType::kRasAlarm:
        size += 1 + 8 * 4 + 1 + 4;
        break;
      case RecordType::kRasEvict:
        size += 8 + 4;
        break;
      case RecordType::kDetectorAlarm:
        size += 1 + 8 * 2 + 1 + 4;
        break;
      case RecordType::kHalt:
      case RecordType::kDiskComplete:
        break;
    }
    return size;
}

void
LogRecord::serialize(std::vector<std::uint8_t>* out) const
{
    ByteWriter w(out);
    w.u8(static_cast<std::uint8_t>(type));
    w.u64(icount);
    switch (type) {
      case RecordType::kRdtsc:
        w.u64(value);
        break;
      case RecordType::kIoIn:
        w.u16(static_cast<std::uint16_t>(addr));
        w.u64(value);
        break;
      case RecordType::kMmioRead:
        w.u32(static_cast<std::uint32_t>(addr - 0xF0000000ULL));
        w.u64(value);
        break;
      case RecordType::kNicDma:
        w.u64(addr);
        w.u32(static_cast<std::uint32_t>(payload.size()));
        w.bytes(payload);
        break;
      case RecordType::kIrqInject:
        w.u8(static_cast<std::uint8_t>(value));
        break;
      case RecordType::kRasAlarm:
        w.u8(static_cast<std::uint8_t>(alarm.kind));
        w.u64(alarm.ret_pc);
        w.u64(alarm.predicted);
        w.u64(alarm.actual);
        w.u64(alarm.sp_after);
        w.u8(alarm.kernel_mode ? 1 : 0);
        w.u32(tid);
        break;
      case RecordType::kRasEvict:
        w.u64(addr);
        w.u32(tid);
        break;
      case RecordType::kDetectorAlarm:
        w.u8(static_cast<std::uint8_t>(value));
        w.u64(alarm.ret_pc);
        w.u64(alarm.actual);
        w.u8(alarm.kernel_mode ? 1 : 0);
        w.u32(tid);
        break;
      case RecordType::kHalt:
      case RecordType::kDiskComplete:
        break;
    }
}

Status
LogRecord::decode(const std::vector<std::uint8_t>& data, std::size_t* pos,
                  LogRecord* out)
{
    ByteReader in(data.data(), data.size(), "log record", *pos);
    const std::uint8_t type_byte = in.u8();
    if (type_byte > static_cast<std::uint8_t>(RecordType::kDetectorAlarm)) {
        *pos = in.pos();
        return in.reject(strcat_args("unknown record type ",
                                     static_cast<unsigned>(type_byte)));
    }
    out->type = static_cast<RecordType>(type_byte);
    out->icount = in.u64();
    out->value = 0;
    out->addr = 0;
    out->tid = 0;
    out->payload.clear();

    switch (out->type) {
      case RecordType::kRdtsc:
        out->value = in.u64();
        break;
      case RecordType::kIoIn:
        out->addr = in.u16();
        out->value = in.u64();
        break;
      case RecordType::kMmioRead:
        out->addr = 0xF0000000ULL + in.u32();
        out->value = in.u64();
        break;
      case RecordType::kNicDma: {
        out->addr = in.u64();
        const std::uint32_t len = in.u32();
        if (const std::uint8_t* bytes = in.bytes(len))
            out->payload.assign(bytes, bytes + len);
        break;
      }
      case RecordType::kIrqInject:
        out->value = in.u8();
        break;
      case RecordType::kRasAlarm: {
        const std::uint8_t kind = in.u8();
        out->alarm.ret_pc = in.u64();
        out->alarm.predicted = in.u64();
        out->alarm.actual = in.u64();
        out->alarm.sp_after = in.u64();
        out->alarm.kernel_mode = in.u8() != 0;
        out->tid = in.u32();
        if (kind > static_cast<std::uint8_t>(
                       cpu::RasAlarmKind::kWhitelistMiss))
            in.reject(strcat_args("unknown alarm kind ",
                                  static_cast<unsigned>(kind)));
        out->alarm.kind = static_cast<cpu::RasAlarmKind>(kind);
        break;
      }
      case RecordType::kRasEvict:
        out->addr = in.u64();
        out->tid = in.u32();
        break;
      case RecordType::kDetectorAlarm:
        out->value = in.u8();
        out->alarm.ret_pc = in.u64();
        out->alarm.actual = in.u64();
        out->alarm.kernel_mode = in.u8() != 0;
        out->tid = in.u32();
        break;
      case RecordType::kHalt:
      case RecordType::kDiskComplete:
        break;
    }
    *pos = in.pos();
    return in.status();
}

bool
LogRecord::deserialize(const std::vector<std::uint8_t>& data,
                       std::size_t* pos, LogRecord* out)
{
    return decode(data, pos, out).ok();
}

std::string
LogRecord::to_string() const
{
    std::ostringstream os;
    os << "[" << icount << "] " << record_type_name(type);
    switch (type) {
      case RecordType::kRdtsc:
        os << " value=" << value;
        break;
      case RecordType::kIoIn:
        os << " port=" << addr << " value=" << value;
        break;
      case RecordType::kMmioRead:
        os << " addr=0x" << std::hex << addr << std::dec
           << " value=" << value;
        break;
      case RecordType::kNicDma:
        os << " buf=0x" << std::hex << addr << std::dec
           << " bytes=" << payload.size();
        break;
      case RecordType::kIrqInject:
        os << " vector=" << value;
        break;
      case RecordType::kRasAlarm:
        os << " kind=" << static_cast<int>(alarm.kind) << " ret_pc=0x"
           << std::hex << alarm.ret_pc << " actual=0x" << alarm.actual
           << std::dec << " tid=" << tid
           << (alarm.kernel_mode ? " (kernel)" : " (user)");
        break;
      case RecordType::kRasEvict:
        os << " evicted=0x" << std::hex << addr << std::dec
           << " tid=" << tid;
        break;
      case RecordType::kDetectorAlarm:
        os << " detector=" << value << " site=0x" << std::hex
           << alarm.ret_pc << " target=0x" << alarm.actual << std::dec
           << " tid=" << tid
           << (alarm.kernel_mode ? " (kernel)" : " (user)");
        break;
      case RecordType::kHalt:
      case RecordType::kDiskComplete:
        break;
    }
    return os.str();
}

}  // namespace rsafe::rnr
