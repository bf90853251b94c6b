#include "isa/disassembler.h"

#include <cstdio>
#include <sstream>

namespace rsafe::isa {

namespace {

std::string
reg_name(std::uint8_t r)
{
    char buf[8];
    std::snprintf(buf, sizeof(buf), "r%u", static_cast<unsigned>(r));
    return buf;
}

std::string
hex(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

}  // namespace

std::string
disassemble(const Instr& i)
{
    std::ostringstream os;
    os << opcode_name(i.op);
    switch (i.op) {
      case Opcode::kNop:
      case Opcode::kHalt:
      case Opcode::kRet:
      case Opcode::kSyscall:
      case Opcode::kIret:
      case Opcode::kCli:
      case Opcode::kSti:
        break;
      case Opcode::kAdd: case Opcode::kSub: case Opcode::kMul:
      case Opcode::kDivu: case Opcode::kAnd: case Opcode::kOr:
      case Opcode::kXor: case Opcode::kShl: case Opcode::kShr:
        os << ' ' << reg_name(i.rd) << ", " << reg_name(i.rs1) << ", "
           << reg_name(i.rs2);
        break;
      case Opcode::kAddi: case Opcode::kAndi: case Opcode::kOri:
      case Opcode::kXori: case Opcode::kShli: case Opcode::kShri:
        os << ' ' << reg_name(i.rd) << ", " << reg_name(i.rs1) << ", "
           << i.imm;
        break;
      case Opcode::kLdi:
      case Opcode::kLdiu:
        os << ' ' << reg_name(i.rd) << ", " << hex(i.uimm());
        break;
      case Opcode::kMov:
        os << ' ' << reg_name(i.rd) << ", " << reg_name(i.rs1);
        break;
      case Opcode::kLd:
      case Opcode::kLdb:
        os << ' ' << reg_name(i.rd) << ", [" << reg_name(i.rs1)
           << (i.imm >= 0 ? "+" : "") << i.imm << ']';
        break;
      case Opcode::kSt:
      case Opcode::kStb:
        os << " [" << reg_name(i.rs1) << (i.imm >= 0 ? "+" : "") << i.imm
           << "], " << reg_name(i.rs2);
        break;
      case Opcode::kBeq: case Opcode::kBne: case Opcode::kBlt:
      case Opcode::kBge: case Opcode::kBltu: case Opcode::kBgeu:
        os << ' ' << reg_name(i.rs1) << ", " << reg_name(i.rs2) << ", "
           << hex(i.uimm());
        break;
      case Opcode::kJmp:
      case Opcode::kCall:
        os << ' ' << hex(i.uimm());
        break;
      case Opcode::kJmpr:
      case Opcode::kCallr:
      case Opcode::kSetsp:
        os << ' ' << reg_name(i.rs1);
        break;
      case Opcode::kPush:
        os << ' ' << reg_name(i.rs1);
        break;
      case Opcode::kPop:
      case Opcode::kGetsp:
      case Opcode::kRdtsc:
        os << ' ' << reg_name(i.rd);
        break;
      case Opcode::kAddsp:
        os << ' ' << i.imm;
        break;
      case Opcode::kIn:
        os << ' ' << reg_name(i.rd) << ", port " << i.imm;
        break;
      case Opcode::kOut:
        os << " port " << i.imm << ", " << reg_name(i.rs1);
        break;
      case Opcode::kCount:
        os << " <bad>";
        break;
    }
    return os.str();
}

std::string
disassemble_range(const Image& image, Addr addr, std::size_t count)
{
    std::ostringstream os;
    for (std::size_t n = 0; n < count; ++n, addr += kInstrBytes) {
        os << hex(addr) << ":  ";
        auto instr = image.instr_at(addr);
        if (!instr) {
            os << "<not code>\n";
            continue;
        }
        os << disassemble(*instr);
        const auto fn = image.function_at(addr);
        if (!fn.empty() && image.symbol(fn) == addr)
            os << "    ; <" << fn << ">";
        os << '\n';
    }
    return os.str();
}

}  // namespace rsafe::isa
