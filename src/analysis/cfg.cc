#include "analysis/cfg.h"

#include <algorithm>
#include <unordered_set>

namespace rsafe::analysis {

using isa::Opcode;

namespace {

/** @return true if @p op is a conditional branch. */
bool
is_cond_branch(Opcode op)
{
    switch (op) {
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu:
        return true;
      default:
        return false;
    }
}

/** @return true if @p op has a direct (absolute-immediate) target. */
bool
has_direct_target(Opcode op)
{
    return is_cond_branch(op) || op == Opcode::kJmp || op == Opcode::kCall;
}

/**
 * @return true if @p op terminates a basic block. Control transfers do,
 * and so does halt: execution never proceeds past it, so the next slot
 * needs its own predecessor to be reachable.
 */
bool
ends_block(Opcode op)
{
    return isa::is_control_flow(op) || op == Opcode::kHalt;
}

/** @return true if @p op writes its rd register. */
bool
writes_rd(Opcode op)
{
    switch (op) {
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
      case Opcode::kDivu:
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kXor:
      case Opcode::kShl:
      case Opcode::kShr:
      case Opcode::kAddi:
      case Opcode::kAndi:
      case Opcode::kOri:
      case Opcode::kXori:
      case Opcode::kShli:
      case Opcode::kShri:
      case Opcode::kLdi:
      case Opcode::kLdiu:
      case Opcode::kMov:
      case Opcode::kLd:
      case Opcode::kLdb:
      case Opcode::kPop:
      case Opcode::kGetsp:
      case Opcode::kRdtsc:
      case Opcode::kIn:
        return true;
      default:
        return false;
    }
}

}  // namespace

const char*
edge_kind_name(EdgeKind kind)
{
    switch (kind) {
      case EdgeKind::kFallThrough:   return "fall-through";
      case EdgeKind::kBranch:        return "branch";
      case EdgeKind::kJump:          return "jump";
      case EdgeKind::kCall:          return "call";
      case EdgeKind::kCallReturn:    return "call-return";
      case EdgeKind::kSyscallReturn: return "syscall-return";
    }
    return "<bad>";
}

void
RegState::apply(const isa::Instr& instr)
{
    switch (instr.op) {
      case Opcode::kLdi:
        regs[instr.rd] = static_cast<std::uint64_t>(instr.simm());
        return;
      case Opcode::kLdiu:
        if (regs[instr.rd])
            regs[instr.rd] = (*regs[instr.rd] << 32) | instr.uimm();
        return;
      case Opcode::kMov:
        regs[instr.rd] = regs[instr.rs1];
        return;
      case Opcode::kAddi:
        if (regs[instr.rs1]) {
            regs[instr.rd] =
                *regs[instr.rs1] + static_cast<std::uint64_t>(instr.simm());
        } else {
            regs[instr.rd] = std::nullopt;
        }
        return;
      case Opcode::kAdd:
        if (regs[instr.rs1] && regs[instr.rs2])
            regs[instr.rd] = *regs[instr.rs1] + *regs[instr.rs2];
        else
            regs[instr.rd] = std::nullopt;
        return;
      default:
        if (writes_rd(instr.op))
            regs[instr.rd] = std::nullopt;
        return;
    }
}

Cfg::Cfg(const DecodedImage& decoded) : decoded_(&decoded)
{
    compute_leaders();
    build_blocks();
    compute_reachability();
}

void
Cfg::compute_leaders()
{
    const DecodedImage& di = *decoded_;
    is_leader_.assign(di.size(), false);
    if (di.size() == 0)
        return;
    is_leader_[0] = true;

    std::unordered_set<Addr> taken;
    std::unordered_set<Addr> called;
    for (std::size_t i = 0; i < di.size(); ++i) {
        const Slot& slot = di[i];
        if (!slot.valid) {
            // Data breaks the instruction stream; code resumes at a leader.
            if (i + 1 < di.size())
                is_leader_[i + 1] = true;
            continue;
        }
        const isa::Instr& instr = slot.instr;
        if (instr.op == Opcode::kLdi) {
            // An in-image aligned constant is an address-taken code
            // pointer (continuation or handler address materialized for a
            // later push/store); it can become an entry point.
            const Addr value = instr.uimm();
            if (const auto index = di.index_of(value)) {
                taken.insert(value);
                is_leader_[*index] = true;
            }
        }
        if (!ends_block(instr.op))
            continue;
        if (i + 1 < di.size())
            is_leader_[i + 1] = true;
        if (has_direct_target(instr.op)) {
            const Addr target = instr.uimm();
            if (const auto index = di.index_of(target)) {
                is_leader_[*index] = true;
                if (instr.op == Opcode::kCall)
                    called.insert(target);
            }
        }
    }

    // Declared function entries are block boundaries as well: fall-through
    // into a function must not fuse caller and callee into one block.
    for (const auto& [name, range] : di.image().functions()) {
        if (const auto index = di.index_of(range.begin))
            is_leader_[*index] = true;
    }

    call_targets_.assign(called.begin(), called.end());
    std::sort(call_targets_.begin(), call_targets_.end());
    address_taken_.assign(taken.begin(), taken.end());
    std::sort(address_taken_.begin(), address_taken_.end());
}

void
Cfg::build_blocks()
{
    const DecodedImage& di = *decoded_;
    std::size_t i = 0;
    while (i < di.size()) {
        if (!di[i].valid) {
            ++i;
            continue;
        }
        BasicBlock block;
        block.begin = di.addr_of(i);
        block.first_slot = i;
        std::size_t j = i;
        while (true) {
            const isa::Instr& instr = di[j].instr;
            const bool ends_here =
                ends_block(instr.op) || j + 1 >= di.size() ||
                !di[j + 1].valid || is_leader_[j + 1];
            if (ends_here)
                break;
            ++j;
        }
        block.instr_count = j - i + 1;
        block.end = di.addr_of(j) + kInstrBytes;

        const isa::Instr& last = di[j].instr;
        const Addr next = block.end;
        const bool has_next =
            j + 1 < di.size() && di[j + 1].valid;
        switch (last.op) {
          case Opcode::kJmp:
            block.succs.push_back({last.uimm(), EdgeKind::kJump});
            break;
          case Opcode::kCall:
            block.succs.push_back({last.uimm(), EdgeKind::kCall});
            if (has_next)
                block.succs.push_back({next, EdgeKind::kCallReturn});
            break;
          case Opcode::kCallr:
            // Indirect call: target unknown; the continuation is static.
            if (has_next)
                block.succs.push_back({next, EdgeKind::kCallReturn});
            break;
          case Opcode::kSyscall:
            if (has_next)
                block.succs.push_back({next, EdgeKind::kSyscallReturn});
            break;
          case Opcode::kJmpr:
          case Opcode::kRet:
          case Opcode::kIret:
          case Opcode::kHalt:
            // No static successors.
            break;
          default:
            if (is_cond_branch(last.op)) {
                block.succs.push_back({last.uimm(), EdgeKind::kBranch});
                if (has_next)
                    block.succs.push_back({next, EdgeKind::kFallThrough});
            } else if (has_next) {
                block.succs.push_back({next, EdgeKind::kFallThrough});
            }
            break;
        }
        blocks_.push_back(std::move(block));
        i = j + 1;
    }
}

const BasicBlock*
Cfg::block_starting(Addr addr) const
{
    auto it = std::lower_bound(
        blocks_.begin(), blocks_.end(), addr,
        [](const BasicBlock& b, Addr value) { return b.begin < value; });
    if (it != blocks_.end() && it->begin == addr)
        return &*it;
    return nullptr;
}

void
Cfg::mark_reachable_from(Addr root)
{
    std::vector<Addr> worklist{root};
    while (!worklist.empty()) {
        const Addr addr = worklist.back();
        worklist.pop_back();
        const BasicBlock* found = block_starting(addr);
        if (found == nullptr || found->reachable)
            continue;
        // const_cast-free mutation: recompute the index into blocks_.
        auto& block = blocks_[static_cast<std::size_t>(found - blocks_.data())];
        block.reachable = true;
        for (const Edge& edge : block.succs)
            worklist.push_back(edge.target);
    }
}

void
Cfg::compute_reachability()
{
    const isa::Image& image = decoded_->image();
    if (!blocks_.empty())
        mark_reachable_from(blocks_.front().begin);
    for (const auto& [name, range] : image.functions())
        mark_reachable_from(range.begin);
    for (const Addr addr : address_taken_)
        mark_reachable_from(addr);

    // Promote symbol-bearing orphans (externally-seeded continuations such
    // as the kernel's finish_kthread) to entry points, to a fixpoint.
    std::unordered_set<Addr> symbol_addrs;
    for (const auto& [name, addr] : image.symbols())
        symbol_addrs.insert(addr);
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto& block : blocks_) {
            if (block.reachable || !symbol_addrs.count(block.begin))
                continue;
            block.external_entry = true;
            external_entries_.push_back(block.begin);
            mark_reachable_from(block.begin);
            changed = true;
        }
    }
    std::sort(external_entries_.begin(), external_entries_.end());
}

}  // namespace rsafe::analysis
