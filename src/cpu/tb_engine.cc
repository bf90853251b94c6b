#include "cpu/tb_engine.h"

#include <algorithm>

#include "common/log.h"
#include "cpu/cpu.h"
#include "dev/device_hub.h"
#include "isa/encoding.h"

// Direct-threaded dispatch (computed goto) is a GNU extension; the
// portable switch fallback is semantically identical, just slower.
#if defined(__GNUC__) || defined(__clang__)
#define RSAFE_TB_THREADED 1
#else
#define RSAFE_TB_THREADED 0
#endif

namespace rsafe::cpu {

using isa::Opcode;

namespace {

using RegFile = std::array<Word, isa::kNumRegs>;

inline Word
sext32(std::int32_t value)
{
    return static_cast<Word>(static_cast<std::int64_t>(value));
}

inline Word
zext32(std::int32_t value)
{
    return static_cast<Word>(static_cast<std::uint32_t>(value));
}

// Translation maps single ALU ops onto UopKind by enum value.
static_assert(static_cast<int>(UopKind::kAddRR) ==
                      static_cast<int>(AluFn::kAddRR) &&
                  static_cast<int>(UopKind::kShrI) ==
                      static_cast<int>(AluFn::kShrI) &&
                  static_cast<int>(UopKind::kNop) ==
                      static_cast<int>(AluFn::kNop),
              "UopKind's single-ALU prefix must mirror AluFn");

constexpr bool
is_single_alu(UopKind kind)
{
    return static_cast<int>(kind) <= static_cast<int>(UopKind::kNop);
}

// ALU-pair superinstructions: kind = kPairBase + op1_index * 15 +
// op2_index, matching the RSAFE_TB_FOR_EACH_PAIR expansion order.
constexpr int kPairBase = static_cast<int>(UopKind::kP_AddRR_AddRR);
constexpr int kNumOp2Fns = 15;

/** @return op1's row in the pair-kind grid, or -1 if not fusable. */
constexpr int
pair_op1_index(AluFn f)
{
    switch (f) {
      case AluFn::kAddRR: return 0;
      case AluFn::kSubRR: return 1;
      case AluFn::kMulRR: return 2;
      case AluFn::kAndRR: return 3;
      case AluFn::kOrRR:  return 4;
      case AluFn::kXorRR: return 5;
      case AluFn::kShlRR: return 6;
      case AluFn::kShrRR: return 7;
      case AluFn::kAddI:  return 8;
      case AluFn::kAndI:  return 9;
      case AluFn::kOrI:   return 10;
      case AluFn::kXorI:  return 11;
      case AluFn::kShlI:  return 12;
      case AluFn::kShrI:  return 13;
      case AluFn::kMov:   return 14;
      case AluFn::kLdi:   return 15;
      default:            return -1;
    }
}

/** @return op2's column in the pair-kind grid, or -1 if not fusable. */
constexpr int
pair_op2_index(AluFn f)
{
    const int i = pair_op1_index(f);
    return i < kNumOp2Fns ? i : -1;  // op2 must consume rs1: no kLdi
}

static_assert(static_cast<int>(UopKind::kP_AddRR_Mov) == kPairBase + 14 &&
                  static_cast<int>(UopKind::kP_SubRR_AddRR) ==
                      kPairBase + kNumOp2Fns &&
                  static_cast<int>(UopKind::kP_Ldi_Mov) ==
                      kPairBase + 15 * kNumOp2Fns + 14 &&
                  static_cast<int>(UopKind::kCount) ==
                      kPairBase + 16 * kNumOp2Fns,
              "pair-kind grid must match RSAFE_TB_FOR_EACH_PAIR order");

/**
 * Map an ALU-class instruction to its pre-resolved AluSpec. Shift
 * immediates are masked here once, so execution shifts unconditionally.
 * @return false for anything that is not a pure register-file operation.
 */
bool
alu_spec_for(const isa::Instr& instr, AluSpec* out)
{
    AluFn fn;
    switch (instr.op) {
      case Opcode::kNop:  fn = AluFn::kNop; break;
      case Opcode::kAdd:  fn = AluFn::kAddRR; break;
      case Opcode::kSub:  fn = AluFn::kSubRR; break;
      case Opcode::kMul:  fn = AluFn::kMulRR; break;
      case Opcode::kDivu: fn = AluFn::kDivuRR; break;
      case Opcode::kAnd:  fn = AluFn::kAndRR; break;
      case Opcode::kOr:   fn = AluFn::kOrRR; break;
      case Opcode::kXor:  fn = AluFn::kXorRR; break;
      case Opcode::kShl:  fn = AluFn::kShlRR; break;
      case Opcode::kShr:  fn = AluFn::kShrRR; break;
      case Opcode::kAddi: fn = AluFn::kAddI; break;
      case Opcode::kAndi: fn = AluFn::kAndI; break;
      case Opcode::kOri:  fn = AluFn::kOrI; break;
      case Opcode::kXori: fn = AluFn::kXorI; break;
      case Opcode::kShli: fn = AluFn::kShlI; break;
      case Opcode::kShri: fn = AluFn::kShrI; break;
      case Opcode::kLdi:  fn = AluFn::kLdi; break;
      case Opcode::kLdiu: fn = AluFn::kLdiu; break;
      case Opcode::kMov:  fn = AluFn::kMov; break;
      default:
        return false;
    }
    out->fn = fn;
    out->rd = instr.rd;
    out->rs1 = instr.rs1;
    out->rs2 = instr.rs2;
    out->imm = (fn == AluFn::kShlI || fn == AluFn::kShrI) ? (instr.imm & 63)
                                                          : instr.imm;
    return true;
}

/** @return true (and the condition) for the six conditional branches. */
bool
br_cond_for(Opcode op, BrCond* out)
{
    switch (op) {
      case Opcode::kBeq:  *out = BrCond::kEq; return true;
      case Opcode::kBne:  *out = BrCond::kNe; return true;
      case Opcode::kBlt:  *out = BrCond::kLt; return true;
      case Opcode::kBge:  *out = BrCond::kGe; return true;
      case Opcode::kBltu: *out = BrCond::kLtu; return true;
      case Opcode::kBgeu: *out = BrCond::kGeu; return true;
      default:
        return false;
    }
}

/**
 * Execute one pre-resolved ALU slot; semantics mirror Cpu::exec_one.
 * Only the secondary slot of fused pairs dispatches through here — the
 * single-op forms have dedicated handlers in the main dispatch loop.
 */
inline void
run_alu(RegFile& regs, const AluSpec& a)
{
    switch (a.fn) {
      case AluFn::kAddRR:  regs[a.rd] = regs[a.rs1] + regs[a.rs2]; break;
      case AluFn::kSubRR:  regs[a.rd] = regs[a.rs1] - regs[a.rs2]; break;
      case AluFn::kMulRR:  regs[a.rd] = regs[a.rs1] * regs[a.rs2]; break;
      case AluFn::kDivuRR:
        regs[a.rd] = regs[a.rs2] == 0 ? ~static_cast<Word>(0)
                                      : regs[a.rs1] / regs[a.rs2];
        break;
      case AluFn::kAndRR:  regs[a.rd] = regs[a.rs1] & regs[a.rs2]; break;
      case AluFn::kOrRR:   regs[a.rd] = regs[a.rs1] | regs[a.rs2]; break;
      case AluFn::kXorRR:  regs[a.rd] = regs[a.rs1] ^ regs[a.rs2]; break;
      case AluFn::kShlRR:  regs[a.rd] = regs[a.rs1] << (regs[a.rs2] & 63); break;
      case AluFn::kShrRR:  regs[a.rd] = regs[a.rs1] >> (regs[a.rs2] & 63); break;
      case AluFn::kAddI:   regs[a.rd] = regs[a.rs1] + sext32(a.imm); break;
      case AluFn::kAndI:   regs[a.rd] = regs[a.rs1] & sext32(a.imm); break;
      case AluFn::kOrI:    regs[a.rd] = regs[a.rs1] | sext32(a.imm); break;
      case AluFn::kXorI:   regs[a.rd] = regs[a.rs1] ^ sext32(a.imm); break;
      case AluFn::kShlI:   regs[a.rd] = regs[a.rs1] << a.imm; break;
      case AluFn::kShrI:   regs[a.rd] = regs[a.rs1] >> a.imm; break;
      case AluFn::kLdi:    regs[a.rd] = sext32(a.imm); break;
      case AluFn::kLdiu:
        regs[a.rd] = (regs[a.rd] << 32) | zext32(a.imm);
        break;
      case AluFn::kMov:    regs[a.rd] = regs[a.rs1]; break;
      case AluFn::kNop:    break;
    }
}

}  // namespace

TbEngine::TbEngine(mem::PhysMem* mem)
    : mem_(mem),
      table_(kLookupEntries),
      page_tbs_(mem == nullptr ? 0 : mem->num_pages()),
      block_len_(kMaxBlockInstrs, 16)
{
    if (mem_ == nullptr)
        fatal("TbEngine: null memory");
    mem_->add_code_listener(this);
}

TbEngine::~TbEngine()
{
    mem_->remove_code_listener(this);
}

void
TbEngine::adopt_breakpoints(const BreakpointSet& bps)
{
    // The cached blocks were cut against the old set; drop them all.
    flush();
    bp_gen_ = bps.gen();
    bp_pcs_ = bps.pcs();
}

TransBlock*
TbEngine::translate(Addr pc)
{
    // Unaligned PCs (corrupted control flow) never translate; exec_one
    // fetches the same bytes and reports the fault canonically.
    if ((pc & (kInstrBytes - 1)) != 0)
        return nullptr;

    // Never start a block at a breakpoint: the hook must fire from run()
    // before the instruction executes, and refusing translation here also
    // guarantees no chain can ever target a breakpointed PC.
    if (is_breakpoint(pc))
        return nullptr;

    auto owned = std::make_unique<TransBlock>();
    TransBlock* tb = owned.get();
    tb->pc = pc;
    tb->uops.reserve(16);

    // Page budget: invalidation metadata holds two page slots, so a
    // trace (which may cross pages via folded jumps) covers at most two.
    Addr pages[2] = {0, 0};
    std::uint8_t num_pages = 0;
    const auto cover = [&](Addr page) {
        for (std::uint8_t i = 0; i < num_pages; ++i) {
            if (pages[i] == page)
                return true;
        }
        if (num_pages == 2)
            return false;
        pages[num_pages++] = page;
        return true;
    };

    Addr cur = pc;
    bool terminated = false;  // ended on a real control-flow terminator
    bool bail_end = false;    // ended on an untranslatable instruction
    while (tb->len < kMaxBlockInstrs) {
        // Cut short of any later breakpoint (kFall side-exit): control
        // returns to run() so the hook fires before the instruction.
        if (tb->len > 0 && is_breakpoint(cur))
            break;

        // Fetch fault or undecodable slot: exec_one re-fetches at the exit
        // PC to produce the canonical fault. A fetch fault covers no page,
        // since cur may lie past the end of RAM.
        std::uint8_t raw[kInstrBytes];
        if (mem_->fetch(cur, raw) != mem::MemResult::kOk) {
            bail_end = true;
            break;
        }
        if (!cover(page_of(cur)))
            break;  // page budget exhausted: side-exit (kFall), chainable
        isa::Instr instr;
        if (!isa::decode(raw, &instr)) {
            bail_end = true;
            break;
        }

        // Direct jumps with an aligned target are folded into the trace:
        // the block continues translating at the target (the jump still
        // retires one instruction), so hot loops unroll to the block cap
        // and the backedge costs zero dispatches.
        if (instr.op == Opcode::kJmp &&
            (instr.uimm() & (kInstrBytes - 1)) == 0) {
            ++tb->len;
            cur = instr.uimm();
            continue;
        }

        Uop u;
        u.pc = static_cast<std::uint32_t>(cur);
        u.icount_off = static_cast<std::uint16_t>(tb->len);

        // Fusion peepholes pair the previous micro-op with this
        // instruction; only truly adjacent instructions fuse (a folded
        // jump in between would break fall-through PC arithmetic).
        Uop* p = tb->uops.empty() ? nullptr : &tb->uops.back();
        const bool adjacent =
            p != nullptr && p->count == 1 &&
            p->pc + kInstrBytes == static_cast<std::uint32_t>(cur);

        AluSpec a;
        BrCond cond;
        if (alu_spec_for(instr, &a)) {
            if (adjacent && p->kind == UopKind::kLdi &&
                a.fn == AluFn::kLdiu && p->alu1.rd == a.rd) {
                // The ldi/ldiu 64-bit constant build.
                p->kind = UopKind::kLdi64;
                p->imm = a.imm;
                p->count = 2;
            } else if (adjacent && p->kind == UopKind::kLd) {
                // load + ALU (the second op cannot fault, so the pair
                // retires atomically, exactly like its two halves would).
                p->kind = UopKind::kLdAlu;
                p->alu2 = a;
                p->count = 2;
            } else if (adjacent && is_single_alu(p->kind) &&
                       a.rs1 == p->alu1.rd &&
                       pair_op1_index(p->alu1.fn) >= 0 &&
                       pair_op2_index(a.fn) >= 0) {
                // Dependent ALU pair: op2 consumes op1's result, which
                // the superinstruction handler keeps in a host register.
                p->kind = static_cast<UopKind>(
                    kPairBase +
                    pair_op1_index(p->alu1.fn) * kNumOp2Fns +
                    pair_op2_index(a.fn));
                p->alu2 = a;
                p->count = 2;
            } else {
                u.kind = static_cast<UopKind>(static_cast<int>(a.fn));
                u.alu1 = a;
                tb->uops.push_back(u);
            }
            ++tb->len;
            cur += kInstrBytes;
            continue;
        }
        if (br_cond_for(instr.op, &cond)) {
            if (adjacent && is_single_alu(p->kind)) {
                // The cmp+branch loop idiom.
                p->kind = static_cast<UopKind>(
                    static_cast<int>(UopKind::kAluBrEq) +
                    static_cast<int>(cond));
                p->alu2.rs1 = instr.rs1;
                p->alu2.rs2 = instr.rs2;
                p->imm = instr.imm;
                p->count = 2;
            } else {
                u.kind = static_cast<UopKind>(
                    static_cast<int>(UopKind::kBrEq) +
                    static_cast<int>(cond));
                u.alu1.rs1 = instr.rs1;
                u.alu1.rs2 = instr.rs2;
                u.imm = instr.imm;
                tb->uops.push_back(u);
            }
            ++tb->len;
            terminated = true;
            break;
        }

        bool term = false;
        switch (instr.op) {
          case Opcode::kLd:
          case Opcode::kLdb:
            u.kind = instr.op == Opcode::kLd ? UopKind::kLd : UopKind::kLdb;
            u.alu1.rd = instr.rd;
            u.alu1.rs1 = instr.rs1;
            u.alu1.imm = instr.imm;
            break;
          case Opcode::kSt:
          case Opcode::kStb:
            u.kind = instr.op == Opcode::kSt ? UopKind::kSt : UopKind::kStb;
            u.alu1.rs1 = instr.rs1;
            u.alu1.rs2 = instr.rs2;
            u.alu1.imm = instr.imm;
            break;
          case Opcode::kPush:
            u.kind = UopKind::kPush;
            u.alu1.rs1 = instr.rs1;
            break;
          case Opcode::kPop:
            u.kind = UopKind::kPop;
            u.alu1.rd = instr.rd;
            break;
          case Opcode::kGetsp:
            u.kind = UopKind::kGetsp;
            u.alu1.rd = instr.rd;
            break;
          case Opcode::kSetsp:
            u.kind = UopKind::kSetsp;
            u.alu1.rs1 = instr.rs1;
            break;
          case Opcode::kAddsp:
            u.kind = UopKind::kAddsp;
            u.alu1.imm = instr.imm;
            break;

          case Opcode::kJmp:  // unaligned target, not folded above
            u.kind = UopKind::kJmp;
            u.imm = instr.imm;
            term = true;
            break;
          case Opcode::kJmpr:
            u.kind = UopKind::kJmpr;
            u.alu1.rs1 = instr.rs1;
            term = true;
            break;
          case Opcode::kCall:
            u.kind = UopKind::kCall;
            u.imm = instr.imm;
            term = true;
            break;
          case Opcode::kCallr:
            u.kind = UopKind::kCallr;
            u.alu1.rs1 = instr.rs1;
            term = true;
            break;
          case Opcode::kRet:
            u.kind = UopKind::kRet;
            term = true;
            break;

          default:
            // halt, syscall/iret, cli/sti, rdtsc, pio — privileged or
            // environment-interacting: never part of a block.
            bail_end = true;
            break;
        }
        if (bail_end)
            break;
        tb->uops.push_back(u);
        ++tb->len;
        if (term) {
            terminated = true;
            break;
        }
        cur += kInstrBytes;
    }

    if (!terminated) {
        // Cap, page budget, fetch/decode failure, or untranslatable
        // instruction: exit the trace at cur. kFall chains (the next
        // block starts there); kBail re-fetches canonically.
        Uop u;
        u.pc = static_cast<std::uint32_t>(cur);
        u.icount_off = static_cast<std::uint16_t>(tb->len);
        u.count = 0;
        u.kind = bail_end ? UopKind::kBail : UopKind::kFall;
        tb->uops.push_back(u);
    }
    if (tb->len == 0)
        return nullptr;  // nothing translatable at pc

    if (dispatch_ != nullptr) {
        for (Uop& fill : tb->uops)
            fill.h = dispatch_[static_cast<std::size_t>(fill.kind)];
    }

    tb->num_pages = num_pages;
    for (std::uint8_t i = 0; i < num_pages; ++i) {
        tb->pages[i] = pages[i];
        page_tbs_[pages[i]].push_back(tb);
    }
    tb->valid = true;

    Slot& slot = table_[index_of(pc)];
    slot.pc = pc;
    slot.tb = tb;  // collision: the old entry is evicted, its block stays

    ++stats_.translated;
    block_len_.sample(tb->len);
    blocks_.push_back(std::move(owned));
    return tb;
}

void
TbEngine::chain(TransBlock* from, int slot, TransBlock* to)
{
    if (!from->valid || !to->valid)
        return;
    if (from->next[slot] == to)
        return;
    from->next[slot] = to;
    to->incoming.emplace_back(from, slot);
}

void
TbEngine::invalidate(TransBlock* tb)
{
    tb->valid = false;
    ++stats_.invalidations;
    // Sever chains INTO the block: no predecessor may jump to stale code.
    // (Entries whose predecessor was itself invalidated are stale — the
    // pointer identity check makes them harmless.)
    for (const auto& [pred, slot] : tb->incoming) {
        if (pred->next[slot] == tb)
            pred->next[slot] = nullptr;
    }
    tb->incoming.clear();
    tb->next[0] = nullptr;
    tb->next[1] = nullptr;
    Slot& slot = table_[index_of(tb->pc)];
    if (slot.tb == tb)
        slot = Slot{};
}

void
TbEngine::on_code_page_touched(Addr page)
{
    if (page >= page_tbs_.size()) [[unlikely]]
        return;
    auto& list = page_tbs_[page];
    if (list.empty()) [[likely]]
        return;  // raw writes to data pages also land here: keep it cheap
    for (TransBlock* tb : list) {
        if (tb->valid)
            invalidate(tb);
    }
    list.clear();
}

void
TbEngine::flush()
{
    if (blocks_.empty())
        return;
    blocks_.clear();
    std::fill(table_.begin(), table_.end(), Slot{});
    for (auto& list : page_tbs_)
        list.clear();
    ++stats_.flushes;
}

/**
 * run_tb's traced call/ret exit: retire the @p done instructions, all in
 * the current mode, up to and including the call/ret @p u, then
 * take its trap with @p target as the call target or return destination.
 * Out of line so that the dispatch loop keeps the registers and code
 * layout of an untraced run.
 */
[[gnu::noinline]] void
Cpu::retire_and_trap(const Uop& u, Addr target, InstrCount done)
{
    icount_ += done;
    cycles_ += done;
    stats_.instructions += done;
    if (state_.mode == Mode::kKernel)
        stats_.kernel_instructions += done;
    CallRetEvent event;
    event.is_call = u.kind != UopKind::kRet;
    event.pc = static_cast<Addr>(u.pc);
    event.target = target;
    event.link = event.is_call ? event.pc + kInstrBytes : 0;
    event.mode = state_.mode;
    state_.pc = event.pc;
    trap_call_ret(event);
}

/**
 * The translated-block dispatch loop, the simulator's one fast tier. It
 * has the same architectural effects as single-stepping Cpu::exec_one.
 * Preconditions (established by run()): no pending IRQ, indirect-branch
 * trap off, no W^X fetch watch. Anything complex bails to exec_one, the
 * single source of truth, and "cycles advanced by exactly 1" proves the
 * bailed instruction was pure (every VM exit charges extra cycles), so
 * accounting stays at one cycle per instruction. The one VM exit taken
 * in place is a traced call/ret's (traced_done): it is a plain
 * notification, so the loop re-clamps its budget to the cycle stop and
 * runs on.
 *
 * A block is entered only when the remaining budget covers its whole
 * length; otherwise the tail up to the stop point executes through
 * exec_one, so replay barriers (perf stops, injection icounts, checkpoint
 * boundaries) are honored exactly, never overshot.
 *
 * Armed PC breakpoints are tolerated: translation cuts every block short
 * of a breakpoint and refuses to start one at a breakpoint, and the
 * dispatch loop hands control back to run() — which owns firing the
 * hook — whenever execution reaches a breakpointed PC after making
 * progress (the entry PC's hook already fired).
 *
 * Cache-line aligned: the dispatch loop's speed depends on where its
 * handlers fall relative to 64-byte lines, so pinning the function keeps
 * a size change elsewhere in the library from moving it (a 32-byte shift
 * cost steady-record ~10% on a 4-CPU x86-64 host).
 */
__attribute__((aligned(64))) Cpu::StepResult
Cpu::run_tb(InstrCount budget)
{
    TbEngine& eng = *tb_;
    // Adopt the current breakpoint set (flushes the cache on change —
    // safe here, no TransBlock pointers are live yet). The set only
    // mutates at VM-setup time, so the flush is a one-time cost.
    eng.sync_breakpoints(vmcs_.breakpoints);
    const bool bp_active = !vmcs_.breakpoints.empty();
    // run() already fired the hook for the entry PC; only a later arrival
    // at a breakpoint returns control.
    bool progressed = false;
    // Call/ret run inline. A traced one (the alarm replayer, in a traced
    // mode only: under kernel-only tracing a user-mode call/ret is
    // untraced) ends its block and takes its trap in traced_done without
    // leaving run_tb. The recorder's RAS monitoring exits only on an
    // eviction or a failed prediction: call/ret bail, before mutating
    // anything, only when that exit is due.
    const bool trace_kernel = vmcs_.controls.trap_kernel_call_ret;
    const bool trace_user = vmcs_.controls.trap_user_call_ret;
    const bool evict_exit = vmcs_.controls.ras_evict_exit;
    const bool ras_alarm = vmcs_.controls.ras_alarm_enabled;
    auto& regs = state_.regs;
    Addr pc = state_.pc;
    // The mode changes only in exec_one (below), which resets both. A
    // spill precedes every exec_one, so all `done` instructions between
    // two spills ran in one mode.
    bool kernel = state_.mode == Mode::kKernel;
    bool callret_traced = kernel ? trace_kernel : trace_user;
    InstrCount done = 0;
    // Engine event counters accumulate in locals; one RMW each at spill.
    std::uint64_t chain_hits = 0;
    std::uint64_t chain_misses = 0;
    std::uint64_t exec_blocks = 0;

    const auto spill = [&] {
        state_.pc = pc;
        icount_ += done;
        cycles_ += done;
        stats_.instructions += done;
        stats_.kernel_instructions += kernel ? done : 0;
        done = 0;
        eng.stats_.chain_hits += chain_hits;
        eng.stats_.chain_misses += chain_misses;
        eng.stats_.exec_blocks += exec_blocks;
        chain_hits = 0;
        chain_misses = 0;
        exec_blocks = 0;
    };

    TransBlock* tb = nullptr;
    TransBlock* prev = nullptr;    // block awaiting a chain to its successor
    int prev_slot = kChainTaken;
    const Uop* u = nullptr;
    Addr new_pc = 0;
    int slot = -1;

#if RSAFE_TB_THREADED
#define RSAFE_TB_PAIR_ADDR(f1, f2) &&h_P_##f1##_##f2,
    // One handler per UopKind, in exact enum order (checked below).
    static const void* const kDispatch[] = {
        &&h_AddRR, &&h_SubRR, &&h_MulRR, &&h_DivuRR, &&h_AndRR, &&h_OrRR,
        &&h_XorRR, &&h_ShlRR, &&h_ShrRR,
        &&h_AddI, &&h_AndI, &&h_OrI, &&h_XorI, &&h_ShlI, &&h_ShrI,
        &&h_Ldi, &&h_Ldiu, &&h_Mov, &&h_Nop,
        &&h_Ldi64, &&h_LdAlu,
        &&h_Ld, &&h_Ldb, &&h_St, &&h_Stb, &&h_Push, &&h_Pop,
        &&h_Getsp, &&h_Setsp, &&h_Addsp,
        &&h_BrEq, &&h_BrNe, &&h_BrLt, &&h_BrGe, &&h_BrLtu, &&h_BrGeu,
        &&h_AluBrEq, &&h_AluBrNe, &&h_AluBrLt, &&h_AluBrGe, &&h_AluBrLtu,
        &&h_AluBrGeu,
        &&h_Jmp, &&h_Jmpr, &&h_Call, &&h_Callr, &&h_Ret,
        &&h_Fall, &&h_Bail,
        RSAFE_TB_FOR_EACH_PAIR(RSAFE_TB_PAIR_ADDR)
    };
    static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                      static_cast<std::size_t>(UopKind::kCount),
                  "dispatch table must cover every UopKind");
    // Translation copies table entries into each uop's h field; register
    // the table before any block can be translated.
    if (eng.dispatch_ == nullptr)
        eng.dispatch_ = kDispatch;
#define UOP(name) h_##name:
#define PUOP(f1, f2) h_P_##f1##_##f2:
#define NEXT() \
    do { \
        ++u; \
        goto* u->h; \
    } while (0)
#define ENTER() goto* u->h
#else
#define UOP(name) case UopKind::k##name:
#define PUOP(f1, f2) case UopKind::kP_##f1##_##f2:
#define NEXT() \
    do { \
        ++u; \
        goto dispatch; \
    } while (0)
#define ENTER() goto dispatch
#endif

// Superinstruction value expressions: V1 computes op1 from its spec, V2
// computes op2 from op1's result v (the proven rs1 operand) and its own
// spec. Expanded inside the dispatch loop where `regs` is in scope.
#define RSAFE_TB_V1_AddRR(s) (regs[(s).rs1] + regs[(s).rs2])
#define RSAFE_TB_V1_SubRR(s) (regs[(s).rs1] - regs[(s).rs2])
#define RSAFE_TB_V1_MulRR(s) (regs[(s).rs1] * regs[(s).rs2])
#define RSAFE_TB_V1_AndRR(s) (regs[(s).rs1] & regs[(s).rs2])
#define RSAFE_TB_V1_OrRR(s) (regs[(s).rs1] | regs[(s).rs2])
#define RSAFE_TB_V1_XorRR(s) (regs[(s).rs1] ^ regs[(s).rs2])
#define RSAFE_TB_V1_ShlRR(s) (regs[(s).rs1] << (regs[(s).rs2] & 63))
#define RSAFE_TB_V1_ShrRR(s) (regs[(s).rs1] >> (regs[(s).rs2] & 63))
#define RSAFE_TB_V1_AddI(s) (regs[(s).rs1] + sext32((s).imm))
#define RSAFE_TB_V1_AndI(s) (regs[(s).rs1] & sext32((s).imm))
#define RSAFE_TB_V1_OrI(s) (regs[(s).rs1] | sext32((s).imm))
#define RSAFE_TB_V1_XorI(s) (regs[(s).rs1] ^ sext32((s).imm))
#define RSAFE_TB_V1_ShlI(s) (regs[(s).rs1] << (s).imm)
#define RSAFE_TB_V1_ShrI(s) (regs[(s).rs1] >> (s).imm)
#define RSAFE_TB_V1_Mov(s) (regs[(s).rs1])
#define RSAFE_TB_V1_Ldi(s) (sext32((s).imm))

#define RSAFE_TB_V2_AddRR(v, s) ((v) + regs[(s).rs2])
#define RSAFE_TB_V2_SubRR(v, s) ((v) - regs[(s).rs2])
#define RSAFE_TB_V2_MulRR(v, s) ((v) * regs[(s).rs2])
#define RSAFE_TB_V2_AndRR(v, s) ((v) & regs[(s).rs2])
#define RSAFE_TB_V2_OrRR(v, s) ((v) | regs[(s).rs2])
#define RSAFE_TB_V2_XorRR(v, s) ((v) ^ regs[(s).rs2])
#define RSAFE_TB_V2_ShlRR(v, s) ((v) << (regs[(s).rs2] & 63))
#define RSAFE_TB_V2_ShrRR(v, s) ((v) >> (regs[(s).rs2] & 63))
#define RSAFE_TB_V2_AddI(v, s) ((v) + sext32((s).imm))
#define RSAFE_TB_V2_AndI(v, s) ((v) & sext32((s).imm))
#define RSAFE_TB_V2_OrI(v, s) ((v) | sext32((s).imm))
#define RSAFE_TB_V2_XorI(v, s) ((v) ^ sext32((s).imm))
#define RSAFE_TB_V2_ShlI(v, s) ((v) << (s).imm)
#define RSAFE_TB_V2_ShrI(v, s) ((v) >> (s).imm)
#define RSAFE_TB_V2_Mov(v, s) (v)

// The op1 result is stored architecturally FIRST, so an op2 whose rs2
// also names op1's rd reads the fresh value from the register file.
#define RSAFE_TB_PAIR_IMPL(f1, f2) \
    PUOP(f1, f2) { \
        const Word v = RSAFE_TB_V1_##f1(u->alu1); \
        regs[u->alu1.rd] = v; \
        regs[u->alu2.rd] = RSAFE_TB_V2_##f2(v, u->alu2); \
        NEXT(); \
    }

    while (budget > 0) {
        if (tb == nullptr) {
            tb = eng.lookup(pc);
            if (tb == nullptr) [[unlikely]] {
                // No block ever starts at a breakpoint, so only a lookup
                // miss can be one. Hand back to run(), which fires the
                // hook before the instruction executes.
                if (bp_active && progressed && eng.is_breakpoint(pc)) {
                    spill();
                    return StepResult::kOk;
                }
                if (eng.should_flush()) {
                    // Safe point: no TransBlock pointers are live here.
                    prev = nullptr;
                    eng.flush();
                }
                tb = eng.translate(pc);
                if (tb == nullptr)
                    goto bail_one;
            }
            if (prev != nullptr) {
                eng.chain(prev, prev_slot, tb);
                prev = nullptr;
            }
        }
        // Entering the block commits to retiring all of it; near a replay
        // barrier, finish instruction-by-instruction instead.
        if (budget < tb->len) [[unlikely]]
            goto bail_one;

        u = tb->uops.data();
        ENTER();

#if !RSAFE_TB_THREADED
      dispatch:
        switch (u->kind) {
#endif

        UOP(AddRR)
            regs[u->alu1.rd] = regs[u->alu1.rs1] + regs[u->alu1.rs2];
            NEXT();
        UOP(SubRR)
            regs[u->alu1.rd] = regs[u->alu1.rs1] - regs[u->alu1.rs2];
            NEXT();
        UOP(MulRR)
            regs[u->alu1.rd] = regs[u->alu1.rs1] * regs[u->alu1.rs2];
            NEXT();
        UOP(DivuRR)
            regs[u->alu1.rd] = regs[u->alu1.rs2] == 0
                                   ? ~static_cast<Word>(0)
                                   : regs[u->alu1.rs1] / regs[u->alu1.rs2];
            NEXT();
        UOP(AndRR)
            regs[u->alu1.rd] = regs[u->alu1.rs1] & regs[u->alu1.rs2];
            NEXT();
        UOP(OrRR)
            regs[u->alu1.rd] = regs[u->alu1.rs1] | regs[u->alu1.rs2];
            NEXT();
        UOP(XorRR)
            regs[u->alu1.rd] = regs[u->alu1.rs1] ^ regs[u->alu1.rs2];
            NEXT();
        UOP(ShlRR)
            regs[u->alu1.rd] = regs[u->alu1.rs1] << (regs[u->alu1.rs2] & 63);
            NEXT();
        UOP(ShrRR)
            regs[u->alu1.rd] = regs[u->alu1.rs1] >> (regs[u->alu1.rs2] & 63);
            NEXT();
        UOP(AddI)
            regs[u->alu1.rd] = regs[u->alu1.rs1] + sext32(u->alu1.imm);
            NEXT();
        UOP(AndI)
            regs[u->alu1.rd] = regs[u->alu1.rs1] & sext32(u->alu1.imm);
            NEXT();
        UOP(OrI)
            regs[u->alu1.rd] = regs[u->alu1.rs1] | sext32(u->alu1.imm);
            NEXT();
        UOP(XorI)
            regs[u->alu1.rd] = regs[u->alu1.rs1] ^ sext32(u->alu1.imm);
            NEXT();
        UOP(ShlI)
            regs[u->alu1.rd] = regs[u->alu1.rs1] << u->alu1.imm;
            NEXT();
        UOP(ShrI)
            regs[u->alu1.rd] = regs[u->alu1.rs1] >> u->alu1.imm;
            NEXT();
        UOP(Ldi)
            regs[u->alu1.rd] = sext32(u->alu1.imm);
            NEXT();
        UOP(Ldiu)
            regs[u->alu1.rd] = (regs[u->alu1.rd] << 32) | zext32(u->alu1.imm);
            NEXT();
        UOP(Mov)
            regs[u->alu1.rd] = regs[u->alu1.rs1];
            NEXT();
        UOP(Nop)
            NEXT();

        RSAFE_TB_FOR_EACH_PAIR(RSAFE_TB_PAIR_IMPL)

        UOP(Ldi64)
            regs[u->alu1.rd] =
                (sext32(u->alu1.imm) << 32) | zext32(u->imm);
            NEXT();
        UOP(LdAlu) {
            const Addr addr = regs[u->alu1.rs1] + sext32(u->alu1.imm);
            if (dev::is_mmio(addr)) [[unlikely]]
                goto uop_bail;
            Word value;
            if (mem_->read(addr, 8, &value) !=
                mem::MemResult::kOk) [[unlikely]]
                goto uop_bail;
            regs[u->alu1.rd] = value;
            run_alu(regs, u->alu2);
            NEXT();
        }
        UOP(Ld) {
            const Addr addr = regs[u->alu1.rs1] + sext32(u->alu1.imm);
            if (dev::is_mmio(addr)) [[unlikely]]
                goto uop_bail;
            Word value;
            if (mem_->read(addr, 8, &value) !=
                mem::MemResult::kOk) [[unlikely]]
                goto uop_bail;
            regs[u->alu1.rd] = value;
            NEXT();
        }
        UOP(Ldb) {
            const Addr addr = regs[u->alu1.rs1] + sext32(u->alu1.imm);
            if (dev::is_mmio(addr)) [[unlikely]]
                goto uop_bail;
            Word value;
            if (mem_->read(addr, 1, &value) !=
                mem::MemResult::kOk) [[unlikely]]
                goto uop_bail;
            regs[u->alu1.rd] = value;
            NEXT();
        }
        UOP(St) {
            const Addr addr = regs[u->alu1.rs1] + sext32(u->alu1.imm);
            if (dev::is_mmio(addr)) [[unlikely]]
                goto uop_bail;
            if (mem_->write(addr, 8, regs[u->alu1.rs2]) !=
                mem::MemResult::kOk) [[unlikely]]
                goto uop_bail;
            // Mid-block write safety: the write may have hit this very
            // block's code (the listener fired synchronously). Exit after
            // the store and re-translate from fresh bytes.
            if (!tb->valid) [[unlikely]]
                goto block_cut;
            NEXT();
        }
        UOP(Stb) {
            const Addr addr = regs[u->alu1.rs1] + sext32(u->alu1.imm);
            if (dev::is_mmio(addr)) [[unlikely]]
                goto uop_bail;
            if (mem_->write(addr, 1, regs[u->alu1.rs2] & 0xff) !=
                mem::MemResult::kOk) [[unlikely]]
                goto uop_bail;
            if (!tb->valid) [[unlikely]]
                goto block_cut;
            NEXT();
        }
        UOP(Push)
            if (mem_->write(state_.sp - 8, 8, regs[u->alu1.rs1]) !=
                mem::MemResult::kOk) [[unlikely]]
                goto uop_bail;
            state_.sp -= 8;
            if (!tb->valid) [[unlikely]]  // push into own code page
                goto block_cut;
            NEXT();
        UOP(Pop) {
            Word value;
            if (mem_->read(state_.sp, 8, &value) !=
                mem::MemResult::kOk) [[unlikely]]
                goto uop_bail;
            state_.sp += 8;
            regs[u->alu1.rd] = value;
            NEXT();
        }
        UOP(Getsp)
            regs[u->alu1.rd] = state_.sp;
            NEXT();
        UOP(Setsp)
            state_.sp = regs[u->alu1.rs1];
            NEXT();
        UOP(Addsp)
            state_.sp += sext32(u->alu1.imm);
            NEXT();

        UOP(BrEq)
            if (regs[u->alu1.rs1] == regs[u->alu1.rs2])
                goto br_taken;
            goto br_fall;
        UOP(BrNe)
            if (regs[u->alu1.rs1] != regs[u->alu1.rs2])
                goto br_taken;
            goto br_fall;
        UOP(BrLt)
            if (static_cast<std::int64_t>(regs[u->alu1.rs1]) <
                static_cast<std::int64_t>(regs[u->alu1.rs2]))
                goto br_taken;
            goto br_fall;
        UOP(BrGe)
            if (static_cast<std::int64_t>(regs[u->alu1.rs1]) >=
                static_cast<std::int64_t>(regs[u->alu1.rs2]))
                goto br_taken;
            goto br_fall;
        UOP(BrLtu)
            if (regs[u->alu1.rs1] < regs[u->alu1.rs2])
                goto br_taken;
            goto br_fall;
        UOP(BrGeu)
            if (regs[u->alu1.rs1] >= regs[u->alu1.rs2])
                goto br_taken;
            goto br_fall;
        UOP(AluBrEq)
            run_alu(regs, u->alu1);
            if (regs[u->alu2.rs1] == regs[u->alu2.rs2])
                goto br_taken;
            goto br_fall;
        UOP(AluBrNe)
            run_alu(regs, u->alu1);
            if (regs[u->alu2.rs1] != regs[u->alu2.rs2])
                goto br_taken;
            goto br_fall;
        UOP(AluBrLt)
            run_alu(regs, u->alu1);
            if (static_cast<std::int64_t>(regs[u->alu2.rs1]) <
                static_cast<std::int64_t>(regs[u->alu2.rs2]))
                goto br_taken;
            goto br_fall;
        UOP(AluBrGe)
            run_alu(regs, u->alu1);
            if (static_cast<std::int64_t>(regs[u->alu2.rs1]) >=
                static_cast<std::int64_t>(regs[u->alu2.rs2]))
                goto br_taken;
            goto br_fall;
        UOP(AluBrLtu)
            run_alu(regs, u->alu1);
            if (regs[u->alu2.rs1] < regs[u->alu2.rs2])
                goto br_taken;
            goto br_fall;
        UOP(AluBrGeu)
            run_alu(regs, u->alu1);
            if (regs[u->alu2.rs1] >= regs[u->alu2.rs2])
                goto br_taken;
            goto br_fall;

        UOP(Jmp)
            new_pc = zext32(u->imm);
            slot = kChainTaken;
            goto block_done;
        UOP(Jmpr)
            // trap_indirect_branch is off (run_tb precondition).
            new_pc = regs[u->alu1.rs1];
            slot = -1;
            goto block_done;
        UOP(Call) {
            // An eviction that must exit is exec_one's to report.
            if (evict_exit && ras_.full()) [[unlikely]]
                goto uop_bail;
            const Addr link = static_cast<Addr>(u->pc) + kInstrBytes;
            // Push the link without pre-decrementing sp so a stack fault
            // can still bail with nothing mutated.
            if (mem_->write(state_.sp - 8, 8, link) !=
                mem::MemResult::kOk) [[unlikely]]
                goto uop_bail;
            state_.sp -= 8;
            ras_.push(link);  // evicts silently, or not at all
            ++stats_.calls;
            new_pc = zext32(u->imm);
            if (callret_traced) [[unlikely]]
                goto traced_done;
            slot = kChainTaken;
            goto block_done;
        }
        UOP(Callr) {
            if (evict_exit && ras_.full()) [[unlikely]]
                goto uop_bail;
            const Addr link = static_cast<Addr>(u->pc) + kInstrBytes;
            if (mem_->write(state_.sp - 8, 8, link) !=
                mem::MemResult::kOk) [[unlikely]]
                goto uop_bail;
            state_.sp -= 8;
            ras_.push(link);
            ++stats_.calls;
            new_pc = regs[u->alu1.rs1];
            if (callret_traced) [[unlikely]]
                goto traced_done;
            slot = -1;
            goto block_done;
        }
        UOP(Ret) {
            Word target;
            if (mem_->read(state_.sp, 8, &target) !=
                mem::MemResult::kOk) [[unlikely]]
                goto uop_bail;
            // A return that would alarm is exec_one's to report.
            ras_.set_whitelist_enabled(vmcs_.controls.whitelist_enabled);
            if (ras_alarm &&
                !ras_.would_pass(static_cast<Addr>(u->pc), target))
                [[unlikely]]
                goto uop_bail;
            state_.sp += 8;
            ++stats_.rets;
            Addr predicted = 0;
            switch (ras_.predict(static_cast<Addr>(u->pc), target,
                                 &predicted)) {
              case RasPredict::kHit:
                ++stats_.ras_hits;
                break;
              case RasPredict::kHitRestored:
                ++stats_.ras_hits;
                ++stats_.ras_hits_restored;
                break;
              case RasPredict::kWhitelisted:
                ++stats_.ras_whitelisted;
                break;
              default:
                break;  // reached only with ras_alarm off: no alarm
            }
            new_pc = target;
            if (callret_traced) [[unlikely]]
                goto traced_done;
            slot = -1;
            goto block_done;
        }

        UOP(Fall)
            new_pc = static_cast<Addr>(u->pc);
            slot = kChainFall;
            goto block_done;
        UOP(Bail)
            // The instruction AT the exit PC is untranslatable; all len
            // instructions before it retired.
            done += tb->len;
            budget -= tb->len;
            pc = static_cast<Addr>(u->pc);
            goto bail_one;

#if !RSAFE_TB_THREADED
          case UopKind::kCount:
            break;
        }
        fault_reason_ = "corrupt translation block";
        return StepResult::kBadInstr;  // unreachable
#endif

      br_taken:
        new_pc = zext32(u->imm);
        slot = kChainTaken;
        goto block_done;
      br_fall:
        new_pc = static_cast<Addr>(u->pc) +
                 static_cast<Addr>(u->count) * kInstrBytes;
        slot = kChainFall;
        goto block_done;

      block_done:
        done += tb->len;
        budget -= tb->len;
        pc = new_pc;
        ++exec_blocks;
        progressed = true;
        if (slot >= 0) {
            TransBlock* next = tb->next[slot];
            if (next != nullptr) [[likely]] {
                ++chain_hits;
                tb = next;  // TB→TB: no dispatcher, no table probe
            } else {
                ++chain_misses;
                prev = tb;
                prev_slot = slot;
                tb = nullptr;
            }
        } else {
            tb = nullptr;  // indirect exit: always through the table
        }
        continue;

      block_cut: {
        // A store invalidated the containing block mid-flight. The store
        // itself retired; resume at the following instruction from
        // freshly translated bytes.
        const InstrCount retired = u->icount_off + 1;
        done += retired;
        budget -= retired;
        pc = static_cast<Addr>(u->pc) + kInstrBytes;
        tb = nullptr;
        prev = nullptr;
        progressed = true;
        continue;
      }

      traced_done: {
        // A traced call/ret (the alarm replayer's trap) has done its
        // stack, RAS and stats work and ends its block: retire the block,
        // then take the exit exactly as exec_one does. The handler sees
        // the clocks with the call/ret retired and pc still at it.
        done += tb->len;
        budget -= tb->len;
        ++exec_blocks;
        progressed = true;
        tb = nullptr;  // no chaining across a trap
        prev = nullptr;
        retire_and_trap(*u, new_pc, done);
        done = 0;
        pc = new_pc;
        // The trap's cycles void the one-cycle-per-instruction budget:
        // re-clamp it to the cycle stop (which the handler may also have
        // tightened), and stop here once that stop is reached.
        if (cycles_ >= run_stop_cycles_)
            break;
        if (budget > run_stop_cycles_ - cycles_)
            budget = run_stop_cycles_ - cycles_;
        continue;
      }

      uop_bail:
        // The current uop cannot run in translated form (fault path,
        // MMIO, a call whose RAS eviction must exit, or a return whose
        // RAS alarm must): nothing of it has retired.
        done += u->icount_off;
        budget -= u->icount_off;
        pc = static_cast<Addr>(u->pc);

      bail_one:
        tb = nullptr;
        prev = nullptr;
        if (budget == 0)
            break;
        spill();
        {
            const Cycles expect = cycles_ + 1;
            const StepResult result = exec_one();
            if (result != StepResult::kOk)
                return result;
            --budget;
            if (cycles_ != expect)
                return StepResult::kOk;  // VM exit: caller re-checks world
            pc = state_.pc;
            kernel = state_.mode == Mode::kKernel;
            callret_traced = kernel ? trace_kernel : trace_user;
            progressed = true;
        }
    }
    spill();
    return StepResult::kOk;
}

#undef UOP
#undef PUOP
#undef NEXT
#undef ENTER

}  // namespace rsafe::cpu
