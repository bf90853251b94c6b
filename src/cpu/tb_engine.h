#ifndef RSAFE_CPU_TB_ENGINE_H_
#define RSAFE_CPU_TB_ENGINE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/flat_addr_set.h"
#include "common/types.h"
#include "cpu/vmcs.h"
#include "mem/phys_mem.h"
#include "stats/stats.h"

/**
 * @file
 * The translation-block execution engine (QEMU-TCG structure, no host
 * code emitter).
 *
 * The reference interpreter (Cpu::exec_one) pays, per guest
 * instruction, for a permission-checked fetch, a decode, and
 * program-counter and stop-condition bookkeeping. This engine, the
 * simulator's one fast tier, removes all of that from the hot path by
 * decoding each guest *basic block* once into a flat micro-op trace:
 *
 *  - operand kinds are pre-resolved at translation time: every single
 *    ALU form is its own micro-op opcode (reg-reg vs reg-imm vs
 *    constant load, shift immediates pre-masked), so execution is one
 *    dispatch and the ALU expression — no re-inspection of the encoding
 *    and no second decode layer,
 *  - common pairs are fused into one micro-op (the cmp+branch loop
 *    idiom ALU+Bcc, load+ALU, and the ldi/ldiu 64-bit constant build),
 *  - dependent ALU pairs — the second op consumes the first op's result
 *    — fuse into *superinstructions*: one handler per (op1, op2)
 *    combination, macro-generated over the core ALU vocabulary, so both
 *    operations execute inline behind a single dispatch and the
 *    intermediate value travels in a host register instead of through a
 *    store-to-load forward in the guest register file,
 *  - direct jumps with aligned targets are folded into the trace: the
 *    block simply continues at the jump target (the jump still retires
 *    one instruction), so hot loops unroll up to the block cap and the
 *    backedge costs zero dispatches,
 *  - blocks are found by a direct-mapped lookup table keyed by guest PC,
 *    and direct exits (branch taken/fall-through, residual jumps, direct
 *    calls) are *chained*: the exiting block caches a pointer to its
 *    successor, so hot paths run TB→TB without another table probe,
 *  - dispatch is direct-threaded (computed goto) where the compiler
 *    supports it, with a portable switch fallback,
 *  - validity is maintained eagerly: the engine registers a
 *    mem::CodeWriteListener, and any code write to a covered page
 *    invalidates the block, severs every chain link into and out of it,
 *    and removes it from the lookup table. A store executed *inside* a
 *    block re-checks its own block's validity, so self-modifying code
 *    exits at the store and re-translates (mid-block write safety).
 *
 * Determinism: a translated run retires exactly the same instruction
 * sequence, side effects, cycle charges (one per instruction) and RAS
 * traffic as the reference interpreter; anything the flat trace
 * cannot reproduce exactly (privileged ops, I/O, traps, faults, MMIO)
 * bails out to Cpu::exec_one, the single canonical implementation.
 * Call/ret run inside blocks even while the recorder monitors the RAS
 * or the alarm replayer traces them. A traced call/ret ends its block
 * and takes its trap there: the block retires, kVmTransition is charged
 * and the call/ret handler fires with the clocks and pc exec_one shows
 * it, then the instruction budget is re-clamped to the cycle stop. They
 * bail, before mutating anything, only when the call would evict under
 * an eviction exit or the return would fail its prediction under RAS
 * alarms, so those exits fire from exec_one at their usual icount.
 * Replay barriers are
 * respected by budget: a block is only entered whole when the remaining
 * instruction budget covers it, so execution stops exactly at
 * perf-counter stops, interrupt-injection icounts and checkpoint
 * boundaries.
 * Cpu::set_tb_enabled(false) single-steps exec_one instead, which is the
 * reference every TB on/off A/B test holds this engine against.
 */

namespace rsafe::cpu {

/**
 * Pre-resolved ALU operation. The order of the enumerators mirrors the
 * single-ALU prefix of UopKind exactly (translation maps one onto the
 * other by value); AluFn itself survives only in the secondary slot of
 * fused pairs, which execute it through one small switch.
 */
enum class AluFn : std::uint8_t {
    kAddRR, kSubRR, kMulRR, kDivuRR, kAndRR, kOrRR, kXorRR, kShlRR, kShrRR,
    kAddI, kAndI, kOrI, kXorI, kShlI, kShrI,
    kLdi,   ///< rd = sext(imm)
    kLdiu,  ///< rd = (rd << 32) | zext(imm)
    kMov,   ///< rd = rs1
    kNop,
};

/** Branch conditions, in the order of the kBrEq.. / kAluBrEq.. kinds. */
enum class BrCond : std::uint8_t { kEq, kNe, kLt, kGe, kLtu, kGeu };

/**
 * X-macro for the ALU-pair superinstruction kinds: op2 (the consumer)
 * vocabulary for a fixed op1. Every op here reads rs1, which the fused
 * handler replaces with op1's result. Order defines enum layout —
 * pair_op2_index() in tb_engine.cc must match.
 */
#define RSAFE_TB_OP2_LIST(X, f1) \
    X(f1, AddRR) X(f1, SubRR) X(f1, MulRR) X(f1, AndRR) X(f1, OrRR) \
    X(f1, XorRR) X(f1, ShlRR) X(f1, ShrRR) X(f1, AddI) X(f1, AndI) \
    X(f1, OrI) X(f1, XorI) X(f1, ShlI) X(f1, ShrI) X(f1, Mov)

/**
 * All (op1, op2) superinstruction combinations: op1 is any result
 * producer (including constant loads), op2 any rs1 consumer. Divu is
 * excluded from both slots (its zero-divisor test would bloat every
 * handler it appears in). Order defines enum layout — pair_op1_index()
 * in tb_engine.cc must match.
 */
#define RSAFE_TB_FOR_EACH_PAIR(X) \
    RSAFE_TB_OP2_LIST(X, AddRR) RSAFE_TB_OP2_LIST(X, SubRR) \
    RSAFE_TB_OP2_LIST(X, MulRR) RSAFE_TB_OP2_LIST(X, AndRR) \
    RSAFE_TB_OP2_LIST(X, OrRR) RSAFE_TB_OP2_LIST(X, XorRR) \
    RSAFE_TB_OP2_LIST(X, ShlRR) RSAFE_TB_OP2_LIST(X, ShrRR) \
    RSAFE_TB_OP2_LIST(X, AddI) RSAFE_TB_OP2_LIST(X, AndI) \
    RSAFE_TB_OP2_LIST(X, OrI) RSAFE_TB_OP2_LIST(X, XorI) \
    RSAFE_TB_OP2_LIST(X, ShlI) RSAFE_TB_OP2_LIST(X, ShrI) \
    RSAFE_TB_OP2_LIST(X, Mov) RSAFE_TB_OP2_LIST(X, Ldi)

/** One pre-resolved ALU slot of a micro-op (8 bytes). */
struct AluSpec {
    AluFn fn = AluFn::kNop;
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    std::int32_t imm = 0;  ///< sext for ALU/disp; shifts are pre-masked
};

/**
 * Micro-op kinds: one handler per pre-resolved operation so the hot
 * loop is a single dispatch per micro-op. The kBrEq.. group and the
 * kAluBrEq.. group are each laid out in BrCond order.
 */
enum class UopKind : std::uint16_t {
    // Single ALU ops; order mirrors AluFn exactly. All use alu1.
    kAddRR, kSubRR, kMulRR, kDivuRR, kAndRR, kOrRR, kXorRR, kShlRR, kShrRR,
    kAddI, kAndI, kOrI, kXorI, kShlI, kShrI,
    kLdi, kLdiu, kMov, kNop,

    // Fused pairs.
    kLdi64,     ///< ldi+ldiu: alu1.rd = (sext(alu1.imm) << 32) | zext(imm)
    kLdAlu,     ///< kLd (alu1), then the ALU op in alu2

    // Memory and stack.
    kLd,        ///< alu1.rd = mem64[alu1.rs1 + alu1.imm]
    kLdb,       ///< alu1.rd = mem8[alu1.rs1 + alu1.imm]
    kSt,        ///< mem64[alu1.rs1 + alu1.imm] = alu1.rs2
    kStb,       ///< mem8[alu1.rs1 + alu1.imm] = alu1.rs2 & 0xff
    kPush,      ///< sp -= 8; mem64[sp] = alu1.rs1
    kPop,       ///< alu1.rd = mem64[sp]; sp += 8
    kGetsp,     ///< alu1.rd = sp
    kSetsp,     ///< sp = alu1.rs1
    kAddsp,     ///< sp += sext(alu1.imm)

    // Terminators. Conditional branches compare alu1.rs1/alu1.rs2;
    // the fused forms run alu1 first and compare alu2.rs1/alu2.rs2.
    // Taken/jump/call targets are in imm.
    kBrEq, kBrNe, kBrLt, kBrGe, kBrLtu, kBrGeu,
    kAluBrEq, kAluBrNe, kAluBrLt, kAluBrGe, kAluBrLtu, kAluBrGeu,
    kJmp,       ///< residual direct jump (unaligned target: not folded)
    kJmpr,      ///< pc = alu1.rs1 (indirect exit)
    kCall,      ///< push link/RAS, pc = imm (direct exit)
    kCallr,     ///< push link/RAS, pc = alu1.rs1 (indirect exit)
    kRet,       ///< pop/RAS predict, indirect exit
    kFall,      ///< cap or page budget reached: side-exit to pc
    kBail,      ///< instruction at pc is untranslatable: leave to exec_one

    /**
     * ALU-pair superinstructions kP_<op1>_<op2>: alu1 (op1) executes,
     * its result lands in regs[alu1.rd] AND feeds op2's rs1 operand
     * directly; alu2 (op2) executes with that value. Emitted only when
     * translation proves alu2.rs1 == alu1.rd.
     */
#define RSAFE_TB_PAIR_ENUM(f1, f2) kP_##f1##_##f2,
    RSAFE_TB_FOR_EACH_PAIR(RSAFE_TB_PAIR_ENUM)
#undef RSAFE_TB_PAIR_ENUM

    kCount,
};

/** One micro-op of a translated block (40 bytes). */
struct Uop {
    UopKind kind = UopKind::kNop;
    std::uint8_t count = 1;        ///< guest instructions this uop retires
    std::uint8_t pad = 0;
    std::uint32_t pc = 0;          ///< absolute guest PC (kFall/kBail: exit PC)
    /**
     * Direct-threaded handler address for this uop's kind (the dispatch
     * table entry, copied in at translation time so the hot loop pays one
     * load instead of two dependent ones). Null under the switch
     * fallback, which dispatches on kind.
     */
    const void* h = nullptr;
    AluSpec alu1;                  ///< primary slot (see UopKind)
    AluSpec alu2;                  ///< secondary slot of fused pairs
    std::int32_t imm = 0;          ///< branch/jump/call target (absolute)
    std::uint16_t icount_off = 0;  ///< instructions retired before this uop
};

/** Chain slots of a block's direct exits. */
enum : int {
    kChainTaken = 0,  ///< branch taken / direct jump / direct call target
    kChainFall = 1,   ///< branch fall-through / side-exit continuation
};

/** A translated basic block (or jump-folded trace). */
struct TransBlock {
    Addr pc = 0;                   ///< guest PC of the first instruction
    std::uint32_t len = 0;         ///< guest instructions retired when run
    bool valid = false;
    std::uint8_t num_pages = 1;    ///< pages covered (1 or 2)
    Addr pages[2] = {0, 0};        ///< covered page numbers
    std::vector<Uop> uops;
    TransBlock* next[2] = {nullptr, nullptr};  ///< chained successors
    /** Blocks whose next[slot] points at this block (for unchaining). */
    std::vector<std::pair<TransBlock*, int>> incoming;
};

/** Engine-internal event counters (not part of the determinism gate). */
struct TbEngineStats {
    std::uint64_t translated = 0;     ///< blocks translated
    std::uint64_t chain_hits = 0;     ///< TB→TB transitions via a chain
    std::uint64_t chain_misses = 0;   ///< direct exits that needed a lookup
    std::uint64_t invalidations = 0;  ///< blocks invalidated by code writes
    std::uint64_t flushes = 0;        ///< whole-cache flushes
    std::uint64_t exec_blocks = 0;    ///< whole blocks executed
};

/**
 * The translation cache: block storage, direct-mapped PC lookup,
 * chaining bookkeeping, and write-driven invalidation.
 *
 * Execution itself lives in Cpu::run_tb (tb_engine.cc), which needs the
 * CPU's register file; the engine owns everything with a lifetime.
 */
class TbEngine : public mem::CodeWriteListener {
  public:
    /** Guest instructions retired per block, at most. */
    static constexpr std::uint32_t kMaxBlockInstrs = 128;
    /** Direct-mapped lookup table entries (power of two). */
    static constexpr std::size_t kLookupEntries = 8192;
    /** Translated blocks retained before a full flush. */
    static constexpr std::size_t kMaxBlocks = 16384;

    explicit TbEngine(mem::PhysMem* mem);
    ~TbEngine() override;

    TbEngine(const TbEngine&) = delete;
    TbEngine& operator=(const TbEngine&) = delete;

    /** @return the valid block starting at @p pc, or nullptr on miss. */
    TransBlock* lookup(Addr pc)
    {
        const Slot& slot = table_[index_of(pc)];
        if (slot.tb != nullptr && slot.pc == pc) [[likely]]
            return slot.tb;
        return nullptr;
    }

    /**
     * Translate the block starting at @p pc and install it in the lookup
     * table. @return nullptr if no instruction at @p pc is translatable
     * (not executable, unaligned, undecodable, or a bail-only opcode) —
     * the caller falls back to the interpreter for that instruction.
     */
    TransBlock* translate(Addr pc);

    /** Record that @p from's direct exit @p slot continues at @p to. */
    void chain(TransBlock* from, int slot, TransBlock* to);

    /** @return true when the block store is due for a full flush. */
    bool should_flush() const { return blocks_.size() >= kMaxBlocks; }

    /**
     * Drop every translated block. Callers must hold no TransBlock
     * pointers across this call.
     */
    void flush();

    /**
     * Adopt the CPU's current PC-breakpoint set. Translation refuses to
     * start a block at a breakpoint (the hook has to fire from run()
     * before the instruction executes) and cuts every block short of one,
     * so chained TB-to-TB flow can never sail past a breakpoint. A
     * changed set flushes the cache; callers must hold no TransBlock
     * pointers across this call. An unchanged set costs one compare of
     * generations.
     */
    void sync_breakpoints(const BreakpointSet& bps)
    {
        if (bps.gen() != bp_gen_) [[unlikely]]
            adopt_breakpoints(bps);
    }

    /** @return true when @p pc carries a breakpoint (synced view). */
    bool is_breakpoint(Addr pc) const { return bp_pcs_.contains(pc); }

    // mem::CodeWriteListener: eager invalidate + unchain on code writes.
    void on_code_page_touched(Addr page) override;

    const TbEngineStats& stats() const { return stats_; }
    /** Distribution of translated block lengths (guest instructions). */
    const stats::Histogram& block_length_hist() const { return block_len_; }

  private:
    friend class Cpu;  ///< Cpu::run_tb updates the event counters inline.

    /**
     * The computed-goto dispatch table, registered by Cpu::run_tb on its
     * first call (the labels are function-local). Indexed by UopKind;
     * stays null when the portable switch fallback is compiled in.
     */
    const void* const* dispatch_ = nullptr;

    struct Slot {
        Addr pc = 0;
        TransBlock* tb = nullptr;
    };

    static std::size_t index_of(Addr pc)
    {
        return (pc / kInstrBytes) & (kLookupEntries - 1);
    }

    void invalidate(TransBlock* tb);
    void adopt_breakpoints(const BreakpointSet& bps);

    mem::PhysMem* mem_;
    std::vector<std::unique_ptr<TransBlock>> blocks_;
    std::vector<Slot> table_;
    /** Valid blocks covering each page (invalid entries are skipped). */
    std::vector<std::vector<TransBlock*>> page_tbs_;
    TbEngineStats stats_;
    stats::Histogram block_len_;
    /** Snapshot of the CPU's PC breakpoints (sync_breakpoints): the
     *  generation for change detection, the PCs for is_breakpoint. */
    std::uint64_t bp_gen_ = 0;
    FlatAddrSet bp_pcs_;
};

}  // namespace rsafe::cpu

#endif  // RSAFE_CPU_TB_ENGINE_H_
