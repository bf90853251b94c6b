#ifndef RSAFE_ANALYSIS_CFG_H_
#define RSAFE_ANALYSIS_CFG_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/decoded_image.h"
#include "common/types.h"
#include "isa/encoding.h"
#include "isa/program.h"

/**
 * @file
 * Control-flow-graph recovery over a guest image.
 *
 * The recoverer decodes every executable slot (via DecodedImage), splits
 * the instruction stream into basic blocks at the classic leader points
 * (image entry, branch/jump/call targets, instructions following a
 * control transfer, address-taken code constants), and attaches typed
 * successor edges. Reachability is computed from the structural roots
 * (image base, declared function entries, address-taken code constants);
 * unreached blocks that carry a symbol are then promoted to "external
 * entries" — continuation points the embedder enters from outside the
 * image, such as the kernel's host-seeded finish_kthread — and
 * reachability is re-propagated until a fixpoint.
 */

namespace rsafe::analysis {

/** How control reaches a successor block. */
enum class EdgeKind {
    kFallThrough,    ///< sequential successor / untaken branch
    kBranch,         ///< taken conditional branch
    kJump,           ///< unconditional direct jump
    kCall,           ///< direct call target
    kCallReturn,     ///< continuation after a call/callr returns
    kSyscallReturn,  ///< continuation after the kernel irets
};

/** @return a short name for @p kind (e.g., "call"). */
const char* edge_kind_name(EdgeKind kind);

/** A typed successor edge. */
struct Edge {
    Addr target = 0;
    EdgeKind kind = EdgeKind::kFallThrough;
};

/** One recovered basic block: slots [first_slot, first_slot+instr_count). */
struct BasicBlock {
    Addr begin = 0;
    Addr end = 0;  ///< one past the last byte
    std::size_t first_slot = 0;
    std::size_t instr_count = 0;
    std::vector<Edge> succs;
    bool reachable = false;
    bool external_entry = false;  ///< symbol-bearing orphan entry point
};

/**
 * Per-register constant state used by the analyses to fold the
 * ldi/ldiu/mov/addi chains the assembler emits for absolute addresses.
 * State is tracked flow-insensitively within a basic block (reset at
 * block entry), which is exactly the lifetime of the assembler's
 * materialize-then-use idiom.
 */
struct RegState {
    std::array<std::optional<std::uint64_t>, isa::kNumRegs> regs;

    /** Fold @p instr into the state (clobbers non-foldable defs). */
    void apply(const isa::Instr& instr);

    /** @return the known constant in register @p reg, if any. */
    std::optional<std::uint64_t> get(std::uint8_t reg) const
    {
        return regs[reg];
    }
};

/** The recovered control-flow graph of one image. */
class Cfg {
  public:
    explicit Cfg(const DecodedImage& decoded);

    /** @return all blocks in address order. */
    const std::vector<BasicBlock>& blocks() const { return blocks_; }

    /** @return the block starting exactly at @p addr, or nullptr. */
    const BasicBlock* block_starting(Addr addr) const;

    /** @return sorted unique in-image direct call targets. */
    const std::vector<Addr>& call_targets() const { return call_targets_; }

    /**
     * @return sorted unique aligned in-image code addresses materialized
     * by ldi (address-taken code: continuation/handler pointers).
     */
    const std::vector<Addr>& address_taken() const { return address_taken_; }

    /** @return entries promoted from symbol-bearing orphan blocks. */
    const std::vector<Addr>& external_entries() const
    {
        return external_entries_;
    }

    /** @return the decode walk this CFG was built from. */
    const DecodedImage& decoded() const { return *decoded_; }

  private:
    void compute_leaders();
    void build_blocks();
    void compute_reachability();
    void mark_reachable_from(Addr root);

    const DecodedImage* decoded_;
    std::vector<BasicBlock> blocks_;
    std::vector<Addr> call_targets_;
    std::vector<Addr> address_taken_;
    std::vector<Addr> external_entries_;
    std::vector<bool> is_leader_;  ///< indexed by slot
};

}  // namespace rsafe::analysis

#endif  // RSAFE_ANALYSIS_CFG_H_
