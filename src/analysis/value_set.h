#ifndef RSAFE_ANALYSIS_VALUE_SET_H_
#define RSAFE_ANALYSIS_VALUE_SET_H_

#include <vector>

#include "analysis/cfg.h"
#include "analysis/lints.h"
#include "common/types.h"

/**
 * @file
 * Interprocedural value-set analysis over recovered CFGs.
 *
 * The pass answers two static questions about a set of guest images that
 * will run together:
 *
 *  1. For every indirect branch and indirect call, what targets can the
 *     transfer legally take? (the per-site CFI policy)
 *  2. Which pages can any reachable store write? (the static half of the
 *     W^X map; the other half — code pages — falls out of the image
 *     extents.)
 *
 * The register domain is deliberately simple: within a basic block each
 * register is a constant, a pointer into one declared memory region, a
 * value loaded from a statically-known table slot, or unknown. The
 * interprocedural component is the *store map*: constant-address stores
 * anywhere in any image feed the value sets of constant-address loads
 * anywhere else, which is exactly the shape of the assembler's
 * materialize-table-slot-then-dispatch idiom.
 *
 * Soundness discipline: any store whose address cannot be bounded widens
 * the analysis — a region-classified store widens every slot in that
 * region, and a fully unknown store widens every slot everywhere. A site
 * whose operand cannot be proven constant or table-loaded falls back to
 * the shared conservative target set (function entries, address-taken
 * code, external entries and call continuations across *all* images),
 * which over-approximates every control transfer a well-formed program
 * can make.
 */

namespace rsafe::analysis {

/** The statically resolved target set of one indirect transfer site. */
struct IndirectSite {
    Addr site = 0;       ///< pc of the jmpr/callr instruction
    bool is_call = false;
    /**
     * True when the analysis bounded the operand: @ref targets is the
     * exact legal set. False when the site degrades to the shared
     * fallback set (ValueSetResult::fallback) and @ref targets is empty.
     */
    bool resolved = false;
    std::vector<Addr> targets;  ///< sorted unique; empty unless resolved

    bool operator==(const IndirectSite&) const = default;
};

/** Everything the value-set pass derives from one image group. */
struct ValueSetResult {
    /** Every reachable indirect site across all images, sorted by pc. */
    std::vector<IndirectSite> sites;

    /**
     * Conservative any-indirect-transfer target set: function entries,
     * address-taken code constants, external entries and call/syscall
     * continuations, unioned across every analyzed image. Sorted unique.
     */
    std::vector<Addr> fallback;

    /**
     * Page-aligned regions some reachable store can write (the static
     * W^X "written" map). Sorted, coalesced, non-overlapping.
     */
    std::vector<Region> written;

    /**
     * True when a reachable store had a fully unknown address, forcing
     * @ref written to cover every declared writable region.
     */
    bool unbounded_store = false;
};

/** Declared memory shape consumed by the pass. */
struct ValueSetConfig {
    /** Declared writable/executable regions (store classification). */
    MemoryMap memory;
    /** Architectural stack regions (push/call spill classification). */
    std::vector<Region> stacks;
    /**
     * Declared function-pointer table regions (e.g. the layout's
     * dispatch-table slice). Table slots carry a write discipline: the
     * program stores into them only through materialized constant
     * addresses, never through computed pointers — the moral equivalent
     * of keeping vtables/GOT in relro pages. Under that declaration a
     * slot in a table region stays trackable even when some store
     * elsewhere in the group has an unboundable address (pointer-argument
     * stores such as jmp_buf spills), which would otherwise widen every
     * slot. The W^X written map ignores this declaration and stays fully
     * conservative.
     */
    std::vector<Region> tables;
};

/**
 * Run the pass over @p cfgs (one per image loaded into the same guest).
 * The CFGs must outlive the call only for its duration; the result owns
 * its data.
 */
ValueSetResult analyze_value_sets(const std::vector<const Cfg*>& cfgs,
                                  const ValueSetConfig& config);

}  // namespace rsafe::analysis

#endif  // RSAFE_ANALYSIS_VALUE_SET_H_
