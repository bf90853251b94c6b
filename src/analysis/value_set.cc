#include "analysis/value_set.h"

#include <algorithm>
#include <map>
#include <set>

namespace rsafe::analysis {

namespace {

using isa::Instr;
using isa::Opcode;

/** Abstract register contents within one basic block. */
struct AbsValue {
    enum class Kind : std::uint8_t {
        kUnknown,
        kConst,     ///< value holds the constant
        kRegion,    ///< pointer somewhere into regions[region]
        kStackPtr,  ///< derived from the architectural stack pointer
        kSlotLoad,  ///< loaded from the 8-byte slot at `value`
    };
    Kind kind = Kind::kUnknown;
    std::uint64_t value = 0;
    int region = -1;

    static AbsValue unknown() { return {}; }
    static AbsValue constant(std::uint64_t v)
    {
        return {Kind::kConst, v, -1};
    }
};

/** Per-block abstract state (reset at block entry, like RegState). */
struct AbsState {
    std::array<AbsValue, isa::kNumRegs> regs;

    const AbsValue& get(std::uint8_t reg) const { return regs[reg]; }
    void set(std::uint8_t reg, AbsValue v) { regs[reg] = v; }
};

/** What the store-collection phase learned about one 8-byte slot. */
struct SlotInfo {
    std::set<std::uint64_t> values;
    bool widened = false;  ///< byte store / unknown value hit the slot
};

/** Shared context for both analysis phases. */
struct Pass {
    const ValueSetConfig* config;
    std::vector<Region> writable;  ///< declared writable ∪ stacks

    // Phase A products.
    std::map<std::uint64_t, SlotInfo> store_map;
    std::set<int> tainted_regions;  ///< indexes into writable
    std::set<Addr> store_pages;     ///< page bases of const-addr stores
    bool stack_written = false;
    bool unbounded_store = false;

    explicit Pass(const ValueSetConfig& cfg) : config(&cfg)
    {
        writable = cfg.memory.writable;
        writable.insert(writable.end(), cfg.stacks.begin(),
                        cfg.stacks.end());
    }

    bool in_stack(std::uint64_t addr) const
    {
        return std::any_of(config->stacks.begin(), config->stacks.end(),
                           [addr](const Region& r) {
                               return r.contains(addr);
                           });
    }

    bool in_table(std::uint64_t addr) const
    {
        return std::any_of(config->tables.begin(), config->tables.end(),
                           [addr](const Region& r) {
                               return r.contains(addr);
                           });
    }

    /** Fold @p instr into @p state (the abstract transfer function). */
    void
    apply(const Instr& instr, AbsState& state) const
    {
        const AbsValue& s1 = state.get(instr.rs1);
        const AbsValue& s2 = state.get(instr.rs2);
        switch (instr.op) {
        case Opcode::kLdi:
            state.set(instr.rd, AbsValue::constant(
                                    static_cast<std::uint64_t>(instr.simm())));
            break;
        case Opcode::kLdiu: {
            const AbsValue& prev = state.get(instr.rd);
            if (prev.kind == AbsValue::Kind::kConst) {
                state.set(instr.rd, AbsValue::constant(
                                        (prev.value << 32) | instr.uimm()));
            } else {
                state.set(instr.rd, AbsValue::unknown());
            }
            break;
        }
        case Opcode::kMov:
            state.set(instr.rd, s1);
            break;
        case Opcode::kAddi:
            if (s1.kind == AbsValue::Kind::kConst) {
                state.set(instr.rd,
                          AbsValue::constant(
                              s1.value +
                              static_cast<std::uint64_t>(instr.simm())));
            } else if (s1.kind == AbsValue::Kind::kRegion ||
                       s1.kind == AbsValue::Kind::kStackPtr) {
                state.set(instr.rd, s1);  // offset stays within the region
            } else {
                state.set(instr.rd, AbsValue::unknown());
            }
            break;
        case Opcode::kAdd:
        case Opcode::kSub: {
            if (s1.kind == AbsValue::Kind::kConst &&
                s2.kind == AbsValue::Kind::kConst) {
                const std::uint64_t v = instr.op == Opcode::kAdd
                                            ? s1.value + s2.value
                                            : s1.value - s2.value;
                state.set(instr.rd, AbsValue::constant(v));
                break;
            }
            // Pointer arithmetic: region/stack provenance survives an
            // add/sub with any offset operand.
            const AbsValue* ptr = nullptr;
            if (s1.kind == AbsValue::Kind::kRegion ||
                s1.kind == AbsValue::Kind::kStackPtr) {
                ptr = &s1;
            } else if (instr.op == Opcode::kAdd &&
                       (s2.kind == AbsValue::Kind::kRegion ||
                        s2.kind == AbsValue::Kind::kStackPtr)) {
                ptr = &s2;
            }
            state.set(instr.rd, ptr != nullptr ? *ptr : AbsValue::unknown());
            break;
        }
        case Opcode::kLd:
            if (s1.kind == AbsValue::Kind::kConst) {
                AbsValue v;
                v.kind = AbsValue::Kind::kSlotLoad;
                v.value = s1.value + static_cast<std::uint64_t>(instr.simm());
                state.set(instr.rd, v);
            } else {
                state.set(instr.rd, AbsValue::unknown());
            }
            break;
        case Opcode::kGetsp: {
            AbsValue v;
            v.kind = AbsValue::Kind::kStackPtr;
            state.set(instr.rd, v);
            break;
        }
        case Opcode::kMul:
        case Opcode::kDivu:
        case Opcode::kAnd:
        case Opcode::kOr:
        case Opcode::kXor:
        case Opcode::kShl:
        case Opcode::kShr:
        case Opcode::kAndi:
        case Opcode::kOri:
        case Opcode::kXori:
        case Opcode::kShli:
        case Opcode::kShri:
        case Opcode::kLdb:
        case Opcode::kPop:
        case Opcode::kRdtsc:
        case Opcode::kIn:
            // Defining opcodes the domain does not model.
            state.set(instr.rd, AbsValue::unknown());
            break;
        default:
            // Stores, branches, stack/sp ops, syscalls: no GPR def. A
            // call or syscall ends its basic block, so callee clobbers
            // never leak into this block-local state.
            break;
        }
    }

    /**
     * Classify the address operand of a store and record its effect.
     * @return the slot address when the store address is a constant.
     */
    void
    record_store(const Instr& instr, const AbsState& state)
    {
        const AbsValue& base = state.get(instr.rs1);
        switch (base.kind) {
        case AbsValue::Kind::kConst: {
            const std::uint64_t addr =
                base.value + static_cast<std::uint64_t>(instr.simm());
            const std::uint64_t slot = addr & ~std::uint64_t{7};
            SlotInfo& info = store_map[slot];
            const AbsValue& val = state.get(instr.rs2);
            if (instr.op == Opcode::kSt &&
                val.kind == AbsValue::Kind::kConst && addr == slot) {
                info.values.insert(val.value);
            } else {
                info.widened = true;  // byte / misaligned / unknown value
            }
            store_pages.insert(page_base(addr));
            break;
        }
        case AbsValue::Kind::kStackPtr:
            stack_written = true;
            break;
        case AbsValue::Kind::kRegion:
            tainted_regions.insert(base.region);
            break;
        case AbsValue::Kind::kSlotLoad:
        case AbsValue::Kind::kUnknown:
            unbounded_store = true;
            break;
        }
    }

    /** Phase A: collect every reachable store across all images. */
    void
    collect_stores(const Cfg& cfg)
    {
        for (const BasicBlock& block : cfg.blocks()) {
            if (!block.reachable)
                continue;
            AbsState state;
            for (std::size_t i = 0; i < block.instr_count; ++i) {
                const Slot& slot = cfg.decoded().slots()[block.first_slot + i];
                if (!slot.valid)
                    continue;
                const Instr& instr = slot.instr;
                if (instr.op == Opcode::kSt || instr.op == Opcode::kStb)
                    record_store(instr, state);
                else if (instr.op == Opcode::kPush ||
                         instr.op == Opcode::kCall ||
                         instr.op == Opcode::kCallr)
                    stack_written = true;
                apply(instr, state);
            }
        }
    }

    /** @return true when loads from @p slot cannot be widened away. */
    bool
    slot_is_stable(std::uint64_t slot) const
    {
        if (in_table(slot)) {
            // Declared write-disciplined table memory: only stores the
            // pass actually classified into a region overlapping the
            // slot (or the slot's own const-addr widening, handled by
            // the caller) can disturb it. Unboundable pointer-argument
            // stores elsewhere in the group do not.
            for (int idx : tainted_regions) {
                if (writable[static_cast<std::size_t>(idx)].contains(slot))
                    return false;
            }
            return true;
        }
        if (unbounded_store)
            return false;
        for (int idx : tainted_regions) {
            if (writable[static_cast<std::size_t>(idx)].contains(slot))
                return false;
        }
        if (stack_written && in_stack(slot))
            return false;
        return true;
    }

    /** Phase B: resolve every reachable indirect site. */
    void
    resolve_sites(const Cfg& cfg, std::vector<IndirectSite>& sites) const
    {
        for (const BasicBlock& block : cfg.blocks()) {
            if (!block.reachable)
                continue;
            AbsState state;
            for (std::size_t i = 0; i < block.instr_count; ++i) {
                const Slot& slot = cfg.decoded().slots()[block.first_slot + i];
                if (!slot.valid)
                    continue;
                const Instr& instr = slot.instr;
                if (instr.op == Opcode::kJmpr ||
                    instr.op == Opcode::kCallr) {
                    IndirectSite site;
                    site.site = slot.addr;
                    site.is_call = instr.op == Opcode::kCallr;
                    resolve_operand(state.get(instr.rs1), site);
                    sites.push_back(site);
                }
                apply(instr, state);
            }
        }
    }

    void
    resolve_operand(const AbsValue& operand, IndirectSite& site) const
    {
        switch (operand.kind) {
        case AbsValue::Kind::kConst:
            site.resolved = true;
            site.targets = {operand.value};
            break;
        case AbsValue::Kind::kSlotLoad: {
            if (!slot_is_stable(operand.value))
                break;
            auto it = store_map.find(operand.value);
            // A slot with no static store is seeded from outside the
            // analyzed images (e.g. host-written task entries): its
            // contents are unknowable here, so fall back.
            if (it == store_map.end() || it->second.widened ||
                it->second.values.empty())
                break;
            site.resolved = true;
            site.targets.assign(it->second.values.begin(),
                                it->second.values.end());
            break;
        }
        default:
            break;
        }
    }
};

void
append_page_region(std::vector<Region>& out, Addr begin, Addr end)
{
    out.push_back(Region{page_base(begin),
                         page_base(end - 1) + kPageSize});
}

std::vector<Region>
coalesce(std::vector<Region> regions)
{
    std::sort(regions.begin(), regions.end(),
              [](const Region& a, const Region& b) {
                  return a.begin != b.begin ? a.begin < b.begin
                                            : a.end < b.end;
              });
    std::vector<Region> out;
    for (const Region& r : regions) {
        if (r.end <= r.begin)
            continue;
        if (!out.empty() && r.begin <= out.back().end)
            out.back().end = std::max(out.back().end, r.end);
        else
            out.push_back(r);
    }
    return out;
}

}  // namespace

ValueSetResult
analyze_value_sets(const std::vector<const Cfg*>& cfgs,
                   const ValueSetConfig& config)
{
    Pass pass(config);
    for (const Cfg* cfg : cfgs)
        pass.collect_stores(*cfg);

    ValueSetResult result;
    for (const Cfg* cfg : cfgs)
        pass.resolve_sites(*cfg, result.sites);
    std::sort(result.sites.begin(), result.sites.end(),
              [](const IndirectSite& a, const IndirectSite& b) {
                  return a.site < b.site;
              });

    // The fallback set: everything a well-formed indirect transfer in
    // this image group could legally reach.
    std::set<Addr> fallback;
    for (const Cfg* cfg : cfgs) {
        const auto& image = cfg->decoded().image();
        for (const auto& [name, range] : image.functions())
            fallback.insert(range.begin);
        fallback.insert(cfg->call_targets().begin(),
                        cfg->call_targets().end());
        fallback.insert(cfg->address_taken().begin(),
                        cfg->address_taken().end());
        fallback.insert(cfg->external_entries().begin(),
                        cfg->external_entries().end());
        for (const BasicBlock& block : cfg->blocks()) {
            if (!block.reachable)
                continue;
            for (const Edge& edge : block.succs) {
                if (edge.kind == EdgeKind::kCallReturn ||
                    edge.kind == EdgeKind::kSyscallReturn)
                    fallback.insert(edge.target);
            }
        }
    }
    result.fallback.assign(fallback.begin(), fallback.end());

    // Static W^X written map.
    result.unbounded_store = pass.unbounded_store;
    std::vector<Region> written;
    if (pass.unbounded_store) {
        for (const Region& r : pass.writable)
            append_page_region(written, r.begin, r.end);
    } else {
        for (Addr page : pass.store_pages)
            written.push_back(Region{page, page + kPageSize});
        for (int idx : pass.tainted_regions) {
            const Region& r = pass.writable[static_cast<std::size_t>(idx)];
            append_page_region(written, r.begin, r.end);
        }
        if (pass.stack_written) {
            for (const Region& r : config.stacks)
                append_page_region(written, r.begin, r.end);
        }
    }
    result.written = coalesce(std::move(written));
    return result;
}

}  // namespace rsafe::analysis
