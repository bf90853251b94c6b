#ifndef RSAFE_MEM_PHYS_MEM_H_
#define RSAFE_MEM_PHYS_MEM_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/types.h"
#include "isa/program.h"
#include "mem/zeroed_buffer.h"

/**
 * @file
 * Guest physical memory with page permissions and dirty tracking.
 *
 * The guest runs with a flat physical mapping (no guest paging): the memory
 * system's job here is (a) byte/word storage, (b) the W^X permission policy
 * that motivates code-reuse attacks (Appendix A of the paper), and (c) the
 * per-page dirty tracking that the checkpointing replayer's incremental
 * copy-on-write checkpoints are built from (Section 4.6.1).
 *
 * This is the simulator's hottest data structure, so the bookkeeping is
 * designed for the access pattern of a tight interpreter loop:
 *  - dirty pages live in a bitmap (one bit per page) with a cached count,
 *  - every content-changing operation on a page that is (or could
 *    become) executable notifies the code-write listeners, which is how
 *    the translation-block engine drops stale blocks eagerly,
 *  - clear_dirty() advances a global epoch, and each page remembers the
 *    last epoch it was dirtied in, which lets checkpoint restore touch
 *    only the pages that actually changed since the checkpoint was taken,
 *  - the bytes are lazily zeroed (ZeroedBuffer), and every writer marks
 *    its page dirty, so a page whose epoch is still 0 was never written
 *    and is all zeros: page_untouched() lets checkpoints and the content
 *    hash skip it without reading it.
 */

namespace rsafe::mem {

/** Per-page permission bits. */
enum PagePerm : std::uint8_t {
    kPermNone = 0,
    kPermRead = 1 << 0,
    kPermWrite = 1 << 1,
    kPermExec = 1 << 2,
    kPermRW = kPermRead | kPermWrite,
    kPermRX = kPermRead | kPermExec,
    kPermRWX = kPermRead | kPermWrite | kPermExec,
};

/** Result of a guest memory access. */
enum class MemResult {
    kOk,
    kOutOfRange,   ///< address beyond configured RAM
    kNoPerm,       ///< permission violation (e.g., store to an X page)
};

/**
 * Observer of code-page modifications.
 *
 * Invoked synchronously whenever the bytes or fetchability of a page
 * that is (or could become) executable may have changed: on set_perms,
 * restore_page, write_block/write_raw, and any guest store landing on an
 * X page. The translation-block engine registers one of these to eagerly
 * invalidate and unchain translated blocks. Callbacks run on the owning
 * VM's execution thread and must not re-enter PhysMem.
 */
class CodeWriteListener {
  public:
    virtual ~CodeWriteListener() = default;
    /** Page @p page's code may have changed. */
    virtual void on_code_page_touched(Addr page) = 0;
};

/** Flat guest RAM with page permissions and dirty-page tracking. */
class PhysMem {
  public:
    /** Create @p size bytes of RAM (rounded up to whole pages), all RW. */
    explicit PhysMem(std::size_t size);

    /** @return RAM size in bytes. */
    std::size_t size() const { return bytes_.size(); }

    /** @return number of RAM pages. */
    std::size_t num_pages() const { return bytes_.size() / kPageSize; }

    /** Set the permissions of every page overlapping [addr, addr+len). */
    void set_perms(Addr addr, std::size_t len, std::uint8_t perms);

    /** @return the permission bits of the page containing @p addr. */
    std::uint8_t perms_at(Addr addr) const;

    /**
     * Guest data read of @p len <= 8 bytes (little-endian). The common
     * case — a whole word inside one readable page — is inline; byte
     * loads, page-straddling loads and faults take the out-of-line path.
     */
    MemResult read(Addr addr, std::size_t len, Word* out) const
    {
        if (kLittleEndianHost && len == 8 && addr < bytes_.size() &&
            page_offset(addr) <= kPageSize - 8 &&
            (perms_[page_of(addr)] & kPermRead) != 0) [[likely]] {
            std::memcpy(out, bytes_.data() + addr, 8);
            return MemResult::kOk;
        }
        return read_slow(addr, len, out);
    }

    /**
     * Guest data write of @p len <= 8 bytes; honors W and marks dirty.
     * Inline for a whole word inside one writable, non-executable page;
     * stores to X pages (which must notify code-write listeners), byte
     * stores, page-straddling stores and faults go out of line.
     */
    MemResult write(Addr addr, std::size_t len, Word value)
    {
        if (kLittleEndianHost && len == 8 && addr < bytes_.size() &&
            page_offset(addr) <= kPageSize - 8) [[likely]] {
            const Addr page = page_of(addr);
            if ((perms_[page] & (kPermWrite | kPermExec)) ==
                kPermWrite) [[likely]] {
                std::memcpy(bytes_.data() + addr, &value, 8);
                mark_dirty_page(page);
                return MemResult::kOk;
            }
        }
        return write_slow(addr, len, value);
    }

    /** Instruction fetch: requires X permission on the page. */
    MemResult fetch(Addr addr, std::uint8_t out[kInstrBytes]) const;

    /**
     * Privileged access by the simulator/hypervisor: ignores permissions.
     * Used for image loading, device DMA (which marks pages dirty), VM
     * introspection, and checkpoint restore.
     * @{
     */
    Word read_raw(Addr addr, std::size_t len) const;
    void write_raw(Addr addr, std::size_t len, Word value);
    void write_block(Addr addr, const std::uint8_t* data, std::size_t len);
    void read_block(Addr addr, std::uint8_t* data, std::size_t len) const;
    /** @} */

    /** Load a program image (bytes + permissions applied separately). */
    void load_image(const isa::Image& image);

    /** @return pointer to the raw bytes of page @p page. */
    const std::uint8_t* page_data(Addr page) const;

    /** Overwrite page @p page with @p data (kPageSize bytes); marks dirty. */
    void restore_page(Addr page, const std::uint8_t* data);

    /** @return pages written since the last clear_dirty(), sorted. */
    std::vector<Addr> dirty_pages() const;

    /** @return number of dirty pages (O(1)). */
    std::size_t dirty_count() const { return dirty_count_; }

    /** Forget dirty state (checkpoint interval boundary); bumps epoch(). */
    void clear_dirty();

    /**
     * Register/unregister a code-write listener (see CodeWriteListener).
     * Multiple listeners may coexist (several CPUs can share one memory);
     * each is notified once per code write.
     * @{
     */
    void add_code_listener(CodeWriteListener* listener);
    void remove_code_listener(CodeWriteListener* listener);
    /** @} */

    /**
     * Delta-restore machinery (O(differing pages) checkpoint restore).
     * id() uniquely identifies this PhysMem instance; epoch() counts
     * clear_dirty() calls; page_epoch() is the last epoch the page was
     * dirtied in. A page is guaranteed unchanged since a checkpoint taken
     * from this same PhysMem at epoch E iff page_epoch(p) < E.
     * @{
     */
    std::uint64_t id() const { return id_; }
    std::uint64_t epoch() const { return epoch_; }
    std::uint64_t page_epoch(Addr page) const { return page_epoch_[page]; }
    /** @} */

    /**
     * @return true if nothing ever wrote @p page, so it is all zeros.
     * Every writer marks its page dirty, which stamps an epoch >= 1.
     */
    bool page_untouched(Addr page) const { return page_epoch_[page] == 0; }

    /**
     * FNV-1a hash over all RAM bytes; the determinism test oracle.
     * Untouched pages hash as zeros without being read: O(touched pages).
     */
    std::uint64_t content_hash() const;

  private:
    /** Word accesses copy little-endian words with memcpy; the byte-loop
     *  fallback keeps big-endian hosts correct. */
    static constexpr bool kLittleEndianHost =
        std::endian::native == std::endian::little;

    MemResult read_slow(Addr addr, std::size_t len, Word* out) const;
    MemResult write_slow(Addr addr, std::size_t len, Word value);
    bool in_range(Addr addr, std::size_t len) const
    {
        return addr + len <= bytes_.size() && addr + len >= addr;
    }
    void mark_dirty_page(Addr page)
    {
        auto& word = dirty_bits_[page >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (page & 63);
        if ((word & bit) == 0) {
            word |= bit;
            ++dirty_count_;
            page_epoch_[page] = epoch_;
        }
    }
    void mark_dirty_range(Addr addr, std::size_t len);
    void touch_code_range(Addr addr, std::size_t len);
    /** Tell the code-write listeners that @p page's code may have changed. */
    void notify_code_write(Addr page)
    {
        if (!code_listeners_.empty()) [[unlikely]] {
            for (CodeWriteListener* listener : code_listeners_)
                listener->on_code_page_touched(page);
        }
    }

    ZeroedBuffer bytes_;
    std::vector<std::uint8_t> perms_;
    std::vector<std::uint64_t> dirty_bits_;   ///< one bit per page
    std::size_t dirty_count_ = 0;
    std::vector<std::uint64_t> page_epoch_;   ///< last dirtying epoch
    std::vector<CodeWriteListener*> code_listeners_;
    std::uint64_t epoch_ = 1;
    std::uint64_t id_;
};

}  // namespace rsafe::mem

#endif  // RSAFE_MEM_PHYS_MEM_H_
