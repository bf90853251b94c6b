#ifndef RSAFE_MEM_PHYS_MEM_H_
#define RSAFE_MEM_PHYS_MEM_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/types.h"
#include "isa/program.h"
#include "mem/page_store.h"

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
 * The bytes, the dirty bitmap, the epochs and the content hash are a
 * PageStore (page_store.h), the same store the virtual disk is. PhysMem
 * adds what only RAM has: per-page permissions, and the code-write
 * listeners that every content-changing operation on a page that is (or
 * could become) executable notifies, which is how the translation-block
 * engine drops stale blocks eagerly.
 *
 * This is the simulator's hottest data structure: the word read and
 * write fast paths are inline and touch the store's flat bytes and
 * dirty bitmap directly.
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
 * write_block/write_raw, checkpoint restore, and any guest store landing
 * on an X page. The translation-block engine registers one of these to
 * eagerly invalidate and unchain translated blocks. Callbacks run on the
 * owning VM's execution thread and must not re-enter PhysMem.
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
    std::size_t size() const { return store_.size_bytes(); }

    /** @return number of RAM pages. */
    std::size_t num_pages() const { return store_.num_slots(); }

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
        if (kLittleEndianHost && len == 8 && addr < store_.size_bytes() &&
            page_offset(addr) <= kPageSize - 8 &&
            (perms_[page_of(addr)] & kPermRead) != 0) [[likely]] {
            std::memcpy(out, store_.data() + addr, 8);
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
        if (kLittleEndianHost && len == 8 && addr < store_.size_bytes() &&
            page_offset(addr) <= kPageSize - 8) [[likely]] {
            const Addr page = page_of(addr);
            if ((perms_[page] & (kPermWrite | kPermExec)) ==
                kPermWrite) [[likely]] {
                std::memcpy(store_.data() + addr, &value, 8);
                store_.mark_dirty(page);
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

    /**
     * The page store holding RAM's bytes, dirty pages and epochs (one
     * slot per page). Writing through it bypasses the code-write
     * listeners: a writer that may change code calls notify_code_write()
     * for each page it rewrote.
     * @{
     */
    PageStore& store() { return store_; }
    const PageStore& store() const { return store_; }
    /** @} */

    /**
     * Register/unregister a code-write listener (see CodeWriteListener).
     * Multiple listeners may coexist (several CPUs can share one memory);
     * each is notified once per code write.
     * @{
     */
    void add_code_listener(CodeWriteListener* listener);
    void remove_code_listener(CodeWriteListener* listener);
    /** @} */

    /** Tell the code-write listeners that @p page's code may have changed. */
    void notify_code_write(Addr page)
    {
        if (!code_listeners_.empty()) [[unlikely]] {
            for (CodeWriteListener* listener : code_listeners_)
                listener->on_code_page_touched(page);
        }
    }

  private:
    /** Word accesses copy little-endian words with memcpy; the byte-loop
     *  fallback keeps big-endian hosts correct. */
    static constexpr bool kLittleEndianHost =
        std::endian::native == std::endian::little;

    MemResult read_slow(Addr addr, std::size_t len, Word* out) const;
    MemResult write_slow(Addr addr, std::size_t len, Word value);
    bool in_range(Addr addr, std::size_t len) const
    {
        return addr + len <= store_.size_bytes() && addr + len >= addr;
    }
    void mark_dirty_range(Addr addr, std::size_t len);
    void touch_code_range(Addr addr, std::size_t len);

    // perms_ first: the inline read and write paths load its data
    // pointer together with the store's bytes pointer and size, so the
    // three sit next to each other.
    std::vector<std::uint8_t> perms_;
    PageStore store_;
    std::vector<CodeWriteListener*> code_listeners_;
};

}  // namespace rsafe::mem

#endif  // RSAFE_MEM_PHYS_MEM_H_
