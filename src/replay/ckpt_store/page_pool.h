#ifndef RSAFE_REPLAY_CKPT_STORE_PAGE_POOL_H_
#define RSAFE_REPLAY_CKPT_STORE_PAGE_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "mem/page_table.h"

/**
 * @file
 * Content-hash page dedup pool for checkpoint storage.
 *
 * The copy-on-write page table (mem/page_table.h) shares *unmodified*
 * pages between consecutive checkpoints by reference; the pool extends
 * that to pages with *equal content*
 * anywhere in the chain. A freshly dirtied page that reverted to an
 * earlier value, or the thousands of identical zero pages in the initial
 * full checkpoint, intern to one StoredPage shared by every checkpoint
 * that holds it — so successive checkpoints own only their genuinely new
 * bytes (Section 4.6.1's recycling made byte-accurate).
 *
 * Pages are keyed by the CRC32C of their raw content and a hit is
 * confirmed with a full byte compare, so a hash collision can never
 * silently alias two different pages. Stored pages are RLE-compressed
 * (compress.h) unless that would not shrink them: an incompressible page
 * is stored raw.
 *
 * All-zero content bypasses the index: every zero intern returns the
 * pool's one zero page, and intern_zero() hands it out without reading
 * or hashing anything (the checkpoint store calls it for pages the guest
 * never wrote). Because the zero page is a single object, every zero
 * slot of a checkpoint image names the same key.
 *
 * Every page the pool stores also gets a key: a 64-bit id assigned once
 * per unique page and never reused, so unlike the CRC it names exactly
 * one content for the pool's whole life. A pool feeds at most one
 * checkpoint stream (ckpt_stream.h), which ships pages by key and marks
 * each page it ships; when a marked page is dropped the pool logs its
 * key (take_retired()) so the stream can tell its receiver to forget it.
 *
 * Thread contract: intern() is called from one thread (the CR); the
 * returned refs may be dropped from any thread (AR workers), so the
 * live-byte accounting rides in atomics, and the retired-key log behind
 * a mutex, updated by the pages' deleters.
 */

namespace rsafe::replay::ckpt {

/** How a StoredPage keeps its bytes. */
enum class PageEncoding : std::uint8_t {
    kRaw = 0,  ///< kPageSize verbatim bytes
    kRle = 1,  ///< rle_compress() stream decoding to kPageSize bytes
};

/** One immutable, deduplicated, possibly-compressed page or disk block. */
class StoredPage {
  public:
    /**
     * @param encoding  how @p bytes are encoded (kRle streams must decode
     *                  to exactly kPageSize bytes — the constructors'
     *                  callers validate this).
     * @param key       the storing pool's key, also on a page a stream
     *                  delivered.
     * @param crc       CRC32C of the raw content.
     */
    StoredPage(PageEncoding encoding, std::vector<std::uint8_t> bytes,
               std::uint64_t key, std::uint32_t crc);

    /** Decode the page into @p out (exactly kPageSize bytes). */
    void copy_to(std::uint8_t* out) const;

    /** @return true if the raw content equals @p data (kPageSize bytes). */
    bool content_equals(const std::uint8_t* data) const;

    PageEncoding encoding() const { return encoding_; }
    const std::vector<std::uint8_t>& encoded() const { return bytes_; }
    std::size_t stored_bytes() const { return bytes_.size(); }

    /**
     * @return true if the bytes are the canonical encoding of the zero
     * page (the 64-byte RLE stream, or kPageSize raw zeros). Read off the
     * encoding at construction, never by decoding.
     */
    bool is_zero() const { return zero_; }

    /** The storing pool's key (never reused by that pool). */
    std::uint64_t key() const { return key_; }

    /** CRC32C of the raw content. */
    std::uint32_t crc() const { return crc_; }

    /** Mark the page as shipped on its pool's checkpoint stream: from
     *  then on, dropping it logs its key (PagePool::take_retired()). */
    void mark_streamed() const
    {
        streamed_.store(true, std::memory_order_relaxed);
    }

    /** @return true once mark_streamed() was called. */
    bool streamed() const
    {
        return streamed_.load(std::memory_order_relaxed);
    }

  private:
    PageEncoding encoding_;
    std::vector<std::uint8_t> bytes_;
    bool zero_;
    std::uint64_t key_;
    std::uint32_t crc_;
    mutable std::atomic<bool> streamed_{false};
};

/** Shared reference to an immutable stored page. */
using StoredPageRef = std::shared_ptr<const StoredPage>;

/** One page store's slots in a checkpoint (RAM pages or disk blocks). */
using StoredPageTable = mem::BasicPageTable<StoredPageRef>;

/**
 * A checkpoint's page stores, in the order every walk and the wire use:
 * RAM pages, then disk blocks.
 * @{
 */
inline constexpr std::size_t kRamStore = 0;
inline constexpr std::size_t kDiskStore = 1;
inline constexpr std::size_t kNumStores = 2;
/** @} */

/** Byte-accurate accounting of one pool (read any time). */
struct PagePoolStats {
    /** intern() calls — what a raw page-copy store would have copied. */
    std::uint64_t pages_interned = 0;
    /** Interns satisfied by an existing equal-content page. */
    std::uint64_t dedup_hits = 0;
    /** pages_interned * kPageSize: the raw cost basis. */
    std::uint64_t bytes_raw = 0;
    /** Cumulative encoded bytes of the unique pages actually stored. */
    std::uint64_t bytes_stored = 0;
    /** Unique stored pages that won from compression. */
    std::uint64_t compressed_pages = 0;
    /** Encoded bytes of stored pages still referenced somewhere. */
    std::uint64_t live_bytes = 0;
    /** Stored pages still referenced somewhere. */
    std::uint64_t live_pages = 0;
};

/** Content-hash dedup + compression front-end for checkpoint pages. */
class PagePool {
  public:
    PagePool();

    /**
     * Store the kPageSize bytes at @p data, returning the pooled page:
     * an existing StoredPage with equal content when dedup finds one,
     * a freshly encoded page otherwise.
     */
    StoredPageRef intern(const std::uint8_t* data);

    /**
     * intern() of kPageSize zero bytes without the bytes: the pool's zero
     * page, counted in the stats exactly as intern() would count it.
     */
    StoredPageRef intern_zero();

    /** intern_zero() @p n (>= 1) times in one call. */
    StoredPageRef intern_zeros(std::uint64_t n);

    PagePoolStats stats() const;

    /**
     * @return the keys of streamed pages (StoredPage::mark_streamed())
     * dropped since the last call, in drop order. Safe against deleters
     * on other threads.
     */
    std::vector<std::uint64_t> take_retired();

  private:
    /** State shared with page deleters (outlives the pool). */
    struct Live {
        std::atomic<std::uint64_t> bytes{0};
        std::atomic<std::uint64_t> pages{0};
        std::mutex retired_mu;
        std::vector<std::uint64_t> retired;  ///< under retired_mu
    };

    /** Encode and account one new unique page of CRC32C @p crc. */
    StoredPageRef store(const std::uint8_t* data, std::uint32_t crc);

    std::shared_ptr<Live> live_;
    /** CRC32C -> non-zero pages with that CRC (collision bucket). */
    std::unordered_map<std::uint32_t,
                       std::vector<std::weak_ptr<const StoredPage>>>
        index_;
    /** The zero page while any checkpoint holds it. */
    std::weak_ptr<const StoredPage> zero_;
    PagePoolStats totals_;
    /** The key the next stored page gets (0 is never a key). */
    std::uint64_t next_key_ = 1;
};

}  // namespace rsafe::replay::ckpt

#endif  // RSAFE_REPLAY_CKPT_STORE_PAGE_POOL_H_
