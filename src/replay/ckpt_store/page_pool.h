#ifndef RSAFE_REPLAY_CKPT_STORE_PAGE_POOL_H_
#define RSAFE_REPLAY_CKPT_STORE_PAGE_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
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
 * (compress.h) unless that would grow them — or unless compression is
 * disabled, the PagePoolOptions::compress A/B lever.
 *
 * All-zero content bypasses the index: every zero intern returns the
 * pool's one zero page, and intern_zero() hands it out without reading
 * or hashing anything (the checkpoint store calls it for pages the guest
 * never wrote). Because the zero page is a single object, image
 * serialization, which treats pointer identity as content identity,
 * stays byte-identical.
 *
 * Thread contract: intern() is called from one thread (the CR); the
 * returned refs may be dropped from any thread (AR workers), so the
 * live-byte accounting rides in atomics updated by the pages' deleters.
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
     */
    StoredPage(PageEncoding encoding, std::vector<std::uint8_t> bytes);

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

  private:
    PageEncoding encoding_;
    std::vector<std::uint8_t> bytes_;
    bool zero_;
};

/** Shared reference to an immutable stored page. */
using StoredPageRef = std::shared_ptr<const StoredPage>;

/** The checkpoint page/block map shape. */
using StoredPageTable = mem::BasicPageTable<StoredPageRef>;

/** PagePool configuration. */
struct PagePoolOptions {
    /** RLE-compress stored pages (off = raw; the A/B lever). */
    bool compress = true;
};

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
    explicit PagePool(const PagePoolOptions& options = {});

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

    PagePoolStats stats() const;

  private:
    /** Live accounting shared with page deleters (outlives the pool). */
    struct Live {
        std::atomic<std::uint64_t> bytes{0};
        std::atomic<std::uint64_t> pages{0};
    };

    /** Encode and account one new unique page. */
    StoredPageRef store(const std::uint8_t* data);

    PagePoolOptions options_;
    std::shared_ptr<Live> live_;
    /** CRC32C -> non-zero pages with that CRC (collision bucket). */
    std::unordered_map<std::uint32_t,
                       std::vector<std::weak_ptr<const StoredPage>>>
        index_;
    /** The zero page while any checkpoint holds it. */
    std::weak_ptr<const StoredPage> zero_;
    PagePoolStats totals_;
};

}  // namespace rsafe::replay::ckpt

#endif  // RSAFE_REPLAY_CKPT_STORE_PAGE_POOL_H_
