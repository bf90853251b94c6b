#include "replay/ckpt_store/page_pool.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/log.h"
#include "replay/ckpt_store/compress.h"
#include "rnr/wire.h"

namespace rsafe::replay::ckpt {

namespace wire = rnr::wire;

namespace {

/** The zero page's content. */
constexpr std::uint8_t kZeroPage[kPageSize] = {};

bool
is_zero_page(const std::uint8_t* data)
{
    return std::memcmp(data, kZeroPage, kPageSize) == 0;
}

/**
 * @return true if (@p encoding, @p bytes) is the canonical encoding of the
 * zero page. The RLE encoder is canonical, so one stream spells it; a
 * non-canonical stream that happens to decode to zeros is merely not
 * flagged, which costs a restore rewrite, never correctness.
 */
bool
encodes_zero_page(PageEncoding encoding,
                  const std::vector<std::uint8_t>& bytes)
{
    if (encoding == PageEncoding::kRaw)
        return bytes.size() == kPageSize && is_zero_page(bytes.data());
    static const std::vector<std::uint8_t> zero_rle =
        rle_compress(kZeroPage, kPageSize);
    return bytes == zero_rle;
}

}  // namespace

StoredPage::StoredPage(PageEncoding encoding,
                       std::vector<std::uint8_t> bytes, std::uint64_t key,
                       std::uint32_t crc)
    : encoding_(encoding), bytes_(std::move(bytes)),
      zero_(encodes_zero_page(encoding_, bytes_)), key_(key), crc_(crc)
{
}

void
StoredPage::copy_to(std::uint8_t* out) const
{
    if (encoding_ == PageEncoding::kRaw) {
        std::memcpy(out, bytes_.data(), kPageSize);
        return;
    }
    // Streams are validated before a StoredPage is built (by the encoder
    // round-trip invariant or the image decoder), so failure here means
    // internal state corruption, not bad input.
    const Status status =
        rle_decompress(bytes_.data(), bytes_.size(), out, kPageSize);
    if (!status.ok())
        panic("StoredPage: invalid rle stream: " + status.message());
}

bool
StoredPage::content_equals(const std::uint8_t* data) const
{
    if (encoding_ == PageEncoding::kRaw)
        return std::memcmp(bytes_.data(), data, kPageSize) == 0;
    std::uint8_t raw[kPageSize];
    copy_to(raw);
    return std::memcmp(raw, data, kPageSize) == 0;
}

PagePool::PagePool() : live_(std::make_shared<Live>())
{
}

StoredPageRef
PagePool::intern(const std::uint8_t* data)
{
    if (is_zero_page(data))
        return intern_zero();
    ++totals_.pages_interned;
    totals_.bytes_raw += kPageSize;

    const std::uint32_t crc = wire::crc32c(data, kPageSize);
    auto& bucket = index_[crc];
    // Drop entries whose pages were recycled, and look for a live
    // equal-content page. Every entry shares the CRC; the byte compare
    // makes a collision a miss, never an aliasing bug.
    bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                [](const auto& weak) {
                                    return weak.expired();
                                }),
                 bucket.end());
    for (const auto& weak : bucket) {
        const StoredPageRef page = weak.lock();
        if (page && page->content_equals(data)) {
            ++totals_.dedup_hits;
            return page;
        }
    }
    StoredPageRef page = store(data, crc);
    bucket.push_back(page);
    return page;
}

StoredPageRef
PagePool::intern_zero()
{
    return intern_zeros(1);
}

StoredPageRef
PagePool::intern_zeros(std::uint64_t n)
{
    totals_.pages_interned += n;
    totals_.bytes_raw += n * kPageSize;
    if (StoredPageRef page = zero_.lock()) {
        totals_.dedup_hits += n;
        return page;
    }
    static const std::uint32_t zero_crc = wire::crc32c(kZeroPage, kPageSize);
    StoredPageRef page = store(kZeroPage, zero_crc);
    zero_ = page;
    totals_.dedup_hits += n - 1;
    return page;
}

StoredPageRef
PagePool::store(const std::uint8_t* data, std::uint32_t crc)
{
    PageEncoding encoding = PageEncoding::kRaw;
    std::vector<std::uint8_t> bytes = rle_compress(data, kPageSize);
    if (bytes.size() < kPageSize) {
        encoding = PageEncoding::kRle;
        ++totals_.compressed_pages;
    } else {
        bytes.assign(data, data + kPageSize);
    }

    totals_.bytes_stored += bytes.size();
    live_->bytes.fetch_add(bytes.size(), std::memory_order_relaxed);
    live_->pages.fetch_add(1, std::memory_order_relaxed);
    const auto live = live_;
    return StoredPageRef(
        new StoredPage(encoding, std::move(bytes), next_key_++, crc),
        [live](const StoredPage* p) {
            live->bytes.fetch_sub(p->stored_bytes(),
                                  std::memory_order_relaxed);
            live->pages.fetch_sub(1, std::memory_order_relaxed);
            if (p->streamed()) {
                std::lock_guard<std::mutex> lock(live->retired_mu);
                live->retired.push_back(p->key());
            }
            delete p;
        });
}

std::vector<std::uint64_t>
PagePool::take_retired()
{
    std::lock_guard<std::mutex> lock(live_->retired_mu);
    return std::exchange(live_->retired, {});
}

PagePoolStats
PagePool::stats() const
{
    PagePoolStats out = totals_;
    out.live_bytes = live_->bytes.load(std::memory_order_relaxed);
    out.live_pages = live_->pages.load(std::memory_order_relaxed);
    return out;
}

}  // namespace rsafe::replay::ckpt
