#ifndef RSAFE_MEM_PAGE_TABLE_H_
#define RSAFE_MEM_PAGE_TABLE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/log.h"

/**
 * @file
 * A persistent (copy-on-write) array of page references for checkpoints.
 *
 * A checkpoint needs a map from page/block number to the reference holding
 * that page's contents. Copying a whole std::map per checkpoint makes an
 * incremental checkpoint cost O(all pages) even when only a handful are
 * dirty (Section 4.6.1 wants the opposite). BasicPageTable instead stores
 * the refs in fixed-size chunks that consecutive checkpoints share:
 * copying a table copies only the chunk-pointer vector, and set() clones
 * just the one chunk it lands in when that chunk is still shared (path
 * copying). An incremental checkpoint therefore costs
 * O(chunks + dirty pages) pointer work instead of O(all pages).
 *
 * The table is templated on the reference type; checkpoints hold
 * deduplicated, possibly-compressed pages (replay::ckpt::StoredPageRef).
 */

namespace rsafe::mem {

/** Copy-on-write indexed table of shared refs (dense, fixed size). */
template <typename Ref>
class BasicPageTable {
  public:
    /** An empty table (size 0). */
    BasicPageTable() = default;

    /** A table of @p size null refs. */
    explicit BasicPageTable(std::size_t size) : size_(size)
    {
        const std::size_t chunks = (size + kChunkSize - 1) / kChunkSize;
        chunks_.reserve(chunks);
        for (std::size_t i = 0; i < chunks; ++i)
            chunks_.push_back(std::make_shared<Chunk>());
    }

    /** @return number of slots. */
    std::size_t size() const { return size_; }

    /** @return true if the table has no slots. */
    bool empty() const { return size_ == 0; }

    /** @return the ref at @p index (may be null if never set). */
    const Ref& at(std::uint64_t index) const
    {
        if (index >= size_)
            panic("BasicPageTable::at out of range");
        return chunks_[index >> kChunkShift]->refs[index & (kChunkSize - 1)];
    }

    /**
     * Replace the ref at @p index. If the containing chunk is shared with
     * another table (an older/newer checkpoint), only that chunk is
     * cloned; the rest of the table stays shared.
     */
    void set(std::uint64_t index, Ref ref)
    {
        if (index >= size_)
            panic("BasicPageTable::set out of range");
        auto& chunk = chunks_[index >> kChunkShift];
        if (chunk.use_count() > 1)
            chunk = std::make_shared<Chunk>(*chunk);
        chunk->refs[index & (kChunkSize - 1)] = std::move(ref);
    }

  private:
    static constexpr std::size_t kChunkShift = 6;
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

    struct Chunk {
        std::array<Ref, kChunkSize> refs;
    };

    std::vector<std::shared_ptr<Chunk>> chunks_;
    std::size_t size_ = 0;
};

}  // namespace rsafe::mem

#endif  // RSAFE_MEM_PAGE_TABLE_H_
