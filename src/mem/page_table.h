#ifndef RSAFE_MEM_PAGE_TABLE_H_
#define RSAFE_MEM_PAGE_TABLE_H_

#include <algorithm>
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

    /**
     * A table of @p size slots that all hold @p fill. Every position
     * shares one chunk, and set() clones only the chunks it writes, so
     * the table costs memory only for the chunks that end up holding
     * something else.
     */
    BasicPageTable(std::size_t size, const Ref& fill) : size_(size)
    {
        auto chunk = std::make_shared<Chunk>();
        chunk->refs.fill(fill);
        chunks_.assign((size + kChunkSize - 1) / kChunkSize, chunk);
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

    /**
     * Call @p fn(index, ref) for every slot whose ref differs, by
     * identity, from @p base's, in index order. Chunks the two tables
     * still share are skipped whole, so diffing two checkpoints of one
     * chain costs O(chunks + slots of the chunks either one rewrote).
     * Against a @p base of another size every slot counts as changed.
     */
    template <typename Fn>
    void for_each_change(const BasicPageTable& base, Fn&& fn) const
    {
        const bool same_shape = base.size_ == size_;
        for (std::size_t c = 0; c < chunks_.size(); ++c) {
            if (same_shape && chunks_[c] == base.chunks_[c])
                continue;
            const std::size_t first = c << kChunkShift;
            const std::size_t n = std::min(kChunkSize, size_ - first);
            for (std::size_t i = 0; i < n; ++i) {
                const Ref& ref = chunks_[c]->refs[i];
                if (!same_shape || ref != base.chunks_[c]->refs[i])
                    fn(static_cast<std::uint64_t>(first + i), ref);
            }
        }
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
