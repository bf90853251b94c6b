#include "mem/phys_mem.h"

#include <atomic>
#include <bit>
#include <cstring>

#include "common/fnv.h"
#include "common/log.h"

namespace rsafe::mem {

namespace {

std::uint64_t
next_phys_mem_id()
{
    // Atomic: the framework's alarm-replayer worker pool builds VMs (and
    // thus memories) from several threads at once.
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

PhysMem::PhysMem(std::size_t size)
    : bytes_((size + kPageSize - 1) / kPageSize * kPageSize),
      id_(next_phys_mem_id())
{
    const std::size_t pages = num_pages();
    if (pages == 0)
        fatal("PhysMem: zero-sized memory");
    perms_.assign(pages, kPermRW);
    dirty_bits_.assign((pages + 63) / 64, 0);
    page_epoch_.assign(pages, 0);
}

void
PhysMem::set_perms(Addr addr, std::size_t len, std::uint8_t perms)
{
    if (!in_range(addr, len))
        fatal("PhysMem::set_perms: range out of bounds");
    const Addr first = page_of(addr);
    const Addr last = page_of(addr + (len == 0 ? 0 : len - 1));
    for (Addr p = first; p <= last; ++p) {
        perms_[p] = perms;
        // Fetchability changed: any translation of the page is stale.
        notify_code_write(p);
    }
}

void
PhysMem::add_code_listener(CodeWriteListener* listener)
{
    if (listener == nullptr)
        fatal("PhysMem::add_code_listener: null listener");
    code_listeners_.push_back(listener);
}

void
PhysMem::remove_code_listener(CodeWriteListener* listener)
{
    std::erase(code_listeners_, listener);
}

std::uint8_t
PhysMem::perms_at(Addr addr) const
{
    if (!in_range(addr, 1))
        return kPermNone;
    return perms_[page_of(addr)];
}

MemResult
PhysMem::read_slow(Addr addr, std::size_t len, Word* out) const
{
    if (!in_range(addr, len))
        return MemResult::kOutOfRange;
    const Addr page = page_of(addr);
    // Almost every access fits one page (stack and data are 8-byte
    // aligned); only then can a single perms lookup cover it.
    if (page_offset(addr) + len <= kPageSize) [[likely]] {
        if (!(perms_[page] & kPermRead))
            return MemResult::kNoPerm;
    } else if (!(perms_[page] & kPermRead) ||
               !(perms_[page + 1] & kPermRead)) {
        return MemResult::kNoPerm;
    }
    if (kLittleEndianHost && len == 8) {
        Word value;
        std::memcpy(&value, bytes_.data() + addr, 8);
        *out = value;
    } else if (len == 1) {
        *out = bytes_[addr];
    } else {
        Word value = 0;
        for (std::size_t i = 0; i < len; ++i)
            value |= static_cast<Word>(bytes_[addr + i]) << (8 * i);
        *out = value;
    }
    return MemResult::kOk;
}

MemResult
PhysMem::write_slow(Addr addr, std::size_t len, Word value)
{
    if (!in_range(addr, len))
        return MemResult::kOutOfRange;
    const Addr page = page_of(addr);
    if (page_offset(addr) + len <= kPageSize) [[likely]] {
        const std::uint8_t perms = perms_[page];
        if (!(perms & kPermWrite))
            return MemResult::kNoPerm;
        if (kLittleEndianHost && len == 8) {
            std::memcpy(bytes_.data() + addr, &value, 8);
        } else if (len == 1) {
            bytes_[addr] = static_cast<std::uint8_t>(value & 0xff);
        } else {
            for (std::size_t i = 0; i < len; ++i)
                bytes_[addr + i] =
                    static_cast<std::uint8_t>((value >> (8 * i)) & 0xff);
        }
        mark_dirty_page(page);
        if (perms & kPermExec) [[unlikely]]
            notify_code_write(page);
        return MemResult::kOk;
    }
    // Page-straddling slow path.
    const Addr last = addr + len - 1;
    if (!(perms_[page] & kPermWrite) || !(perms_[page_of(last)] & kPermWrite))
        return MemResult::kNoPerm;
    for (std::size_t i = 0; i < len; ++i)
        bytes_[addr + i] = static_cast<std::uint8_t>((value >> (8 * i)) & 0xff);
    mark_dirty_range(addr, len);
    touch_code_range(addr, len);
    return MemResult::kOk;
}

MemResult
PhysMem::fetch(Addr addr, std::uint8_t out[kInstrBytes]) const
{
    if (!in_range(addr, kInstrBytes))
        return MemResult::kOutOfRange;
    if (!(perms_[page_of(addr)] & kPermExec))
        return MemResult::kNoPerm;
    std::memcpy(out, bytes_.data() + addr, kInstrBytes);
    return MemResult::kOk;
}

Word
PhysMem::read_raw(Addr addr, std::size_t len) const
{
    if (!in_range(addr, len))
        panic("PhysMem::read_raw out of range");
    if (kLittleEndianHost && len == 8 && page_offset(addr) + 8 <= kPageSize) {
        Word value;
        std::memcpy(&value, bytes_.data() + addr, 8);
        return value;
    }
    Word value = 0;
    for (std::size_t i = 0; i < len; ++i)
        value |= static_cast<Word>(bytes_[addr + i]) << (8 * i);
    return value;
}

void
PhysMem::write_raw(Addr addr, std::size_t len, Word value)
{
    if (!in_range(addr, len))
        panic("PhysMem::write_raw out of range");
    for (std::size_t i = 0; i < len; ++i)
        bytes_[addr + i] = static_cast<std::uint8_t>((value >> (8 * i)) & 0xff);
    mark_dirty_range(addr, len);
    touch_code_range(addr, len);
}

void
PhysMem::write_block(Addr addr, const std::uint8_t* data, std::size_t len)
{
    if (!in_range(addr, len))
        panic("PhysMem::write_block out of range");
    std::memcpy(bytes_.data() + addr, data, len);
    mark_dirty_range(addr, len);
    touch_code_range(addr, len);
}

void
PhysMem::read_block(Addr addr, std::uint8_t* data, std::size_t len) const
{
    if (!in_range(addr, len))
        panic("PhysMem::read_block out of range");
    std::memcpy(data, bytes_.data() + addr, len);
}

void
PhysMem::load_image(const isa::Image& image)
{
    write_block(image.base(), image.bytes().data(), image.size());
}

const std::uint8_t*
PhysMem::page_data(Addr page) const
{
    if (page >= num_pages())
        panic("PhysMem::page_data out of range");
    return bytes_.data() + page * kPageSize;
}

void
PhysMem::restore_page(Addr page, const std::uint8_t* data)
{
    if (page >= num_pages())
        panic("PhysMem::restore_page out of range");
    std::memcpy(bytes_.data() + page * kPageSize, data, kPageSize);
    mark_dirty_page(page);
    notify_code_write(page);
}

std::vector<Addr>
PhysMem::dirty_pages() const
{
    std::vector<Addr> pages;
    pages.reserve(dirty_count_);
    for (std::size_t w = 0; w < dirty_bits_.size(); ++w) {
        std::uint64_t word = dirty_bits_[w];
        while (word != 0) {
            const int bit = std::countr_zero(word);
            pages.push_back(static_cast<Addr>(w * 64 + bit));
            word &= word - 1;
        }
    }
    return pages;
}

void
PhysMem::clear_dirty()
{
    std::memset(dirty_bits_.data(), 0,
                dirty_bits_.size() * sizeof(std::uint64_t));
    dirty_count_ = 0;
    ++epoch_;
}

std::uint64_t
PhysMem::content_hash() const
{
    std::uint64_t hash = kFnvOffset;
    for (Addr page = 0; page < num_pages(); ++page) {
        hash = page_untouched(page)
                   ? hash * kFnvZeroPageFactor
                   : fnv1a64_update(hash, bytes_.data() + page * kPageSize,
                                    kPageSize);
    }
    return hash;
}

void
PhysMem::mark_dirty_range(Addr addr, std::size_t len)
{
    const Addr first = page_of(addr);
    const Addr last = page_of(addr + (len == 0 ? 0 : len - 1));
    for (Addr p = first; p <= last; ++p)
        mark_dirty_page(p);
}

void
PhysMem::touch_code_range(Addr addr, std::size_t len)
{
    // Privileged writes bypass W^X, so they can change executable bytes
    // (DMA into a code page, checkpoint restore, introspection pokes):
    // invalidate translations of every page touched.
    const Addr first = page_of(addr);
    const Addr last = page_of(addr + (len == 0 ? 0 : len - 1));
    for (Addr p = first; p <= last; ++p)
        notify_code_write(p);
}

}  // namespace rsafe::mem
