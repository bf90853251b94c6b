#ifndef RSAFE_MEM_ZEROED_BUFFER_H_
#define RSAFE_MEM_ZEROED_BUFFER_H_

#include <cstddef>
#include <cstdint>

/**
 * @file
 * Lazily zeroed byte storage for page stores (guest RAM and the virtual
 * disk).
 *
 * The buffer is an anonymous private mapping: it reads as zeros, and the
 * host kernel backs a page only when it is first written. Creating a
 * 32 MB guest is therefore O(1) rather than a 32 MB zero fill, and
 * freeing it returns only the pages the guest touched. The layout stays
 * flat, so raw pointers into the buffer are stable for its lifetime and
 * guest accesses pay no indirection.
 */

namespace rsafe::mem {

/** An owned, zero-initialized, fixed-size byte array backed by mmap. */
class ZeroedBuffer {
  public:
    /** Map @p size zero bytes (a size of 0 maps nothing). */
    explicit ZeroedBuffer(std::size_t size);
    ~ZeroedBuffer();

    ZeroedBuffer(const ZeroedBuffer&) = delete;
    ZeroedBuffer& operator=(const ZeroedBuffer&) = delete;

    std::size_t size() const { return size_; }
    std::uint8_t* data() { return data_; }
    const std::uint8_t* data() const { return data_; }

  private:
    std::uint8_t* data_ = nullptr;
    std::size_t size_ = 0;
};

}  // namespace rsafe::mem

#endif  // RSAFE_MEM_ZEROED_BUFFER_H_
