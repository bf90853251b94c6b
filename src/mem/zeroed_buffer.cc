#include "mem/zeroed_buffer.h"

#include <sys/mman.h>

#include "common/log.h"

namespace rsafe::mem {

ZeroedBuffer::ZeroedBuffer(std::size_t size) : size_(size)
{
    if (size == 0)
        return;
    void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        fatal(strcat_args("ZeroedBuffer: cannot map ", size, " bytes"));
    data_ = static_cast<std::uint8_t*>(p);
}

ZeroedBuffer::~ZeroedBuffer()
{
    if (data_ != nullptr)
        ::munmap(data_, size_);
}

}  // namespace rsafe::mem
