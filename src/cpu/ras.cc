#include "cpu/ras.h"

#include "common/log.h"

namespace rsafe::cpu {

Ras::Ras(std::size_t depth) : depth_(depth)
{
    if (depth == 0)
        fatal("Ras: depth must be positive");
    stack_.reserve(depth);
}

SavedRas
Ras::save_and_clear()
{
    SavedRas saved;
    saved.entries = std::move(stack_);
    stack_.clear();
    return saved;
}

SavedRas
Ras::peek() const
{
    SavedRas saved;
    saved.entries = stack_;
    return saved;
}

void
Ras::load(const SavedRas& saved)
{
    stack_.clear();
    for (const auto& entry : saved.entries) {
        if (stack_.size() == depth_)
            stack_.erase(stack_.begin());
        stack_.push_back(RasEntry{entry.addr, true});
    }
}

}  // namespace rsafe::cpu
