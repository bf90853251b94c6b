#include "replay/shadow_ras.h"

#include <algorithm>
#include <utility>

namespace rsafe::replay {

ShadowRas::ShadowRas(FlatAddrSet ret_whitelist, FlatAddrSet tar_whitelist)
    : ret_whitelist_(std::move(ret_whitelist)),
      tar_whitelist_(std::move(tar_whitelist))
{
}

void
ShadowRas::init_thread(ThreadId tid, const cpu::SavedRas& saved)
{
    auto& stack = stacks_[tid];
    stack.clear();
    stack.reserve(saved.entries.size());
    for (const auto& entry : saved.entries)
        stack.push_back(entry.addr);
}

void
ShadowRas::on_call(Addr link)
{
    stacks_[current_].push_back(link);
}

RetVerdict
ShadowRas::on_ret(Addr ret_pc, Addr target, Addr* expected)
{
    *expected = 0;
    if (ret_whitelist_.contains(ret_pc)) {
        return tar_whitelist_.contains(target)
                   ? RetVerdict::kWhitelistOk
                   : RetVerdict::kWhitelistViolation;
    }
    auto& stack = stacks_[current_];
    if (stack.empty()) {
        // The shadow stack only goes as deep as the checkpoint's BackRAS;
        // deeper pops are legal iff the hardware logged the eviction.
        auto& evicted = evicted_[current_];
        if (!evicted.empty() && evicted.back() == target) {
            evicted.pop_back();
            *expected = target;
            return RetVerdict::kUnderflowBenign;
        }
        return RetVerdict::kRopDetected;
    }
    const Addr top = stack.back();
    stack.pop_back();
    *expected = top;
    if (top == target)
        return RetVerdict::kMatch;
    // Imperfect nesting (setjmp/longjmp, abandoned frames): the target
    // matches a deeper entry; unwind to it.
    auto it = std::find(stack.rbegin(), stack.rend(), target);
    if (it != stack.rend()) {
        // Erase everything above and including the matched entry; the
        // return consumes it.
        stack.erase(it.base() - 1, stack.end());
        return RetVerdict::kImperfectNesting;
    }
    return RetVerdict::kRopDetected;
}

void
ShadowRas::note_evict(ThreadId tid, Addr addr)
{
    evicted_[tid].push_back(addr);
}

std::size_t
ShadowRas::depth(ThreadId tid) const
{
    auto it = stacks_.find(tid);
    return it == stacks_.end() ? 0 : it->second.size();
}

}  // namespace rsafe::replay
