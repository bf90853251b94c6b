#include "rnr/log_source.h"

#include "common/log.h"
#include "obs/trace.h"

namespace rsafe::rnr {

void
LogStream::notify()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (waiting_)
        cv_.notify_one();
}

void
LogStream::close()
{
    end(State::kClosed);
}

void
LogStream::poison()
{
    end(State::kPoisoned);
}

void
LogStream::end(State state)
{
    std::lock_guard<std::mutex> lock(mu_);
    // A poisoned stream stays poisoned.
    if (state_.load(std::memory_order_relaxed) != State::kPoisoned)
        state_.store(state, std::memory_order_release);
    cv_.notify_all();
}

bool
LogStream::await(const InputLog& log, std::size_t index)
{
    // The state is read before the size: once it says closed, the size
    // read after it is final.
    State state = State::kOpen;
    const auto settled = [&] {
        state = state_.load(std::memory_order_acquire);
        return state != State::kOpen || index < log.size();
    };
    if (!settled()) {
        std::unique_lock<std::mutex> lock(mu_);
        // notify() takes mu_ after the append, so a record appended once
        // settled() has failed here finds waiting_ set and wakes us.
        while (!settled()) {
            consumer_waits_.fetch_add(1, std::memory_order_relaxed);
            obs::Tracer::instance().instant("log.starved", "replay",
                                            "index", index);
            waiting_ = true;
            cv_.wait(lock);
            waiting_ = false;
        }
    }
    // An abort outranks records already appended.
    return state != State::kPoisoned && index < log.size();
}

InputLogSource::InputLogSource(const InputLog* log, LogStream* stream)
    : log_(log), stream_(stream)
{
    if (log_ == nullptr)
        fatal("InputLogSource: null log");
}

InstrCount
InputLogSource::producer_icount() const
{
    const std::size_t size = log_->size();
    return size > 0 ? log_->at(size - 1).icount : 0;
}

}  // namespace rsafe::rnr
