#include "rnr/log_channel.h"

#include "common/log.h"
#include "obs/trace.h"

namespace rsafe::rnr {

LogChannel::LogChannel(const ChannelOptions& options) : options_(options)
{
    if (options_.chunk_records == 0)
        fatal("LogChannel: chunk_records must be positive");
    if (options_.capacity_records < options_.chunk_records)
        fatal("LogChannel: capacity_records must be >= chunk_records");
    open_chunk_.reserve(options_.chunk_records);
}

void
LogChannel::push(LogRecord record)
{
    producer_icount_.store(record.icount, std::memory_order_relaxed);
    open_chunk_.push_back(std::move(record));
    if (open_chunk_.size() >= options_.chunk_records)
        publish_chunk();
}

void
LogChannel::publish_chunk()
{
    if (open_chunk_.empty())
        return;
    std::vector<LogRecord> chunk;
    chunk.reserve(options_.chunk_records);
    chunk.swap(open_chunk_);

    std::unique_lock<std::mutex> lock(mu_);
    if (closed_ || poisoned_)
        panic("LogChannel: push after close/poison");
    while (!abandoned_ &&
           queued_records_ + chunk.size() > options_.capacity_records) {
        ++stats_.producer_waits;
        obs::Tracer::instance().instant("channel.backpressure", "channel",
                                        "queued", queued_records_);
        can_publish_.wait(lock);
    }
    stats_.records_pushed += chunk.size();
    if (abandoned_) {
        // The consumer is gone; keep the producer running to completion.
        stats_.records_dropped += chunk.size();
        return;
    }
    queued_records_ += chunk.size();
    if (queued_records_ > stats_.max_queued_records)
        stats_.max_queued_records = queued_records_;
    ++stats_.chunks_published;
    queue_.push_back(std::move(chunk));
    obs::Tracer::instance().counter("channel.queued", "channel",
                                    queued_records_);
    can_pop_.notify_one();
}

void
LogChannel::flush()
{
    publish_chunk();
}

void
LogChannel::close()
{
    publish_chunk();
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    can_pop_.notify_all();
}

void
LogChannel::poison()
{
    std::lock_guard<std::mutex> lock(mu_);
    open_chunk_.clear();
    poisoned_ = true;
    can_pop_.notify_all();
}

LogChannel::PopResult
LogChannel::pop(std::vector<LogRecord>* out)
{
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
        // An abort outranks still-queued data: the recording is invalid.
        if (poisoned_)
            return PopResult::kPoisoned;
        if (!queue_.empty()) {
            *out = std::move(queue_.front());
            queue_.pop_front();
            queued_records_ -= out->size();
            obs::Tracer::instance().counter("channel.queued", "channel",
                                            queued_records_);
            can_publish_.notify_one();
            return PopResult::kData;
        }
        if (closed_)
            return PopResult::kClosed;
        ++stats_.consumer_waits;
        obs::Tracer::instance().instant("channel.starved", "channel",
                                        "queued", queued_records_);
        can_pop_.wait(lock);
    }
}

void
LogChannel::abandon()
{
    std::lock_guard<std::mutex> lock(mu_);
    abandoned_ = true;
    can_publish_.notify_all();
}

bool
LogChannel::poisoned() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return poisoned_;
}

ChannelStats
LogChannel::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

}  // namespace rsafe::rnr
