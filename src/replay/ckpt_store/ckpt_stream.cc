#include "replay/ckpt_store/ckpt_stream.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "replay/checkpoint.h"
#include "replay/ckpt_store/ckpt_image.h"

namespace rsafe::replay::ckpt {

std::vector<std::uint8_t>
CheckpointStreamSender::encode(std::shared_ptr<const Checkpoint> checkpoint)
{
    obs::ScopedSpan span("ckpt_image.encode", "ckpt");
    // The receiver holds every streamed page still alive: forget the
    // ones the pool dropped since the last image.
    std::vector<std::uint64_t> retired = pool_->take_retired();
    std::sort(retired.begin(), retired.end());
    CheckpointDelta delta = diff_checkpoint(
        base_.get(), *checkpoint, [](const StoredPage& page) {
            if (page.streamed())
                return false;
            page.mark_streamed();
            return true;
        });
    delta.retired = std::move(retired);

    base_ = std::move(checkpoint);
    return serialize_delta(*base_, delta);
}

std::size_t
CheckpointStreamReceiver::enqueue(std::vector<std::uint8_t> image)
{
    std::lock_guard<std::mutex> lock(mu_);
    queued_.push_back(std::move(image));
    return next_ + queued_.size() - 1;
}

Status
CheckpointStreamReceiver::take(std::size_t position,
                               std::shared_ptr<const Checkpoint>* out)
{
    std::lock_guard<std::mutex> lock(mu_);
    while (next_ <= position && !queued_.empty()) {
        Ingested& ingested = ready_[next_];
        ingested.status = ingest(queued_.front(), &ingested.checkpoint);
        queued_.pop_front();
        ++next_;
    }
    const auto it = ready_.find(position);
    if (it == ready_.end())
        return Status(StatusCode::kInvalidArgument,
                      strcat_args("checkpoint stream position ", position,
                                  " was never queued or already taken"));
    const Status status = it->second.status;
    *out = std::move(it->second.checkpoint);
    ready_.erase(it);
    return status;
}

bool
CheckpointStreamReceiver::holds(std::uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return pages_.count(key) != 0;
}

Status
CheckpointStreamReceiver::missing_key(std::uint64_t key,
                                      const char* what) const
{
    if (retired_.count(key) != 0)
        return Status(StatusCode::kRetiredKey,
                      strcat_args("checkpoint delta ", what, " key ", key,
                                  ", which was retired"));
    return Status(StatusCode::kUnknownKey,
                  strcat_args("checkpoint delta ", what, " key ", key,
                              ", which the receiver does not hold"));
}

Status
CheckpointStreamReceiver::ingest(const std::vector<std::uint8_t>& image,
                                 std::shared_ptr<const Checkpoint>* out)
{
    obs::ScopedSpan span("ckpt_image.decode", "ckpt");
    auto ck = std::make_shared<Checkpoint>();
    CheckpointDelta delta;
    if (const Status status = deserialize_delta(image, ck.get(), &delta);
        !status.ok())
        return status;
    const std::uint64_t want = last_ ? last_->id : kNoBase;
    if (delta.base_id != want)
        return Status(StatusCode::kWrongBase,
                      strcat_args("checkpoint delta is based on ",
                                  delta.base_id, ", the stream is at ",
                                  want));

    // Check every key before changing anything: a rejected image must
    // leave the receiver exactly as it was.
    for (const std::uint64_t key : delta.retired)
        if (pages_.count(key) == 0)
            return missing_key(key, "retires");
    for (const StoredPageRef& page : delta.carried) {
        if (retired_.count(page->key()) != 0)
            return missing_key(page->key(), "carries");
        if (pages_.count(page->key()) != 0)
            return Status(StatusCode::kMalformedRecord,
                          strcat_args("checkpoint delta carries key ",
                                      page->key(), ", already held"));
    }
    const auto carries = [&delta](std::uint64_t key) {
        const auto it = std::lower_bound(
            delta.carried.begin(), delta.carried.end(), key,
            [](const StoredPageRef& page, std::uint64_t k) {
                return page->key() < k;
            });
        return it != delta.carried.end() && (*it)->key() == key;
    };
    for (const DeltaRun& run : delta.runs) {
        if (run.key == 0 || carries(run.key))
            continue;
        if (std::binary_search(delta.retired.begin(), delta.retired.end(),
                               run.key))
            return Status(StatusCode::kRetiredKey,
                          strcat_args("checkpoint delta names key ",
                                      run.key, ", which it retires"));
        if (pages_.count(run.key) == 0)
            return missing_key(run.key, "names");
    }
    // A stream's first image, or one that changes the geometry, starts
    // from fresh tables: a slot no run names would be left unspecified.
    bool fresh = !last_;
    for (std::size_t s = 0; s < kNumStores && !fresh; ++s)
        fresh = last_->stores[s].slots.size() != delta.geometry[s];
    if (fresh) {
        std::uint64_t named = 0;
        for (const DeltaRun& run : delta.runs)
            named += run.count;
        if (named != delta.total_slots())
            return Status(StatusCode::kMalformedRecord,
                          strcat_args("checkpoint delta starts fresh tables"
                                      " but names ", named, " of ",
                                      delta.total_slots(), " slots"));
    }

    for (const std::uint64_t key : delta.retired) {
        pages_.erase(key);
        retired_.insert(key);
    }
    for (const StoredPageRef& page : delta.carried)
        pages_.emplace(page->key(), page);
    // Fresh tables start as all zero pages sharing one chunk, so the
    // stream's first image costs memory only for the chunks that hold
    // other content.
    StoredPageRef zero;
    if (fresh) {
        for (const DeltaRun& run : delta.runs) {
            if (run.key != 0 && pages_.at(run.key)->is_zero()) {
                zero = pages_.at(run.key);
                break;
            }
        }
    }
    // Slots number the stores in order: each store takes the part of
    // every run that falls in its [first, first + size) range.
    std::uint64_t first = 0;
    for (std::size_t s = 0; s < kNumStores; ++s) {
        StoredPageTable& table = ck->stores[s].slots;
        // Share the base's chunks; set() clones only those it touches.
        table = fresh ? StoredPageTable(delta.geometry[s], zero)
                      : last_->stores[s].slots;
        const std::uint64_t end = first + table.size();
        for (const DeltaRun& run : delta.runs) {
            const std::uint64_t lo =
                std::max<std::uint64_t>(run.first_slot, first);
            const std::uint64_t hi = std::min<std::uint64_t>(
                std::uint64_t{run.first_slot} + run.count, end);
            if (lo >= hi)
                continue;
            const StoredPageRef ref =
                run.key != 0 ? pages_.at(run.key) : nullptr;
            for (std::uint64_t slot = lo; slot < hi; ++slot) {
                if (table.at(slot - first) != ref)
                    table.set(slot - first, ref);
            }
        }
        first = end;
    }
    last_ = ck;
    *out = std::move(ck);
    return Status();
}

}  // namespace rsafe::replay::ckpt
