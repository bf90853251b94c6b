#ifndef RSAFE_REPLAY_CKPT_STORE_CKPT_STREAM_H_
#define RSAFE_REPLAY_CKPT_STORE_CKPT_STREAM_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "replay/ckpt_store/page_pool.h"

/**
 * @file
 * Checkpoint streams: ship one replay stream's checkpoints by content.
 *
 * A sender and a receiver hold one ordered stream of kCheckpointDelta
 * images (ckpt_image.h). Each image is a delta against the stream's
 * previous checkpoint, names changed slots by PagePool key, and carries
 * only the pages the receiver does not hold yet, so a page crosses the
 * stream once however many checkpoints share it. The receiver keeps a
 * key -> page map and the last checkpoint it decoded, and builds each
 * new Checkpoint by sharing that one's chunked tables and setting only
 * the changed slots (the way CheckpointStore::take shares its previous
 * checkpoint): decoding costs O(changed slots) and copies no page.
 *
 * The sender marks every page it ships (StoredPage::mark_streamed), so
 * the receiver holds exactly the marked pages still alive. When the
 * pool drops a marked page its key is listed in the next image, and the
 * receiver drops it too. That is safe because the sender holds the base
 * checkpoint it diffs against: every key an image names is alive at
 * encode time, and keys are never reused. A pool feeds at most one
 * stream.
 *
 * Images must be ingested in stream order. The receiver queues them and
 * take(n) first ingests every earlier image still queued, so jobs that
 * run out of order or are discarded can never strand a key a later
 * image relies on.
 */

namespace rsafe::replay {

struct Checkpoint;

namespace ckpt {

/** The sending end: one per stream, on one thread. */
class CheckpointStreamSender {
  public:
    /** Ship checkpoints whose pages live in @p pool (which must outlive
     *  this sender and feed no other stream). */
    explicit CheckpointStreamSender(PagePool* pool) : pool_(pool) {}

    /**
     * Encode @p checkpoint as the stream's next image, a delta against
     * the previously encoded one, which this sender then drops in favor
     * of @p checkpoint.
     */
    std::vector<std::uint8_t> encode(
        std::shared_ptr<const Checkpoint> checkpoint);

  private:
    PagePool* pool_;
    /** The last checkpoint encoded: the next image's base. */
    std::shared_ptr<const Checkpoint> base_;
};

/** The receiving end: one per stream; every method is thread-safe. */
class CheckpointStreamReceiver {
  public:
    /** Queue the stream's next image; @return its stream position. */
    std::size_t enqueue(std::vector<std::uint8_t> image);

    /**
     * Ingest, in order, every queued image up to position @p position,
     * then hand out that image's checkpoint (each position once).
     *
     * Ingest is strict and all-or-nothing: besides what
     * deserialize_delta() rejects, an image must name the last ingested
     * checkpoint as its base (kWrongBase), every key it names must be
     * held here or carried by it (kUnknownKey; kRetiredKey for one
     * already retired), and the stream's first image, or one that
     * changes the geometry, must name every slot (kMalformedRecord). A
     * rejected image changes nothing, so images based on it are
     * rejected too.
     */
    Status take(std::size_t position,
                std::shared_ptr<const Checkpoint>* out);

    /** @return true if the page of @p key is held. */
    bool holds(std::uint64_t key) const;

  private:
    struct Ingested {
        Status status;
        std::shared_ptr<const Checkpoint> checkpoint;
    };

    /** Decode @p image against the current state. Requires mu_. */
    Status ingest(const std::vector<std::uint8_t>& image,
                  std::shared_ptr<const Checkpoint>* out);

    /** kRetiredKey or kUnknownKey for @p key. Requires mu_. */
    Status missing_key(std::uint64_t key, const char* what) const;

    mutable std::mutex mu_;
    /** Images not yet ingested; the front one is at position next_. */
    std::deque<std::vector<std::uint8_t>> queued_;
    std::size_t next_ = 0;
    /** Ingested images whose position has not been taken yet. */
    std::map<std::size_t, Ingested> ready_;
    std::unordered_map<std::uint64_t, StoredPageRef> pages_;
    /** Every key retired so far (never reused: naming one is an error). */
    std::unordered_set<std::uint64_t> retired_;
    /** The last checkpoint ingested: the next image's base. */
    std::shared_ptr<const Checkpoint> last_;
};

}  // namespace ckpt
}  // namespace rsafe::replay

#endif  // RSAFE_REPLAY_CKPT_STORE_CKPT_STREAM_H_
