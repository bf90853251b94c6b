#ifndef RSAFE_OBS_TRACE_H_
#define RSAFE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <vector>

/**
 * @file
 * Low-overhead pipeline tracing.
 *
 * Each pipeline thread (recorder, checkpointing replayer, AR workers)
 * owns a preallocated TraceBuffer and appends fixed-size events to it
 * with no locks and no allocation: the hot path is a thread-local
 * pointer dereference, a steady_clock read, and a bump of an atomic
 * size. The process-level Tracer registers every buffer, and after the
 * run stitches them into one Chrome/Perfetto `trace_event` JSON file
 * (load it in chrome://tracing or https://ui.perfetto.dev).
 *
 * Alarms are correlated across threads with flow events: the CR emits a
 * flow-start keyed by the alarm's log index when it queues a
 * PendingAlarm, and the AR worker that claims it emits the matching
 * flow-finish inside its analysis span — Perfetto draws the arrow from
 * detection to verdict.
 *
 * Tracing is off by default. Components call Tracer::set_enabled(true)
 * (the `rsafe-report` CLI and benches do). Event names and categories
 * must be string literals (or other static-lifetime strings): buffers
 * store the pointers, not copies.
 */

namespace rsafe::obs {

/** One fixed-size trace event; name/category must outlive the tracer. */
struct TraceEvent {
    /** Chrome trace_event phase, restricted to what the pipeline needs. */
    enum class Phase : std::uint8_t {
        kBegin,       ///< "B" — span open
        kEnd,         ///< "E" — span close
        kInstant,     ///< "i" — point event
        kCounter,     ///< "C" — sampled series value
        kFlowStart,   ///< "s" — flow arrow tail (alarm raised)
        kFlowFinish,  ///< "f" — flow arrow head (alarm classified)
    };

    Phase phase = Phase::kInstant;
    bool has_arg = false;
    const char* name = nullptr;      ///< static-lifetime string
    const char* category = nullptr;  ///< static-lifetime string
    const char* arg_name = nullptr;  ///< optional, static-lifetime
    std::uint64_t ts_ns = 0;         ///< relative to session start
    std::uint64_t id = 0;            ///< flow id / counter value
    std::uint64_t arg_value = 0;
};

/**
 * A single-writer event buffer. The owning thread appends; any other
 * thread may read the published prefix after an acquire of size().
 * The capacity is fixed at attach time — when it fills, further events
 * are counted in dropped() instead of allocating (the hot path must
 * never touch the allocator). The storage is allocated uninitialised
 * and emit() constructs each event in place, so attaching a thread
 * costs no more than the events it writes.
 */
class TraceBuffer {
  public:
    static constexpr std::size_t kDefaultCapacity = 1u << 16;

    explicit TraceBuffer(std::string thread_name,
                         std::size_t capacity = kDefaultCapacity);

    /** Append one event (owner thread only). */
    void emit(const TraceEvent& event);

    /** @return number of published events (acquire). */
    std::size_t size() const
    {
        return size_.load(std::memory_order_acquire);
    }

    /** @return events lost to buffer exhaustion. */
    std::uint64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** @return event @p i of the published prefix. */
    const TraceEvent& at(std::size_t i) const { return events_.get()[i]; }

    const std::string& thread_name() const { return name_; }
    std::uint32_t tid() const { return tid_; }

  private:
    friend class Tracer;

    struct FreeEvents {
        void operator()(TraceEvent* events) const
        {
            ::operator delete(events);
        }
    };

    std::string name_;
    std::uint32_t tid_ = 0;  ///< assigned by the Tracer at registration
    const std::size_t capacity_;
    /** Raw storage; events below size() are constructed. */
    std::unique_ptr<TraceEvent, FreeEvents> events_;
    std::atomic<std::size_t> size_{0};
    std::atomic<std::uint64_t> dropped_{0};
};

/** The process-level trace collector; one instance stitches all threads. */
class Tracer {
  public:
    /** @return the process singleton. */
    static Tracer& instance();

    /** Turn tracing on or off. */
    void set_enabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }

    /** @return whether emit paths are live. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Start a fresh trace session: frees every registered buffer and
     * re-zeroes the clock. The session generation moves on, so a thread
     * still holding a buffer from an earlier session re-attaches to a
     * fresh one on its next emit instead of using the freed one. Call
     * it only between runs, when no instrumented thread is emitting.
     */
    void begin_session();

    /**
     * Register the calling thread under @p name, creating (or reusing)
     * its thread-local buffer. Returns nullptr past the buffer cap.
     */
    TraceBuffer* attach_thread(const char* name);

    /** @{ Emit helpers; no-ops when disabled. */
    void span_begin(const char* name, const char* category);
    void span_end(const char* name, const char* category);
    void instant(const char* name, const char* category,
                 const char* arg_name = nullptr, std::uint64_t arg_value = 0);
    void counter(const char* name, const char* category,
                 std::uint64_t value);
    void flow_start(const char* name, const char* category, std::uint64_t id);
    void flow_finish(const char* name, const char* category,
                     std::uint64_t id);
    /** @} */

    /** @return total events shed across all buffers this session. */
    std::uint64_t dropped() const;

    /** @return total events captured across all buffers this session. */
    std::uint64_t event_count() const;

    /** @return the stitched Chrome trace_event JSON document. */
    std::string export_chrome_json() const;

  private:
    Tracer() = default;

    /** Hard cap on registered buffers (attach past it returns null). */
    static constexpr std::size_t kMaxBuffers = 64;

    std::uint64_t now_ns() const;
    TraceBuffer* tls_buffer();
    void emit(const TraceEvent& event);

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;  ///< guards buffers_ and session state
    std::vector<std::unique_ptr<TraceBuffer>> buffers_;
    std::uint64_t t0_ns_ = 0;   ///< steady_clock origin of the session
};

/** RAII span: begin at construction, end at destruction. */
class ScopedSpan {
  public:
    ScopedSpan(const char* name, const char* category)
        : name_(name), category_(category),
          live_(Tracer::instance().enabled())
    {
        if (live_)
            Tracer::instance().span_begin(name_, category_);
    }

    ~ScopedSpan()
    {
        if (live_)
            Tracer::instance().span_end(name_, category_);
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    const char* name_;
    const char* category_;
    bool live_;  ///< balanced even if enabled() flips mid-span
};

/**
 * Append @p text to @p out as the body of a JSON string: quote and
 * backslash escaped, \n, \t and \r by name, any other control byte as
 * \u00XX. Every obs JSON emitter (trace, metrics, forensic reports,
 * flight boxes, /healthz) escapes through this one function.
 */
void append_json_escaped(std::string* out, const std::string& text);

/**
 * Validate that @p json looks like a loadable Chrome trace_event
 * document: a traceEvents array of objects, every event carrying the
 * required fields for its phase, B/E balanced per thread, and every
 * flow-start id terminated by a flow-finish. On failure *error names
 * the first violation.
 */
bool validate_trace_json(const std::string& json, std::string* error);

}  // namespace rsafe::obs

#endif  // RSAFE_OBS_TRACE_H_
