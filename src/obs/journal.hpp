// fsda::obs -- the flight recorder: a time-resolved, lock-free event
// journal (DESIGN.md §14).
//
// The PR-3 metrics layer answers "how much, in total"; this layer answers
// "when".  Every instrumented thread owns one fixed-size SPSC ring of
// compact 32-byte binary events (steady-clock timestamp, thread id,
// category, interned name id, one f64 payload).  Producers never block and
// never allocate: when a ring is full the event is dropped and counted --
// the journal keeps the OLDEST unconsumed events and drops the newest,
// deterministically, so `snapshot()` (the single consumer, serialized by
// the recorder mutex) sees a contiguous prefix of each thread's stream and
// `dropped_events_total()` is exact even under concurrent writers.  Drain
// regularly (a serving daemon snapshots on its scrape cadence); the
// exit/signal dump hook flushes whatever is still buffered.
//
// Recording is OFF by default.  A disabled emit is one relaxed atomic load
// (the FSDA_EVENT_* macros check the flag before touching anything else);
// an enabled emit is one steady_clock read plus one SPSC push -- no locks,
// no allocation, tens of nanoseconds.  String names are interned once per
// call site through a function-local static, so the hot path carries a
// 4-byte id, never a string.
//
// Snapshots merge all rings into a time-ordered Journal which the
// exporters (perfetto_export.hpp) turn into Chrome/Perfetto trace JSON or
// a JSON-lines dump, which span_tree() folds into the per-run timing tree
// (`fsda_cli run --trace`, FSDA_TRACE), and which bench_drift_loop queries
// to compute detection latency and recovery time as first-class
// quantities.  One primitive per concept: the registry keeps totals,
// HdrHistogram keeps distributions, the journal keeps *when*.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace fsda::obs {

enum class EventType : std::uint8_t {
  Begin = 0,    ///< scope open (Perfetto "B")
  End = 1,      ///< scope close (Perfetto "E")
  Instant = 2,  ///< point event (Perfetto "i")
  Counter = 3,  ///< sampled value (Perfetto "C")
};

enum class EventCategory : std::uint8_t {
  Serving = 0,
  Training = 1,
  Drift = 2,
  Causal = 3,
  System = 4,
};

[[nodiscard]] const char* to_string(EventType t) noexcept;
[[nodiscard]] const char* to_string(EventCategory c) noexcept;

/// One journal record; 32 bytes, trivially copyable (rings memcpy these).
struct Event {
  std::uint64_t ts_ns = 0;    ///< steady ns since the recorder epoch
  std::uint32_t name_id = 0;  ///< interned name (FlightRecorder::intern)
  std::uint32_t tid = 0;      ///< small sequential thread id
  EventType type = EventType::Instant;
  EventCategory cat = EventCategory::System;
  std::uint8_t pad_[6] = {};
  double value = 0.0;
};
static_assert(sizeof(Event) == 32, "Event must stay one compact cache "
                                   "half-line");

/// Single-producer single-consumer ring of events.  The producer is the
/// owning thread; the consumer is FlightRecorder::snapshot() (serialized by
/// the recorder mutex, so the SPSC invariant holds).  try_push drops the
/// NEWEST event when full -- bounded, wait-free, exactly counted.
class EventRing {
 public:
  /// `capacity` is rounded up to a power of two (min 8).
  explicit EventRing(std::size_t capacity);

  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  /// Producer side.  False (and an exact drop count) when the ring is full.
  bool try_push(const Event& e) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ >= capacity_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ >= capacity_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    slots_[head & mask_] = e;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: appends all pending events to `out`, oldest first, and
  /// frees their slots.  Returns the number drained.
  std::size_t drain(std::vector<Event>& out);

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  void reset_dropped() noexcept {
    dropped_.store(0, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events currently buffered (racy by nature; exact when quiescent).
  [[nodiscard]] std::size_t size() const noexcept;

 private:
  std::unique_ptr<Event[]> slots_;
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::uint64_t cached_tail_ = 0;  // producer-local snapshot of tail_
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::atomic<std::uint64_t> dropped_{0};
};

/// Plain-value copy of the merged journal: all rings drained, events
/// ordered by timestamp, names resolved through the interning table.
struct Journal {
  /// Wall-clock ns (unix epoch) corresponding to steady ts_ns == 0, so
  /// exporters can anchor the trace in real time.
  std::uint64_t epoch_unix_ns = 0;
  std::vector<Event> events;       ///< time-ordered
  std::vector<std::string> names;  ///< name_id -> string
  std::uint64_t dropped_total = 0;

  [[nodiscard]] const std::string& name(std::uint32_t id) const;
};

/// Plain-value span tree folded from a journal's Begin/End pairs.
struct SpanSnapshot {
  std::string name;
  double seconds = 0.0;
  std::uint64_t count = 0;
  std::vector<SpanSnapshot> children;
  /// Root only: the journal's dropped_total.  Nonzero means full rings
  /// lost events, so spans may be missing or undercounted.
  std::uint64_t dropped_events = 0;

  /// First direct child with this name, or nullptr.
  [[nodiscard]] const SpanSnapshot* child(const std::string& child_name) const;
};

/// Folds Begin/End pairs into a tree under a synthetic "root" node.
/// Pairs are matched on a stack per thread, so scopes nest only within
/// their own thread and each thread's outermost scopes hang off the root;
/// same-named scopes under the same parent merge, summing seconds and
/// counts.  An End with no open Begin (its Begin was dropped, or drained
/// by an earlier snapshot) and a Begin still open at the end of the
/// journal contribute nothing.
[[nodiscard]] SpanSnapshot span_tree(const Journal& journal);

/// Indented human-readable tree (milliseconds, counts), plus a warning
/// line when events were dropped.
[[nodiscard]] std::string to_string(const SpanSnapshot& tree);

/// {"name":...,"seconds":...,"count":...,"children":[...]}; the root also
/// carries "dropped_events" when nonzero.
[[nodiscard]] std::string to_json(const SpanSnapshot& tree);

namespace detail {
extern std::atomic<bool> g_recorder_enabled;
struct ThreadRingRef {
  EventRing* ring = nullptr;
  std::uint32_t tid = 0;
};
/// This thread's ring, registered with the global recorder on first use.
[[nodiscard]] ThreadRingRef& thread_ring();
}  // namespace detail

/// True when the flight recorder is capturing events (default: off).
[[nodiscard]] inline bool recorder_enabled() noexcept {
  return detail::g_recorder_enabled.load(std::memory_order_relaxed);
}

/// The process-wide flight recorder (leaked singleton, like the metrics
/// registry: rings cached in long-lived threads stay valid at shutdown).
class FlightRecorder {
 public:
  static FlightRecorder& global();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void set_enabled(bool on) noexcept {
    detail::g_recorder_enabled.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept { return recorder_enabled(); }

  /// Interns `name`, returning a stable 4-byte id.  Takes the recorder
  /// mutex; call sites cache the id in a function-local static (the
  /// FSDA_EVENT_* macros do this).
  std::uint32_t intern(std::string_view name);

  /// Records one event into the calling thread's ring.  No-op when
  /// disabled.  Wait-free when enabled (after the thread's first emit,
  /// which registers its ring).
  void emit(EventType type, EventCategory cat, std::uint32_t name_id,
            double value) noexcept {
    if (!recorder_enabled()) return;
    detail::ThreadRingRef& tr = detail::thread_ring();
    Event e;
    e.ts_ns = now_ns();
    e.name_id = name_id;
    e.tid = tr.tid;
    e.type = type;
    e.cat = cat;
    e.value = value;
    tr.ring->try_push(e);
  }

  /// Steady ns since the recorder epoch (process start of the recorder).
  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_steady_)
            .count());
  }

  /// Drains every ring and returns the merged, time-ordered journal.
  /// Events are consumed: a second snapshot returns only newer events.
  [[nodiscard]] Journal snapshot();

  /// Exact total of events dropped by full rings since start (or the last
  /// reset()), summed over all threads.
  [[nodiscard]] std::uint64_t dropped_events_total() const;

  /// Capacity (events) for rings registered AFTER this call; existing
  /// thread rings keep their size.  Rounded up to a power of two.
  void set_thread_ring_capacity(std::size_t events);
  [[nodiscard]] std::size_t thread_ring_capacity() const;

  /// Drains all rings into the void and zeroes the drop counters (tests).
  /// Ring registrations and interned names are kept.
  void reset();

  /// Writes a JSON-lines journal dump (header line + one event per line)
  /// of a fresh snapshot to `path`.  Best effort: false on I/O failure,
  /// never throws.
  bool dump_to_file(const std::string& path);

  /// Installs an atexit hook plus SIGTERM/SIGINT handlers that dump the
  /// journal to `path` before the process dies, then re-raise the default
  /// disposition.  The handlers are best-effort (they run non-async-safe
  /// code; acceptable on the graceful-termination paths they cover).
  /// Idempotent: the first path wins.
  void install_exit_dump(const std::string& path);

 private:
  friend detail::ThreadRingRef& detail::thread_ring();

  FlightRecorder();

  /// Registers the calling thread's ring (under mutex_).
  void register_thread(detail::ThreadRingRef& ref);

  std::chrono::steady_clock::time_point epoch_steady_;
  std::uint64_t epoch_unix_ns_ = 0;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<EventRing>> rings_;  // never removed
  std::unordered_map<std::string, std::uint32_t> name_ids_;
  std::vector<std::string> names_;
  std::size_t ring_capacity_ = 8192;
};

/// RAII Begin/End pair for the journal; inert when the recorder is
/// disabled at construction (one relaxed load).
class ScopedEvent {
 public:
  template <typename IdFn>
  ScopedEvent(EventCategory cat, IdFn resolve_id) noexcept {
    if (recorder_enabled()) {
      cat_ = cat;
      id_ = resolve_id();
      active_ = true;
      FlightRecorder::global().emit(EventType::Begin, cat_, id_, 0.0);
    }
  }
  ScopedEvent(const ScopedEvent&) = delete;
  ScopedEvent& operator=(const ScopedEvent&) = delete;
  ~ScopedEvent() {
    if (active_) {
      FlightRecorder::global().emit(EventType::End, cat_, id_, 0.0);
    }
  }

 private:
  EventCategory cat_ = EventCategory::System;
  std::uint32_t id_ = 0;
  bool active_ = false;
};

}  // namespace fsda::obs

#define FSDA_EVENT_CONCAT_INNER(a, b) a##b
#define FSDA_EVENT_CONCAT(a, b) FSDA_EVENT_CONCAT_INNER(a, b)

/// Point event named by a string literal; `category` is an EventCategory,
/// `val` a double payload.  Disabled cost: one relaxed load.
#define FSDA_EVENT_INSTANT(category, name_literal, val)                       \
  do {                                                                        \
    if (::fsda::obs::recorder_enabled()) {                                    \
      static const std::uint32_t fsda_ev_id =                                 \
          ::fsda::obs::FlightRecorder::global().intern(name_literal);         \
      ::fsda::obs::FlightRecorder::global().emit(                             \
          ::fsda::obs::EventType::Instant, (category), fsda_ev_id, (val));    \
    }                                                                         \
  } while (0)

/// Sampled-value event (Perfetto counter track).
#define FSDA_EVENT_COUNTER(category, name_literal, val)                       \
  do {                                                                        \
    if (::fsda::obs::recorder_enabled()) {                                    \
      static const std::uint32_t fsda_ev_id =                                 \
          ::fsda::obs::FlightRecorder::global().intern(name_literal);         \
      ::fsda::obs::FlightRecorder::global().emit(                             \
          ::fsda::obs::EventType::Counter, (category), fsda_ev_id, (val));    \
    }                                                                         \
  } while (0)

/// Scoped Begin/End pair named by a string literal.
#define FSDA_EVENT_SCOPE(category, name_literal)                              \
  ::fsda::obs::ScopedEvent FSDA_EVENT_CONCAT(fsda_scope_, __LINE__)(          \
      (category), [] {                                                        \
        static const std::uint32_t id =                                       \
            ::fsda::obs::FlightRecorder::global().intern(name_literal);       \
        return id;                                                            \
      })
