// fsda::serve -- the daemon's MPMC request queue (DESIGN.md §15).
//
// A single mutex-guarded deque serializes every producer (connection
// reader) against every consumer (batching worker) on one cache line; at
// daemon concurrency that lock convoy is the first thing a profiler finds.
// ShardedQueue splits the queue into S independent shards, each a deque
// behind its own cache-line-padded mutex; producers and consumers pick
// shards round-robin via relaxed atomic tickets, so two threads touch the
// same lock only when they land on the same shard at the same time
// (probability ~1/S instead of 1).
//
// Ordering is FIFO per shard and approximately FIFO globally (round-robin
// tickets interleave shards evenly; a consumer drains shards in ticket
// order).  That is the right trade for a batching daemon: the scheduler
// coalesces whatever is oldest-ish into one batch anyway, and strict
// global FIFO would resurrect the single lock.
//
// Blocking waits go through one shared condition variable -- waiting is
// the cold path (a worker only sleeps when the queue is EMPTY, where
// contention is definitionally absent), so the cv does not shard.
// depth() is one atomic load, which is what admission control and the
// batch policy consume on their hot paths.
//
// Invariants:
//   - depth() counts an item from the start of the push that adds it to
//     the end of the try_pop that takes it, so it never underflows: push
//     raises depth_ BEFORE the item becomes visible in its shard, and a
//     consumer only lowers it for items whose rise already happened.
//   - No lost wakeup: push passes through wait_mu_ between publishing the
//     item and notifying, so a consumer is either before its predicate
//     check (and sees the new depth) or already blocked in wait (and gets
//     the notify).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace fsda::serve {

template <typename T>
class ShardedQueue {
 public:
  explicit ShardedQueue(std::size_t shards = 4)
      : shards_(shards == 0 ? 1 : shards) {
    for (auto& s : shards_) s = std::make_unique<Shard>();
  }

  ShardedQueue(const ShardedQueue&) = delete;
  ShardedQueue& operator=(const ShardedQueue&) = delete;

  /// Enqueues one item (round-robin shard).  False once close()d.
  bool push(T item) {
    if (closed_.load(std::memory_order_acquire)) return false;
    Shard& s = *shards_[next_ticket(push_ticket_)];
    depth_.fetch_add(1, std::memory_order_relaxed);
    try {
      std::lock_guard<std::mutex> lk(s.mu);
      s.items.push_back(std::move(item));
    } catch (...) {
      depth_.fetch_sub(1, std::memory_order_relaxed);
      throw;
    }
    { std::lock_guard<std::mutex> lk(wait_mu_); }
    cv_.notify_one();
    return true;
  }

  /// Moves up to `max_items` into `out` (appended) without blocking,
  /// draining shards round-robin from this consumer's ticket.  Returns the
  /// number taken.
  std::size_t try_pop(std::vector<T>& out, std::size_t max_items) {
    if (max_items == 0) return 0;
    std::size_t taken = 0;
    const std::size_t start = next_ticket(pop_ticket_);
    for (std::size_t i = 0; i < shards_.size() && taken < max_items; ++i) {
      Shard& s = *shards_[(start + i) % shards_.size()];
      std::lock_guard<std::mutex> lk(s.mu);
      while (!s.items.empty() && taken < max_items) {
        out.push_back(std::move(s.items.front()));
        s.items.pop_front();
        ++taken;
      }
    }
    // The shard mutex orders every taken item's depth_ rise before this.
    if (taken > 0) depth_.fetch_sub(taken, std::memory_order_relaxed);
    return taken;
  }

  /// Blocking try_pop: waits until at least one item arrives or the queue
  /// is closed AND drained.  Returns 0 only on that final condition, so a
  /// worker loop can use `while (q.pop(batch, n)) { ... }` for shutdown.
  std::size_t pop(std::vector<T>& out, std::size_t max_items) {
    for (;;) {
      const std::size_t taken = try_pop(out, max_items);
      if (taken > 0) return taken;
      std::unique_lock<std::mutex> lk(wait_mu_);
      if (closed_.load(std::memory_order_acquire) && depth() == 0) return 0;
      cv_.wait(lk, [&] {
        return depth() > 0 || closed_.load(std::memory_order_acquire);
      });
      if (closed_.load(std::memory_order_acquire) && depth() == 0) return 0;
    }
  }

  /// Rejects further pushes and wakes every waiting consumer.  Items
  /// already queued remain poppable (drain-then-exit shutdown).
  void close() {
    {
      // Paired with the cv_.wait lock so no consumer can check the flag
      // and sleep between our store and our broadcast.
      std::lock_guard<std::mutex> lk(wait_mu_);
      closed_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

  /// Items currently queued, counting pushes still in flight; one atomic
  /// load (admission control's hot path).
  [[nodiscard]] std::size_t depth() const {
    return depth_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

 private:
  struct alignas(64) Shard {
    std::mutex mu;
    std::deque<T> items;
  };

  std::size_t next_ticket(std::atomic<std::size_t>& ticket) {
    return ticket.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> push_ticket_{0};
  std::atomic<std::size_t> pop_ticket_{0};
  std::atomic<std::size_t> depth_{0};
  std::atomic<bool> closed_{false};
  std::mutex wait_mu_;
  std::condition_variable cv_;
};

}  // namespace fsda::serve
