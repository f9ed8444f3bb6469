#include "obs/journal.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "obs/perfetto_export.hpp"

namespace fsda::obs {

const char* to_string(EventType t) noexcept {
  switch (t) {
    case EventType::Begin: return "B";
    case EventType::End: return "E";
    case EventType::Instant: return "i";
    case EventType::Counter: return "C";
  }
  return "?";
}

const char* to_string(EventCategory c) noexcept {
  switch (c) {
    case EventCategory::Serving: return "serving";
    case EventCategory::Training: return "training";
    case EventCategory::Drift: return "drift";
    case EventCategory::Causal: return "causal";
    case EventCategory::System: return "system";
  }
  return "?";
}

namespace detail {

std::atomic<bool> g_recorder_enabled{false};

ThreadRingRef& thread_ring() {
  thread_local ThreadRingRef ref;
  if (ref.ring == nullptr) {
    FlightRecorder::global().register_thread(ref);
  }
  return ref;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// EventRing

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

EventRing::EventRing(std::size_t capacity)
    : capacity_(round_up_pow2(capacity)), mask_(capacity_ - 1) {
  slots_ = std::make_unique<Event[]>(capacity_);
}

std::size_t EventRing::drain(std::vector<Event>& out) {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::size_t n = static_cast<std::size_t>(head - tail);
  out.reserve(out.size() + n);
  for (; tail != head; ++tail) {
    out.push_back(slots_[tail & mask_]);
  }
  tail_.store(tail, std::memory_order_release);
  return n;
}

std::size_t EventRing::size() const noexcept {
  return static_cast<std::size_t>(head_.load(std::memory_order_acquire) -
                                  tail_.load(std::memory_order_acquire));
}

// ---------------------------------------------------------------------------
// Journal

const std::string& Journal::name(std::uint32_t id) const {
  static const std::string unknown = "?";
  return id < names.size() ? names[id] : unknown;
}

// ---------------------------------------------------------------------------
// Span tree

const SpanSnapshot* SpanSnapshot::child(const std::string& child_name) const {
  for (const SpanSnapshot& c : children) {
    if (c.name == child_name) return &c;
  }
  return nullptr;
}

SpanSnapshot span_tree(const Journal& journal) {
  // Nodes live in a flat arena (index 0 is the root) and open scopes hold
  // indices, so arena growth never invalidates them.
  struct Node {
    std::uint32_t name_id = 0;
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
    std::vector<std::size_t> children;
  };
  struct Open {
    std::size_t node;
    std::uint64_t begin_ns;
  };
  std::vector<Node> nodes(1);
  std::vector<std::vector<Open>> stacks;  // indexed by tid
  for (const Event& e : journal.events) {
    if (e.type != EventType::Begin && e.type != EventType::End) continue;
    if (e.tid >= stacks.size()) stacks.resize(e.tid + 1);
    std::vector<Open>& stack = stacks[e.tid];
    if (e.type == EventType::Begin) {
      const std::size_t parent = stack.empty() ? 0 : stack.back().node;
      std::size_t node = 0;
      for (const std::size_t c : nodes[parent].children) {
        if (nodes[c].name_id == e.name_id) {
          node = c;
          break;
        }
      }
      if (node == 0) {
        node = nodes.size();
        nodes.push_back({e.name_id, 0, 0, {}});
        nodes[parent].children.push_back(node);
      }
      stack.push_back({node, e.ts_ns});
      continue;
    }
    // End: close the innermost open scope of this name; scopes opened
    // above it lost their End and stay uncounted.
    auto open = stack.rbegin();
    while (open != stack.rend() && nodes[open->node].name_id != e.name_id) {
      ++open;
    }
    if (open == stack.rend()) continue;  // its Begin is not in this journal
    Node& node = nodes[open->node];
    node.ns += e.ts_ns - open->begin_ns;
    node.count += 1;
    stack.erase(std::next(open).base(), stack.end());
  }

  // Copy out, dropping nodes with no closed scope anywhere below them.
  const auto copy = [&](const auto& self, std::size_t idx) -> SpanSnapshot {
    const Node& n = nodes[idx];
    SpanSnapshot out{idx == 0 ? "root" : journal.name(n.name_id),
                     1e-9 * static_cast<double>(n.ns), n.count, {}, 0};
    for (const std::size_t c : n.children) {
      SpanSnapshot child = self(self, c);
      if (child.count != 0 || !child.children.empty()) {
        out.children.push_back(std::move(child));
      }
    }
    return out;
  };
  SpanSnapshot root = copy(copy, 0);
  root.dropped_events = journal.dropped_total;
  return root;
}

std::string to_string(const SpanSnapshot& tree) {
  std::ostringstream os;
  if (tree.dropped_events > 0) {
    os << "(" << tree.dropped_events
       << " journal events dropped: spans may be missing)\n";
  }
  const auto render = [&os](const auto& self, const SpanSnapshot& n,
                            int depth) -> void {
    if (depth >= 0) {
      for (int i = 0; i < depth; ++i) os << "  ";
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3f ms", n.seconds * 1e3);
      os << n.name << ": " << buf << " (x" << n.count << ")\n";
    }
    for (const SpanSnapshot& c : n.children) self(self, c, depth + 1);
  };
  render(render, tree, -1);
  return os.str();
}

std::string to_json(const SpanSnapshot& tree) {
  std::ostringstream os;
  const auto render = [&os](const auto& self, const SpanSnapshot& n) -> void {
    os << "{\"name\":" << json_string(n.name)
       << ",\"seconds\":" << json_number(n.seconds)
       << ",\"count\":" << n.count;
    if (n.dropped_events > 0) {
      os << ",\"dropped_events\":" << n.dropped_events;
    }
    os << ",\"children\":[";
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      if (i > 0) os << ",";
      self(self, n.children[i]);
    }
    os << "]}";
  };
  render(render, tree);
  return os.str();
}

// ---------------------------------------------------------------------------
// FlightRecorder

FlightRecorder::FlightRecorder()
    : epoch_steady_(std::chrono::steady_clock::now()),
      epoch_unix_ns_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count())) {}

FlightRecorder& FlightRecorder::global() {
  // Leaked, like the metrics registry: thread-cached ring pointers must
  // stay valid through any destruction order the runtime picks.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

std::uint32_t FlightRecorder::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = name_ids_.find(std::string(name));
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

void FlightRecorder::register_thread(detail::ThreadRingRef& ref) {
  std::lock_guard<std::mutex> lock(mutex_);
  rings_.push_back(std::make_unique<EventRing>(ring_capacity_));
  ref.ring = rings_.back().get();
  ref.tid = static_cast<std::uint32_t>(rings_.size());  // 1-based
}

Journal FlightRecorder::snapshot() {
  Journal journal;
  std::lock_guard<std::mutex> lock(mutex_);
  journal.epoch_unix_ns = epoch_unix_ns_;
  journal.names = names_;
  for (auto& ring : rings_) {
    ring->drain(journal.events);
    journal.dropped_total += ring->dropped();
  }
  std::stable_sort(journal.events.begin(), journal.events.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return journal;
}

std::uint64_t FlightRecorder::dropped_events_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->dropped();
  return total;
}

void FlightRecorder::set_thread_ring_capacity(std::size_t events) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_capacity_ = round_up_pow2(std::max<std::size_t>(events, 8));
}

std::size_t FlightRecorder::thread_ring_capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_capacity_;
}

void FlightRecorder::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> sink;
  for (auto& ring : rings_) {
    sink.clear();
    ring->drain(sink);
    ring->reset_dropped();
  }
}

bool FlightRecorder::dump_to_file(const std::string& path) {
  const Journal journal = snapshot();
  std::ofstream out(path, std::ios::app);
  if (!out) return false;
  out << journal_to_jsonl(journal);
  return static_cast<bool>(out);
}

namespace {

char g_dump_path[512] = {0};
std::atomic<bool> g_dump_installed{false};

void dump_and_reraise(int sig) {
  // Best effort: snapshot + file I/O are not async-signal-safe, but these
  // handlers cover graceful terminations (SIGTERM/SIGINT) where the
  // process is otherwise idle enough for the dump to matter.
  FlightRecorder::global().dump_to_file(g_dump_path);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void dump_at_exit() { FlightRecorder::global().dump_to_file(g_dump_path); }

}  // namespace

void FlightRecorder::install_exit_dump(const std::string& path) {
  bool expected = false;
  if (!g_dump_installed.compare_exchange_strong(expected, true)) return;
  std::snprintf(g_dump_path, sizeof(g_dump_path), "%s", path.c_str());
  std::atexit(dump_at_exit);
  std::signal(SIGTERM, dump_and_reraise);
  std::signal(SIGINT, dump_and_reraise);
}

}  // namespace fsda::obs
