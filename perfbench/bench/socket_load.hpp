// Open-loop socket load: one generator thread multiplexes a few Unix-socket
// connections to a UdsServer with ppoll(), sends single-row Predict frames
// on a Poisson schedule drawn from the workload seed, and checks every
// reply.  Latency is timed from each request's due time, so a stalled
// generator or server charges the wait to every request behind the stall;
// the generator's own lateness is reported separately.  Nothing is retried:
// a shed, an error frame, an invalid reply or a reply that never comes is a
// failed operation.
#pragma once

#include <poll.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "la/matrix.hpp"
#include "serve/wire.hpp"

namespace perfbench {

/// One fixed-rate step of open-loop load.
struct LoadStep {
  double rate = 0.0;  ///< offered, requests per second
  std::vector<double> lat_ms;   ///< per valid reply, from its due time
  std::vector<std::int64_t> due_ns;  ///< due time (now_ns() clock), same order
  std::vector<double> late_ms;  ///< per request sent: send time - due time
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_slo = 0;
  std::uint64_t error_frames = 0;  ///< BadFrame / Internal / ShuttingDown
  std::uint64_t invalid = 0;       ///< wrong type, id, shape or values
  std::uint64_t timeouts = 0;      ///< no reply within the drain window
  std::uint64_t inflight_end = 0;  ///< outstanding when the schedule ended

  [[nodiscard]] std::uint64_t failed() const {
    return shed_queue_full + shed_slo + error_frames + invalid + timeouts;
  }
};

/// Replies to a closed-loop pass over labelled rows.
struct ProbeResult {
  std::size_t rows = 0;
  std::size_t answered = 0;  ///< valid replies
  std::size_t correct = 0;   ///< argmax == label
  std::uint64_t failed = 0;
};

class SocketLoad {
 public:
  /// `rows` are the raw feature rows requests cycle through; replies must
  /// carry `classes` probabilities.
  SocketLoad(std::string socket_path, std::size_t connections,
             const fsda::la::Matrix& rows, std::size_t classes);
  ~SocketLoad();

  SocketLoad(const SocketLoad&) = delete;
  SocketLoad& operator=(const SocketLoad&) = delete;

  [[nodiscard]] bool connect();

  /// Offers Poisson arrivals at `rate` for `seconds`, then waits up to
  /// `drain_s` for outstanding replies.  `tick` (optional) is called
  /// between sends with now_ns() -- the hook for sampling daemon state on
  /// the generator's time base.
  LoadStep run(double rate, double seconds, fsda::common::Rng& rng,
               double drain_s = 1.0,
               const std::function<void(std::int64_t)>& tick = {});

  /// Sends `x`'s rows one at a time (one in flight) and scores the replies
  /// against `labels`.
  ProbeResult probe(const fsda::la::Matrix& x,
                    const std::vector<std::int64_t>& labels);

 private:
  struct Conn {
    int fd = -1;
    fsda::serve::FrameReader reader;
  };
  /// Reads whatever is available on every readable connection and handles
  /// the frames; `on_reply(id, proba)` gets each valid reply.
  void receive(std::int64_t timeout_ns, LoadStep& step,
               const std::function<void(std::uint64_t, const fsda::la::Matrix&)>&
                   on_reply);
  void handle(const fsda::serve::Frame& frame, LoadStep& step,
              const std::function<void(std::uint64_t, const fsda::la::Matrix&)>&
                  on_reply);
  /// Sends row `row` of `src` as one Predict frame on connection `conn`.
  bool send_row(std::size_t conn, std::uint64_t id, const fsda::la::Matrix& src,
                std::size_t row);

  std::string path_;
  std::vector<Conn> conns_;
  const fsda::la::Matrix& rows_;
  std::size_t classes_;
  std::uint64_t next_id_ = 1;
  /// Due time of each request of the current step, indexed by id -
  /// base_id_; -1 once answered (or when the send failed).
  std::vector<std::int64_t> pending_;
  std::uint64_t base_id_ = 1;
  std::uint64_t answered_ = 0;
  fsda::la::Matrix x_;              // 1 x d request staging
  fsda::la::Matrix reply_;          // decoded Proba payload
  std::vector<std::uint8_t> tx_;    // encoded frame
  std::vector<std::uint8_t> rx_;    // recv buffer
  std::vector<pollfd> pfds_;        // one per connection
};

/// Steady-clock nanoseconds (the generator's time base).
[[nodiscard]] std::int64_t now_ns();

}  // namespace perfbench
