#include "socket_load.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include "fixture.hpp"

namespace perfbench {

using namespace fsda;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SocketLoad::SocketLoad(std::string socket_path, std::size_t connections,
                       const la::Matrix& rows, std::size_t classes)
    : path_(std::move(socket_path)),
      conns_(connections),
      rows_(rows),
      classes_(classes),
      x_(1, rows.cols()),
      rx_(1 << 16) {}

SocketLoad::~SocketLoad() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

bool SocketLoad::connect() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.size() >= sizeof(addr.sun_path)) return false;
  std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
  for (Conn& c : conns_) {
    c.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (c.fd < 0) return false;
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return false;
    }
  }
  return true;
}

bool SocketLoad::send_row(std::size_t conn, std::uint64_t id,
                          const la::Matrix& src, std::size_t row) {
  for (std::size_t c = 0; c < src.cols(); ++c) x_(0, c) = src(row, c);
  tx_.clear();
  serve::append_matrix_frame(tx_, serve::FrameType::Predict, id, x_);
  std::size_t sent = 0;
  while (sent < tx_.size()) {
    const ssize_t n = ::send(conns_[conn].fd, tx_.data() + sent,
                             tx_.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void SocketLoad::handle(
    const serve::Frame& frame, LoadStep& step,
    const std::function<void(std::uint64_t, const la::Matrix&)>& on_reply) {
  // A reply to an earlier step's request arrived after that step's drain
  // window: it was already counted as a timeout, so it is dropped here.
  if (frame.request_id < base_id_) return;
  const std::uint64_t idx = frame.request_id - base_id_;
  if (idx >= pending_.size() || pending_[idx] < 0) {
    ++step.invalid;  // unknown or duplicate request id
    return;
  }
  const std::int64_t due = pending_[idx];
  pending_[idx] = -1;
  ++answered_;
  if (frame.type == serve::FrameType::Error) {
    serve::WireError code = serve::WireError::None;
    std::string message;
    if (!serve::decode_error_payload(frame, code, message)) {
      ++step.invalid;
    } else if (code == serve::WireError::ShedQueueFull) {
      ++step.shed_queue_full;
    } else if (code == serve::WireError::ShedSlo) {
      ++step.shed_slo;
    } else {
      ++step.error_frames;
    }
    return;
  }
  if (frame.type != serve::FrameType::Proba ||
      !serve::decode_matrix_payload(frame, reply_) || reply_.rows() != 1 ||
      reply_.cols() != classes_ || !rows_on_simplex(reply_)) {
    ++step.invalid;
    return;
  }
  ++step.ok;
  step.lat_ms.push_back(static_cast<double>(now_ns() - due) * 1e-6);
  step.due_ns.push_back(due);
  if (on_reply) on_reply(frame.request_id, reply_);
}

void SocketLoad::receive(
    std::int64_t timeout_ns, LoadStep& step,
    const std::function<void(std::uint64_t, const la::Matrix&)>& on_reply) {
  pfds_.resize(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) pfds_[i] = {conns_[i].fd, POLLIN, 0};
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000);
  if (::ppoll(pfds_.data(), pfds_.size(), &ts, nullptr) <= 0) return;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if ((pfds_[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    for (;;) {
      const ssize_t got = ::recv(conns_[i].fd, rx_.data(), rx_.size(),
                                 MSG_DONTWAIT);
      if (got <= 0) break;
      conns_[i].reader.feed(rx_.data(), static_cast<std::size_t>(got));
      serve::Frame frame;
      while (conns_[i].reader.next(frame)) handle(frame, step, on_reply);
      if (conns_[i].reader.bad()) ++step.invalid;
      if (static_cast<std::size_t>(got) < rx_.size()) break;
    }
  }
}

LoadStep SocketLoad::run(double rate, double seconds, common::Rng& rng,
                         double drain_s,
                         const std::function<void(std::int64_t)>& tick) {
  LoadStep step;
  step.rate = rate;
  const auto expected = static_cast<std::size_t>(rate * seconds * 1.2) + 64;
  step.lat_ms.reserve(expected);
  step.due_ns.reserve(expected);
  step.late_ms.reserve(expected);
  pending_.clear();
  pending_.reserve(expected);
  base_id_ = next_id_;
  answered_ = 0;
  auto gap_ns = [&] {
    return static_cast<std::int64_t>(-std::log(1.0 - rng.uniform()) / rate *
                                     1e9);
  };
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t due = t0 + gap_ns();
  std::size_t conn = 0;
  std::size_t row = 0;
  for (;;) {
    std::int64_t now = now_ns();
    while (due <= now && due < end) {
      const std::uint64_t id = next_id_++;
      pending_.push_back(due);
      ++step.sent;
      step.late_ms.push_back(static_cast<double>(now - due) * 1e-6);
      if (!send_row(conn, id, rows_, row)) {
        ++step.error_frames;  // transport failure: counted, never retried
        pending_.back() = -1;
        ++answered_;
      }
      conn = (conn + 1) % conns_.size();
      row = (row + 1) % rows_.rows();
      due += gap_ns();
      now = now_ns();
    }
    if (tick) tick(now);
    if (due >= end) break;
    receive(std::max<std::int64_t>(due - now, 0), step, {});
  }
  step.inflight_end = step.sent - answered_;
  const std::int64_t drain_end =
      now_ns() + static_cast<std::int64_t>(drain_s * 1e9);
  while (answered_ < step.sent && now_ns() < drain_end) {
    receive(1000000, step, {});
  }
  step.timeouts = step.sent - answered_;
  return step;
}

ProbeResult SocketLoad::probe(const la::Matrix& x,
                              const std::vector<std::int64_t>& labels) {
  ProbeResult res;
  res.rows = x.rows();
  LoadStep step;
  pending_.assign(1, -1);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    base_id_ = next_id_;
    const std::uint64_t id = next_id_++;
    pending_[0] = now_ns();
    answered_ = 0;
    const bool sent = send_row(0, id, x, r);
    bool hit = false;
    const std::int64_t deadline = now_ns() + 1000000000;
    while (sent && answered_ == 0 && now_ns() < deadline) {
      receive(1000000, step, [&](std::uint64_t, const la::Matrix& proba) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < proba.cols(); ++c) {
          if (proba(0, c) > proba(0, best)) best = c;
        }
        hit = static_cast<std::int64_t>(best) == labels[r];
      });
    }
    if (answered_ == 0) ++step.timeouts;
    res.correct += hit ? 1 : 0;
  }
  res.answered = step.ok;
  res.failed = step.failed();
  return res;
}

}  // namespace perfbench
