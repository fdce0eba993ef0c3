#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "workload/request.hpp"

namespace pushpull::serve {

/// What happened, as seen by the server's event loop.
enum class CompletionKind : std::uint8_t {
  kArrival,   ///< a client pull request reached the server
  kTimer,     ///< a scheduled timer expired (duration horizon, wake-ups)
  kShutdown,  ///< producers are done; drain and stop
};

/// One event. `time` is serve-time in broadcast units as read from the
/// posting side's serve::Clock; `request` is meaningful for kArrival only.
struct Completion {
  CompletionKind kind = CompletionKind::kTimer;
  double time = 0.0;
  workload::Request request{};
};

/// Bounded multi-producer/single-consumer queue feeding the realtime serve
/// loop.
///
/// Producers (load-driver pacer threads, the timer) `post()`; the single
/// server thread `pop()`s. The bound applies backpressure: `post` blocks
/// while the queue is full, which in an open-loop load test shows up as
/// arrival-stamp skew rather than unbounded memory. `close()` releases
/// everyone; posts after close are dropped (the race between a pacer's last
/// send and shutdown is benign), pops drain what remains and then return
/// nullopt.
///
/// Ordering is strict FIFO by post order — the consumer, not the queue,
/// applies the DES tie rule (arrival-before-slot-end at equal times),
/// because only the consumer sees both streams.
class CompletionQueue {
 public:
  /// Throws std::invalid_argument on a zero capacity.
  explicit CompletionQueue(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument(
          "serve::CompletionQueue: capacity must be positive");
    }
  }

  /// Blocks until there is room (or the queue is closed). Returns false if
  /// the event was dropped because the queue is closed.
  bool post(const Completion& c) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(c);
    ++posted_;
    if (items_.size() > high_water_) high_water_ = items_.size();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking post. Returns false when full or closed.
  bool try_post(const Completion& c) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(c);
      ++posted_;
      if (items_.size() > high_water_) high_water_ = items_.size();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Waits up to `timeout_seconds` (wall seconds — a wait budget, never a
  /// timestamp) for an event. Returns nullopt on timeout, or when the
  /// queue is closed and drained. A negative/zero timeout polls.
  std::optional<Completion> pop(double timeout_seconds) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto ready = [&] { return closed_ || !items_.empty(); };
    if (!ready()) {
      if (timeout_seconds > 0.0) {
        not_empty_.wait_for(
            lock, std::chrono::duration<double>(timeout_seconds), ready);
      }
    }
    if (items_.empty()) return std::nullopt;
    Completion c = items_.front();
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return c;
  }

  /// Blocks indefinitely until an event arrives or the queue is closed and
  /// drained.
  std::optional<Completion> pop_wait() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    Completion c = items_.front();
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return c;
  }

  /// Releases all waiters; subsequent posts are dropped, pops drain.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }
  [[nodiscard]] std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  /// Deepest the queue ever got — a backpressure telemetry point.
  [[nodiscard]] std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }
  /// Total events accepted over the queue's lifetime.
  [[nodiscard]] std::uint64_t posted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return posted_;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Completion> items_;
  bool closed_ = false;
  std::size_t high_water_ = 0;
  std::uint64_t posted_ = 0;
};

}  // namespace pushpull::serve
