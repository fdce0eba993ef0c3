#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>

namespace pushpull::metrics {

/// Folds a single producer's sample stream into `State` on a helper thread.
///
/// The producer's `push` is one store into a fixed block. Each full block
/// goes FIFO through a ring of kRing blocks to one helper thread, which
/// calls `State::add(const Sample&)` for every sample in record order — so
/// the state ends bit-identical to folding each sample inline. The handoff
/// takes the mutex once per block and waits on a condition variable only
/// when the ring is full (producer) or empty (helper); nothing spins.
///
/// The helper starts when the first block fills, so a stream shorter than
/// one block never starts a thread. `drain()` joins the helper and folds
/// the partial block inline before handing out the state; pushing may
/// resume afterwards (a later full block starts a new helper). The
/// destructor joins too, so no helper outlives its pipe. If the system
/// refuses a thread, blocks are folded inline instead — same result.
///
/// Memory: at most kRing blocks of kBlock samples, allocated as first used.
template <class Sample, class State>
class FoldPipe {
 public:
  static constexpr std::size_t kBlock = 2048;
  static constexpr std::size_t kRing = 4;

  template <class... Args>
  explicit FoldPipe(Args&&... args) : state_(std::forward<Args>(args)...) {}
  ~FoldPipe() { join(); }

  FoldPipe(const FoldPipe&) = delete;
  FoldPipe& operator=(const FoldPipe&) = delete;

  void push(const Sample& sample) {
    if (fill_ == kBlock) next_block();
    cur_[fill_++] = sample;
  }

  /// Every pushed sample folded; the calling thread owns the state until
  /// the next push.
  [[nodiscard]] State& drain() {
    join();
    if (cur_ != nullptr) {
      for (std::size_t i = 0; i < fill_; ++i) state_.add(cur_[i]);
      fill_ = 0;
    }
    return state_;
  }

  /// Helper threads started so far (for tests: short streams start none).
  [[nodiscard]] std::uint64_t helpers_started() const noexcept {
    return helpers_started_;
  }

 private:
  static constexpr std::size_t kCacheLine = 64;

  /// Hands the full current block (if any) to the helper and takes the
  /// next free slot to fill.
  void next_block() {
    if (cur_ != nullptr) publish();
    cur_ = slot(published_ % kRing);
    fill_ = 0;
  }

  void publish() {
    if (!helper_.joinable() && !start_helper()) {
      // No thread to be had: fold here, in the same order.
      for (std::size_t i = 0; i < kBlock; ++i) state_.add(cur_[i]);
      return;
    }
    std::unique_lock lock(mutex_);
    ++published_;
    work_.notify_one();
    space_.wait(lock, [this] { return published_ - folded_ < kRing; });
  }

  [[nodiscard]] bool start_helper() {
    try {
      helper_ = std::thread([this] { run_helper(); });
    } catch (const std::system_error&) {
      return false;
    }
    ++helpers_started_;
    return true;
  }

  void run_helper() {
    std::unique_lock lock(mutex_);
    for (;;) {
      work_.wait(lock, [this] { return folded_ < published_ || stop_; });
      if (folded_ == published_) return;  // stopped with nothing queued
      const Sample* block = blocks_[folded_ % kRing].get();
      lock.unlock();
      for (std::size_t i = 0; i < kBlock; ++i) state_.add(block[i]);
      lock.lock();
      ++folded_;
      space_.notify_one();
    }
  }

  /// Stops the helper once it has folded every published block.
  void join() {
    if (!helper_.joinable()) return;
    {
      const std::lock_guard lock(mutex_);
      stop_ = true;
    }
    work_.notify_one();
    helper_.join();
    stop_ = false;
  }

  Sample* slot(std::size_t i) {
    if (!blocks_[i]) {
      blocks_[i] = std::make_unique_for_overwrite<Sample[]>(kBlock);
    }
    return blocks_[i].get();
  }

  // The helper's state, the producer's cursor and the shared handoff fields
  // sit on separate cache lines so the two threads do not contend on them.
  alignas(kCacheLine) State state_;
  // Producer side: the block being filled and its fill; fill_ == kBlock
  // with no block yet, so the first push allocates one.
  alignas(kCacheLine) Sample* cur_ = nullptr;
  std::size_t fill_ = kBlock;
  std::uint64_t helpers_started_ = 0;
  // Block k of the stream lives in blocks_[k % kRing]. A slot is allocated
  // by the producer before the block in it is published.
  std::array<std::unique_ptr<Sample[]>, kRing> blocks_;
  // Guarded by mutex_: blocks handed off and blocks folded (folded_ <=
  // published_ <= folded_ + kRing), and the helper's stop request.
  alignas(kCacheLine) std::mutex mutex_;
  std::condition_variable work_;   // helper waits: a block was published
  std::condition_variable space_;  // producer waits: a slot came free
  std::uint64_t published_ = 0;
  std::uint64_t folded_ = 0;
  bool stop_ = false;
  std::thread helper_;
};

}  // namespace pushpull::metrics
