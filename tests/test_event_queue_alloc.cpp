// Allocation count of the pending-event set's steady state. This binary
// replaces the global operator new with a counting one, so it is kept apart
// from the other suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "des/event_queue.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }

namespace pushpull {
namespace {

/// One round of timer traffic at a steady population: 64 fresh events with
/// increasing ids (as the Simulator issues them), every third cancelled,
/// then pops until `keep` live events remain.
void round(des::EventQueue& queue, des::EventId& next_id, double& clock,
           std::vector<des::EventId>& ids, std::size_t keep) {
  ids.clear();
  for (int k = 0; k < 64; ++k) {
    const des::EventId id = next_id++;
    const double when = clock + static_cast<double>((id * 7919) % 101);
    queue.push(des::Event{when, id, [] {}});
    ids.push_back(id);
  }
  for (std::size_t k = 0; k < ids.size(); k += 3) {
    EXPECT_TRUE(queue.cancel(ids[k]));
  }
  while (queue.size() > keep) {
    const des::Event event = queue.pop();
    clock = event.time;
  }
}

TEST(EventQueueAllocation, SteadyPushPopCancelAllocatesNothing) {
  des::EventQueue queue;
  des::EventId next_id = 1;
  double clock = 0.0;
  std::vector<des::EventId> ids;
  ids.reserve(64);
  constexpr std::size_t kKeep = 200;
  // Warm-up: heap and id table reach their working sizes.
  for (int r = 0; r < 50; ++r) round(queue, next_id, clock, ids, kKeep);
  const std::uint64_t before = g_allocations.load();
  for (int r = 0; r < 2000; ++r) round(queue, next_id, clock, ids, kKeep);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0U);
  EXPECT_EQ(queue.size(), kKeep);
}

TEST(EventQueueAllocation, ClearKeepsTheBuffersForTheNextRun) {
  des::EventQueue queue;
  des::EventId next_id = 1;
  double clock = 0.0;
  std::vector<des::EventId> ids;
  ids.reserve(64);
  for (int r = 0; r < 50; ++r) round(queue, next_id, clock, ids, 100);
  queue.clear();
  EXPECT_TRUE(queue.empty());
  const std::uint64_t before = g_allocations.load();
  for (int r = 0; r < 50; ++r) round(queue, next_id, clock, ids, 100);
  EXPECT_EQ(g_allocations.load() - before, 0U);
}

}  // namespace
}  // namespace pushpull
