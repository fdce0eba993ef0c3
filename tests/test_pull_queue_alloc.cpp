// Allocation count of the pull queue's steady state. This binary replaces
// the global operator new with a counting one, so it is kept apart from the
// other suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/pull_queue.hpp"
#include "sched/pull/policy.hpp"

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

/// One service cycle: requests for `items` items (item i gets i % 5 + 1 of
/// them, and one of item 7's leaves impatiently), then extract_best until
/// the queue is empty, recycling every extracted buffer.
void cycle(core::PullQueue& queue, const sched::PullPolicy& policy,
           workload::RequestId& next_id, double& clock, std::uint32_t items) {
  for (std::uint32_t k = 0; k < 5; ++k) {
    for (std::uint32_t i = 0; i < items; ++i) {
      if (k > i % 5) continue;
      workload::Request r;
      r.id = next_id++;
      r.item = static_cast<catalog::ItemId>((i * 37) % items);
      r.cls = static_cast<workload::ClassId>(i % 3);
      r.arrival = clock;
      clock += 0.5;
      queue.add(r, 3.0 - r.cls, 1.0 + static_cast<double>(r.item % 4),
                0.01);
    }
  }
  if (const auto* entry = queue.find(7)) {
    const workload::Request r = entry->pending.back();
    queue.remove_request(r.item, r.id, 3.0 - r.cls);
  }
  while (auto entry =
             queue.extract_best(policy, sched::PullContext{clock, 1.0})) {
    queue.recycle(std::move(entry->pending));
  }
}

TEST(PullQueueAllocation, SteadyServiceCyclesAllocateNothing) {
  const auto policy =
      sched::make_pull_policy(sched::PullPolicyKind::kImportance, 0.4);
  ASSERT_TRUE(policy->ctx_invariant());  // the indexed engine runs
  core::PullQueue queue;
  workload::RequestId next_id = 0;
  double clock = 0.0;
  constexpr std::uint32_t kItems = 300;
  // Warm-up: the entry, score and tree arrays, the item index and the
  // request buffers reach their working sizes.
  for (int round = 0; round < 20; ++round) {
    cycle(queue, *policy, next_id, clock, kItems);
  }
  const std::uint64_t before = g_allocations.load();
  for (int round = 0; round < 200; ++round) {
    cycle(queue, *policy, next_id, clock, kItems);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0U);
  EXPECT_TRUE(queue.empty());
}

TEST(PullQueueAllocation, ClearKeepsTheBuffersForTheNextRun) {
  const auto policy =
      sched::make_pull_policy(sched::PullPolicyKind::kImportance, 0.4);
  core::PullQueue queue;
  workload::RequestId next_id = 0;
  double clock = 0.0;
  // A run cut short (entries still queued), a wipe, and a full run: the
  // wiped entries' buffers come back through the spares.
  const auto round = [&] {
    for (std::uint32_t i = 0; i < 64; ++i) {
      workload::Request r;
      r.id = next_id++;
      r.item = i;
      r.arrival = clock;
      queue.add(r, 1.0, 1.0, 0.01);
    }
    queue.clear();
    cycle(queue, *policy, next_id, clock, 64);
  };
  for (int i = 0; i < 20; ++i) round();
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 50; ++i) round();
  EXPECT_EQ(g_allocations.load() - before, 0U);
}

TEST(PullQueueAllocation, CounterSeesAllocations) {
  // Guards the two tests above against a counter that never counts.
  const std::uint64_t before = g_allocations.load();
  core::PullQueue queue;
  workload::Request r;
  queue.add(r, 1.0, 1.0, 0.01);
  EXPECT_GT(g_allocations.load(), before);
}

}  // namespace
}  // namespace pushpull
