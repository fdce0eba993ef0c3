// Randomized oracle tests: the optimized PullQueue and EventQueue are
// driven with long random operation sequences and compared step-by-step
// against trivially-correct reference implementations. These catch index
// corruption (swap-removal), tie-break drift and cancellation bugs that
// targeted unit tests can miss.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/pull_queue.hpp"
#include "des/event_queue.hpp"
#include "rng/uniform.hpp"
#include "rng/xoshiro256ss.hpp"
#include "sched/pull/aging.hpp"
#include "sched/pull/policies.hpp"

namespace pushpull {
namespace {

// ------------------------------------------------- PullQueue vs reference

/// Reference pull queue: a plain map of item -> request list; selection is
/// a naive scan with the identical scoring and tie-break rule.
class ReferencePullQueue {
 public:
  void add(const workload::Request& r, double priority, double length,
           double popularity) {
    auto& e = entries_[r.item];
    if (e.pending.empty()) {
      e.item = r.item;
      e.length = length;
      e.popularity = popularity;
      e.first_arrival = r.arrival;
      e.total_priority = 0.0;
      e.total_arrival = 0.0;
    }
    e.pending.push_back(r);
    ++total_requests_;
    e.total_priority += priority;
    e.total_arrival += r.arrival;
  }

  bool remove_request(catalog::ItemId item, workload::RequestId id,
                      double priority) {
    auto it = entries_.find(item);
    if (it == entries_.end()) return false;
    auto& e = it->second;
    for (auto p = e.pending.begin(); p != e.pending.end(); ++p) {
      if (p->id == id) {
        e.total_arrival -= p->arrival;
        e.total_priority -= priority;
        e.pending.erase(p);
        --total_requests_;
        if (e.pending.empty()) {
          entries_.erase(it);
        } else {
          e.first_arrival = e.pending.front().arrival;
          for (const auto& q : e.pending) {
            if (q.arrival < e.first_arrival) e.first_arrival = q.arrival;
          }
        }
        return true;
      }
    }
    return false;
  }

  /// The item extract_best would take, without taking it.
  std::optional<catalog::ItemId> best_item(const sched::PullPolicy& policy,
                                           const sched::PullContext& ctx) {
    if (entries_.empty()) return std::nullopt;
    const sched::PullEntry* best = nullptr;
    double best_score = 0.0;
    for (const auto& [item, e] : entries_) {
      const double s = policy.score(e, ctx);
      if (best == nullptr || s > best_score ||
          (s == best_score && e.item < best->item)) {
        best = &e;
        best_score = s;
      }
    }
    return best->item;
  }

  std::optional<sched::PullEntry> extract_best(
      const sched::PullPolicy& policy, const sched::PullContext& ctx) {
    const auto item = best_item(policy, ctx);
    if (!item.has_value()) return std::nullopt;
    return extract(*item);
  }

  std::optional<sched::PullEntry> extract(catalog::ItemId item) {
    auto it = entries_.find(item);
    if (it == entries_.end()) return std::nullopt;
    sched::PullEntry out = it->second;
    entries_.erase(it);
    total_requests_ -= out.pending.size();
    return out;
  }

  [[nodiscard]] std::size_t total_requests() const { return total_requests_; }
  [[nodiscard]] std::size_t distinct_items() const { return entries_.size(); }

 private:
  std::map<catalog::ItemId, sched::PullEntry> entries_;
  std::size_t total_requests_ = 0;
};

/// The catalog a fuzz schedule draws from.
struct FuzzShape {
  std::uint32_t items = 25;   // item ids drawn from [0, items)
  std::uint32_t lengths = 5;  // length = 1 + item % lengths
  std::uint32_t classes = 3;  // cls drawn from [0, classes), q = classes - cls
  int fill = 0;               // leading steps that only add
  // Share of steps that take the oracle's current winner out through
  // extract(item), i.e. the tree root leaves by a swap-remove.
  double winner_evictions = 0.0;
};

/// Drives the indexed PullQueue, the O(n) reference-scan PullQueue and the
/// naive map oracle through one random schedule (adds, impatience removals,
/// direct evictions — the shed/blocking path — and policy extractions),
/// asserting all three agree after every operation.
/// `peak_items`, when given, receives the most distinct items queued at once.
void run_pull_fuzz(const sched::PullPolicy& policy, std::uint64_t seed,
                   int ops, const FuzzShape& shape = {},
                   std::size_t* peak_items = nullptr) {
  core::PullQueue fast;  // default engine: indexed (dirty-set + max-tree)
  core::PullQueue scan(core::PullQueue::SelectMode::kScan);
  ReferencePullQueue oracle;

  rng::Xoshiro256ss eng(seed);
  double clock = 0.0;
  workload::RequestId next_id = 0;
  std::vector<workload::Request> live;  // queued requests, for removals

  // Takes the extracted requests out of the live set.
  const auto forget = [&live](const sched::PullEntry& entry) {
    for (const auto& r : entry.pending) {
      for (auto it = live.begin(); it != live.end(); ++it) {
        if (it->id == r.id) {
          live.erase(it);
          break;
        }
      }
    }
  };

  for (int op = 0; op < ops; ++op) {
    clock += 0.25;
    const double dice = op < shape.fill ? 0.0 : rng::uniform01(eng);
    if (dice < 0.5) {
      // Insert a request for a random item.
      workload::Request r;
      r.id = next_id++;
      r.item = static_cast<catalog::ItemId>(
          rng::uniform_below(eng, shape.items));
      r.cls = static_cast<workload::ClassId>(
          rng::uniform_below(eng, shape.classes));
      r.arrival = clock;
      const double priority = static_cast<double>(shape.classes - r.cls);
      const double length = 1.0 + static_cast<double>(r.item % shape.lengths);
      const double popularity = 1.0 / (1.0 + static_cast<double>(r.item));
      fast.add(r, priority, length, popularity);
      scan.add(r, priority, length, popularity);
      oracle.add(r, priority, length, popularity);
      live.push_back(r);
    } else if (dice < 0.68 && !live.empty()) {
      // Remove a random queued request (impatience path).
      const auto idx =
          static_cast<std::size_t>(rng::uniform_below(eng, live.size()));
      const workload::Request victim = live[idx];
      const double priority =
          static_cast<double>(shape.classes - victim.cls);
      const bool a = fast.remove_request(victim.item, victim.id, priority);
      const bool s = scan.remove_request(victim.item, victim.id, priority);
      const bool b = oracle.remove_request(victim.item, victim.id, priority);
      ASSERT_EQ(a, b);
      ASSERT_EQ(s, b);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (dice < 0.76) {
      // Evict a specific item outright (the shed / blocking-drop path).
      const auto item = static_cast<catalog::ItemId>(
          rng::uniform_below(eng, shape.items));
      const auto a = fast.extract(item);
      const auto s = scan.extract(item);
      const auto b = oracle.extract(item);
      ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
      ASSERT_EQ(s.has_value(), b.has_value()) << "op " << op;
      if (a.has_value()) {
        ASSERT_EQ(a->pending.size(), b->pending.size());
        ASSERT_EQ(s->pending.size(), b->pending.size());
        forget(*a);
      }
    } else if (dice >= 1.0 - shape.winner_evictions) {
      // Evict the current winner by id: the slot at the tree root leaves
      // and the back entry moves into it, with no rescore in between.
      const sched::PullContext ctx{clock, 2.0};
      const auto item = oracle.best_item(policy, ctx);
      if (!item.has_value()) continue;
      const auto a = fast.extract(*item);
      const auto s = scan.extract(*item);
      const auto b = oracle.extract(*item);
      ASSERT_TRUE(a.has_value()) << "op " << op;
      ASSERT_TRUE(s.has_value()) << "op " << op;
      ASSERT_EQ(a->pending.size(), b->pending.size());
      ASSERT_EQ(s->pending.size(), b->pending.size());
      forget(*a);
    } else {
      // Extract the best entry under the policy.
      const sched::PullContext ctx{clock, 2.0};
      const auto a = fast.extract_best(policy, ctx);
      const auto s = scan.extract_best(policy, ctx);
      const auto b = oracle.extract_best(policy, ctx);
      ASSERT_EQ(a.has_value(), b.has_value());
      ASSERT_EQ(s.has_value(), b.has_value());
      if (a.has_value()) {
        ASSERT_EQ(a->item, b->item) << "op " << op;
        ASSERT_EQ(s->item, b->item) << "op " << op;
        ASSERT_EQ(a->pending.size(), b->pending.size());
        ASSERT_DOUBLE_EQ(a->total_priority, b->total_priority);
        forget(*a);
      }
    }
    ASSERT_EQ(fast.total_requests(), oracle.total_requests());
    ASSERT_EQ(scan.total_requests(), oracle.total_requests());
    ASSERT_EQ(fast.distinct_items(), oracle.distinct_items());
    ASSERT_EQ(scan.distinct_items(), oracle.distinct_items());
    if (peak_items != nullptr) {
      *peak_items = std::max(*peak_items, fast.distinct_items());
    }
  }
}

class PullQueueOracleTest
    : public ::testing::TestWithParam<sched::PullPolicyKind> {};

TEST_P(PullQueueOracleTest, RandomOpsMatchReference) {
  const auto policy = sched::make_pull_policy(GetParam(), 0.4);
  run_pull_fuzz(*policy, 0xFACE + static_cast<std::uint64_t>(GetParam()),
                8000);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PullQueueOracleTest,
    ::testing::Values(sched::PullPolicyKind::kFcfs,
                      sched::PullPolicyKind::kMrf,
                      sched::PullPolicyKind::kStretch,
                      sched::PullPolicyKind::kPriority,
                      sched::PullPolicyKind::kRxw,
                      sched::PullPolicyKind::kLwf,
                      sched::PullPolicyKind::kImportance,
                      sched::PullPolicyKind::kImportanceQueueAware),
    [](const ::testing::TestParamInfo<sched::PullPolicyKind>& param_info) {
      std::string name(sched::to_string(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

class WidePullQueueOracleTest
    : public ::testing::TestWithParam<sched::PullPolicyKind> {};

TEST_P(WidePullQueueOracleTest, DeepTiedTreeMatchesReference) {
  // More than 4096 items queued at once give the tree 8192 leaves, 13
  // levels. Lengths and priorities from {1, 2} make equal scores common,
  // so item-id tie-breaks decide many nodes, and winner evictions move the
  // back entry into the root's slot without a rescore in between.
  FuzzShape shape;
  shape.items = 5000;
  shape.lengths = 2;
  shape.classes = 2;
  shape.fill = 12000;
  shape.winner_evictions = 0.1;
  const auto policy = sched::make_pull_policy(GetParam(), 0.4);
  ASSERT_TRUE(policy->ctx_invariant());  // selection runs on the tree
  std::size_t peak_items = 0;
  run_pull_fuzz(*policy, 0x5EED + static_cast<std::uint64_t>(GetParam()),
                60000, shape, &peak_items);
  EXPECT_GT(peak_items, 4096U);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, WidePullQueueOracleTest,
    ::testing::Values(sched::PullPolicyKind::kMrf,
                      sched::PullPolicyKind::kStretch,
                      sched::PullPolicyKind::kPriority,
                      sched::PullPolicyKind::kImportance),
    [](const ::testing::TestParamInfo<sched::PullPolicyKind>& param_info) {
      return std::string(sched::to_string(param_info.param));
    });

TEST(PullQueueOracle, AgedImportanceMatchesReference) {
  // Aging reads ctx.now, so the indexed engine must detect the
  // ctx-dependence and defer to the scan — verified against the oracle.
  const auto policy = sched::make_aged_importance(0.4, 0.35);
  EXPECT_FALSE(policy->ctx_invariant());
  run_pull_fuzz(*policy, 0xA9ED, 8000);
}

TEST(PullQueueOracle, ZeroRateAgingStaysIndexed) {
  // rate = 0 makes the decorator transparent, so the inner importance
  // policy's invariance carries through and the cached path is exercised.
  const auto policy = sched::make_aged_importance(0.4, 0.0);
  EXPECT_TRUE(policy->ctx_invariant());
  run_pull_fuzz(*policy, 0xA9ED0, 8000);
}

TEST(PullQueueOracle, PolicySwapsInvalidateCachedScores) {
  // Alternating between two distinct policy objects (different alphas, and
  // a ctx-dependent interloper) on the SAME queues must rescore correctly
  // every time — this is the cache-invalidation-on-policy-change path.
  core::PullQueue fast;
  core::PullQueue scan(core::PullQueue::SelectMode::kScan);
  const auto gamma_low = sched::make_pull_policy(
      sched::PullPolicyKind::kImportance, 0.1);
  const auto gamma_high = sched::make_pull_policy(
      sched::PullPolicyKind::kImportance, 0.9);
  const auto rxw = sched::make_pull_policy(sched::PullPolicyKind::kRxw);
  const sched::PullPolicy* const policies[] = {gamma_low.get(),
                                               gamma_high.get(), rxw.get()};

  rng::Xoshiro256ss eng(0x50AB);
  workload::RequestId next_id = 0;
  double clock = 0.0;
  for (int round = 0; round < 600; ++round) {
    clock += 1.0;
    for (int j = 0; j < 4; ++j) {
      workload::Request r;
      r.id = next_id++;
      r.item = static_cast<catalog::ItemId>(rng::uniform_below(eng, 12));
      r.arrival = clock;
      const double priority = 1.0 + rng::uniform01(eng);
      const double length = 1.0 + static_cast<double>(r.item % 3);
      fast.add(r, priority, length, 0.5);
      scan.add(r, priority, length, 0.5);
    }
    const sched::PullContext ctx{clock, 2.0};
    const auto& policy = *policies[round % 3];
    const auto a = fast.extract_best(policy, ctx);
    const auto s = scan.extract_best(policy, ctx);
    ASSERT_EQ(a.has_value(), s.has_value());
    if (a.has_value()) {
      ASSERT_EQ(a->item, s->item) << "round " << round;
    }
  }
}

// ------------------------------------------------ EventQueue vs multimap

TEST(EventQueueOracle, RandomOpsMatchMultimap) {
  des::EventQueue fast;
  // Oracle: (time, id) ordered set mirrors the heap's contract exactly.
  std::set<std::pair<double, des::EventId>> oracle;

  rng::Xoshiro256ss eng(0xBEEF);
  des::EventId next_id = 1;
  std::vector<des::EventId> pending_ids;

  for (int op = 0; op < 20000; ++op) {
    const double dice = rng::uniform01(eng);
    if (dice < 0.5) {
      const double when = rng::uniform(eng, 0.0, 1000.0);
      const des::EventId id = next_id++;
      fast.push(des::Event{when, id, [] {}});
      oracle.emplace(when, id);
      pending_ids.push_back(id);
    } else if (dice < 0.65 && !pending_ids.empty()) {
      // Cancel a random pending event (or an already-fired id).
      const auto idx = static_cast<std::size_t>(
          rng::uniform_below(eng, pending_ids.size()));
      const des::EventId id = pending_ids[idx];
      bool oracle_had = false;
      for (auto it = oracle.begin(); it != oracle.end(); ++it) {
        if (it->second == id) {
          oracle.erase(it);
          oracle_had = true;
          break;
        }
      }
      ASSERT_EQ(fast.cancel(id), oracle_had);
      pending_ids.erase(pending_ids.begin() +
                        static_cast<std::ptrdiff_t>(idx));
    } else if (!oracle.empty()) {
      ASSERT_FALSE(fast.empty());
      ASSERT_DOUBLE_EQ(fast.next_time(), oracle.begin()->first);
      const des::Event event = fast.pop();
      ASSERT_EQ(event.id, oracle.begin()->second);
      oracle.erase(oracle.begin());
      for (auto it = pending_ids.begin(); it != pending_ids.end(); ++it) {
        if (*it == event.id) {
          pending_ids.erase(it);
          break;
        }
      }
    } else {
      ASSERT_TRUE(fast.empty());
    }
    ASSERT_EQ(fast.size(), oracle.size());
  }
}

}  // namespace
}  // namespace pushpull
