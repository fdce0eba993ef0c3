#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "obs/counters.hpp"
#include "sched/pull/entry.hpp"
#include "sched/pull/policy.hpp"
#include "workload/population.hpp"

namespace pushpull::core {

/// The server's pull queue: one aggregated entry per distinct requested
/// item (the paper's R_i / Q_i / S_i bookkeeping), with policy-driven
/// extraction of the most important entry.
///
/// Storage is a dense vector of entries plus a dense item→slot index (a
/// vector indexed by item id, grown to the largest id seen); removal swaps
/// with the back, so insertion, lookup and removal are O(1) and hash
/// nothing. Selection has two engines:
///
/// - kIndexed (default): cached per-entry scores plus a tournament max-tree
///   over the slots. Mutations (add / extract / remove_request) mark the
///   touched slot dirty; extraction rescores only dirty slots and reads the
///   winner at the tree root — O(d·log n) per slot where d is the number of
///   entries whose R_i/Q_i/age inputs changed since the last extraction,
///   instead of the O(n) full rescan. A leaf update stops climbing at the
///   first node whose winner it did not change. Only policies whose score
///   depends solely on the entry (PullPolicy::ctx_invariant()) can use the
///   cache; context-dependent policies (RxW, LWF, queue-aware importance,
///   aging) transparently fall back to the reference scan.
/// - kScan: the original O(n) linear rescan, kept as the reference engine
///   for the differential fuzz oracle and the throughput benchmark.
///
/// Both engines are bit-identical by construction: the tree comparator is
/// the scan's exact fold condition (higher score wins, ties toward the
/// lower slot's item id resolved by `item <`), and max over that total
/// order is associative, so the tree winner equals the left-to-right scan
/// winner. Any NaN score (where the fold is not associative) forces the
/// scan engine for the rest of the policy's tenure.
class PullQueue {
 public:
  enum class SelectMode { kScan, kIndexed };

  PullQueue() = default;
  explicit PullQueue(SelectMode mode) : mode_(mode) {}

  /// True when no item has pending requests.
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Number of distinct items with pending requests.
  [[nodiscard]] std::size_t distinct_items() const noexcept {
    return entries_.size();
  }

  /// Total pending requests across all items (the queue length the
  /// analytical model calls L_pull).
  [[nodiscard]] std::size_t total_requests() const noexcept {
    return total_requests_;
  }

  [[nodiscard]] std::span<const sched::PullEntry> entries() const noexcept {
    return entries_;
  }

  /// Appends a request, creating or extending the item's entry.
  /// `priority` is the requesting client's q_j; `length` and `popularity`
  /// are the item's catalog attributes (cached in the entry so policies
  /// never need catalog access). Item ids index a dense table, so they are
  /// expected to be catalog ids: the table grows to the largest id seen.
  void add(const workload::Request& request, double priority, double length,
           double popularity);

  /// Entry for a specific item, if present.
  [[nodiscard]] const sched::PullEntry* find(catalog::ItemId item) const;

  /// Scores all entries under `policy` and removes and returns the best
  /// (ties broken toward the lowest item id). Returns nullopt when empty.
  ///
  /// Cached scores are keyed on the policy object's address: extracting
  /// with a different PullPolicy instance rescores everything. A caller
  /// that destroys a policy and constructs a replacement at the same
  /// address between extractions must call invalidate_scores() (no current
  /// caller replaces a policy mid-run).
  [[nodiscard]] std::optional<sched::PullEntry> extract_best(
      const sched::PullPolicy& policy, const sched::PullContext& ctx);

  /// Removes and returns a specific item's entry (used by tests and by
  /// blocking paths that must drop a selected entry).
  [[nodiscard]] std::optional<sched::PullEntry> extract(catalog::ItemId item);

  /// Removes one pending request (an impatient client abandoning); the
  /// entry's priority sum and first-arrival are re-derived, and the entry
  /// disappears when its last request leaves. `priority` must be the q_j
  /// that was passed to add(). Returns false if the request is not queued.
  bool remove_request(catalog::ItemId item, workload::RequestId request,
                      double priority);

  /// Hands back an extracted entry's request buffer once its caller is done
  /// with it. The buffer is cleared and kept (if it holds any capacity) for
  /// the next new entry, so steady-state adds do not allocate. Optional: a
  /// buffer that is simply destroyed costs only the allocation it saves.
  void recycle(std::vector<workload::Request>&& buffer);

  /// Empties the queue; the entries' request buffers are recycled.
  void clear();

  /// Drops every cached score (next extract_best rescores all entries).
  void invalidate_scores() noexcept { last_policy_ = nullptr; }

  /// Installs (nullptr removes) the observability counter hook. The queue
  /// tallies request enters/leaves, winning extracts and the peak length
  /// into it; a null hook costs one pointer test per mutation. The hook
  /// never influences queue behavior.
  void set_counters(obs::QueueCounters* counters) noexcept {
    counters_ = counters;
  }

 private:
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = std::numeric_limits<Slot>::max();

  void mark_dirty(std::size_t slot);
  /// The reference selection: the exact legacy left-to-right fold.
  [[nodiscard]] std::size_t select_by_scan(const sched::PullPolicy& policy,
                                           const sched::PullContext& ctx) const;
  [[nodiscard]] Slot slot_of(catalog::ItemId item) const noexcept {
    return item < slot_of_.size() ? slot_of_[item] : kNoSlot;
  }
  [[nodiscard]] Slot tree_winner(Slot l, Slot r) const noexcept;
  /// Rewrites slot's leaf (empty when slot >= size) and its root path.
  /// The walk stops at the first node whose winner is unchanged and is not
  /// `slot`, unless `full_walk` asks for every node up to the root.
  void tree_set_leaf(std::size_t slot, bool full_walk = false);
  /// (Re)builds the tree with capacity for the current entry count.
  void rebuild_tree();

  SelectMode mode_ = SelectMode::kIndexed;
  std::vector<sched::PullEntry> entries_;
  // Dense item→slot index: slot_of_[item] is the item's slot in entries_,
  // kNoSlot when the item has no entry (or lies beyond the largest id seen).
  std::vector<Slot> slot_of_;
  // Cleared request buffers handed back through recycle(), given to new
  // entries LIFO.
  std::vector<std::vector<workload::Request>> spare_;
  std::size_t total_requests_ = 0;
  obs::QueueCounters* counters_ = nullptr;

  // Indexed-selection state. scores_/is_dirty_ parallel entries_; dirty_
  // is a stack of slots to rescore (flag-deduplicated, entries may be
  // stale after swap-removes and are revalidated on drain). tree_ is a
  // flat tournament tree: leaves at [cap, 2cap) hold slot ids (kNoSlot
  // when vacant), tree_[1] is the winning slot.
  std::vector<double> scores_;
  std::vector<char> is_dirty_;
  std::vector<Slot> dirty_;
  std::vector<Slot> tree_;
  std::size_t tree_cap_ = 0;
  const sched::PullPolicy* last_policy_ = nullptr;
  bool has_nan_score_ = false;
};

}  // namespace pushpull::core
