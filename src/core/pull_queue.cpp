#include "core/pull_queue.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace pushpull::core {

void PullQueue::add(const workload::Request& request, double priority,
                    double length, double popularity) {
  if (request.item >= slot_of_.size()) {
    slot_of_.resize(std::size_t{request.item} + 1, kNoSlot);
  }
  Slot slot = slot_of_[request.item];
  if (slot == kNoSlot) {
    slot = static_cast<Slot>(entries_.size());
    slot_of_[request.item] = slot;
    sched::PullEntry entry;
    entry.item = request.item;
    entry.length = length;
    entry.popularity = popularity;
    entry.first_arrival = request.arrival;
    if (!spare_.empty()) {
      entry.pending = std::move(spare_.back());
      spare_.pop_back();
    }
    entries_.push_back(std::move(entry));
    scores_.push_back(0.0);
    is_dirty_.push_back(0);
    if (tree_cap_ != 0 && entries_.size() > tree_cap_) {
      rebuild_tree();
    } else {
      tree_set_leaf(slot);
    }
  }
  auto& entry = entries_[slot];
  entry.pending.push_back(request);
  entry.total_priority += priority;
  entry.total_arrival += request.arrival;
  mark_dirty(slot);
  ++total_requests_;
  if (counters_ != nullptr) {
    ++counters_->enters;
    if (total_requests_ > counters_->peak) counters_->peak = total_requests_;
  }
}

const sched::PullEntry* PullQueue::find(catalog::ItemId item) const {
  const Slot slot = slot_of(item);
  return slot == kNoSlot ? nullptr : &entries_[slot];
}

std::size_t PullQueue::select_by_scan(const sched::PullPolicy& policy,
                                      const sched::PullContext& ctx) const {
  std::size_t best = 0;
  double best_score = policy.score(entries_[0], ctx);
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    const double s = policy.score(entries_[i], ctx);
    if (s > best_score ||
        (s == best_score && entries_[i].item < entries_[best].item)) {
      best = i;
      best_score = s;
    }
  }
  return best;
}

std::optional<sched::PullEntry> PullQueue::extract_best(
    const sched::PullPolicy& policy, const sched::PullContext& ctx) {
  if (entries_.empty()) return std::nullopt;
  std::size_t best = 0;
  if (mode_ == SelectMode::kScan || !policy.ctx_invariant()) {
    best = select_by_scan(policy, ctx);
  } else {
    const std::size_t n = entries_.size();
    if (&policy != last_policy_) {
      // New (or first) policy: every cached score is stale.
      last_policy_ = &policy;
      has_nan_score_ = false;
      dirty_.clear();
      dirty_.reserve(n);
      for (std::size_t slot = 0; slot < n; ++slot) {
        is_dirty_[slot] = 1;
        dirty_.push_back(static_cast<Slot>(slot));
      }
    }
    if (tree_cap_ < n) rebuild_tree();
    while (!dirty_.empty()) {
      const std::size_t slot = dirty_.back();
      dirty_.pop_back();
      if (slot >= n || is_dirty_[slot] == 0) continue;  // stale stack entry
      is_dirty_[slot] = 0;
      const double s = policy.score(entries_[slot], ctx);
      if (std::isnan(s)) has_nan_score_ = true;
      scores_[slot] = s;
      tree_set_leaf(slot);
    }
    // NaN scores break the fold/tree equivalence (NaN compares false both
    // ways); defer to the reference scan whenever one is cached.
    best = has_nan_score_ ? select_by_scan(policy, ctx) : tree_[1];
  }
  return extract(entries_[best].item);
}

std::optional<sched::PullEntry> PullQueue::extract(catalog::ItemId item) {
  const Slot slot = slot_of(item);
  if (slot == kNoSlot) return std::nullopt;
  const std::size_t back = entries_.size() - 1;
  sched::PullEntry out = std::move(entries_[slot]);
  slot_of_[item] = kNoSlot;
  if (slot != back) {
    entries_[slot] = std::move(entries_.back());
    // The moved entry keeps its cached score; only its slot changed.
    scores_[slot] = scores_[back];
    if (is_dirty_[back] != 0 && is_dirty_[slot] == 0) {
      is_dirty_[slot] = 1;
      dirty_.push_back(static_cast<Slot>(slot));
    }
    slot_of_[entries_[slot].item] = slot;
  }
  entries_.pop_back();
  scores_.pop_back();
  is_dirty_.pop_back();
  tree_set_leaf(back);  // vacated leaf
  // Two leaves changed: the moved entry's keeps its slot id but carries
  // another item and score. The one-leaf early exit covers the vacated walk
  // only below the two leaves' common ancestor, so the moved path is
  // rewritten in full, which covers that ancestor and everything above.
  if (slot != back) tree_set_leaf(slot, /*full_walk=*/true);
  if (total_requests_ < out.pending.size()) {
    throw std::logic_error(
        "PullQueue: extracting item " + std::to_string(item) + " with " +
        std::to_string(out.pending.size()) +
        " pending requests but only " + std::to_string(total_requests_) +
        " tracked in total; add/remove accounting is corrupt");
  }
  total_requests_ -= out.pending.size();
  if (counters_ != nullptr && !out.pending.empty()) {
    counters_->leaves += out.pending.size();
    ++counters_->extracts;
  }
  return out;
}

bool PullQueue::remove_request(catalog::ItemId item,
                               workload::RequestId request, double priority) {
  const Slot slot = slot_of(item);
  if (slot == kNoSlot) return false;
  auto& entry = entries_[slot];
  auto pending_it = entry.pending.begin();
  for (; pending_it != entry.pending.end(); ++pending_it) {
    if (pending_it->id == request) break;
  }
  if (pending_it == entry.pending.end()) return false;
  entry.total_arrival -= pending_it->arrival;
  entry.pending.erase(pending_it);
  --total_requests_;
  if (counters_ != nullptr) ++counters_->leaves;
  if (entry.pending.empty()) {
    // The emptied entry leaves the queue; its batch size is already zero,
    // so extract() adjusts no further counts.
    recycle(std::move(extract(item)->pending));
    return true;
  }
  entry.total_priority -= priority;
  entry.first_arrival = entry.pending.front().arrival;
  for (const auto& r : entry.pending) {
    if (r.arrival < entry.first_arrival) entry.first_arrival = r.arrival;
  }
  mark_dirty(slot);
  return true;
}

void PullQueue::recycle(std::vector<workload::Request>&& buffer) {
  if (buffer.capacity() == 0) return;
  buffer.clear();
  spare_.push_back(std::move(buffer));
}

void PullQueue::clear() {
  // A mid-run wipe (cold-recovery crash) discards every queued request, so
  // the enter/leave conservation tally still balances at run end.
  if (counters_ != nullptr) counters_->leaves += total_requests_;
  for (auto& entry : entries_) {
    slot_of_[entry.item] = kNoSlot;
    recycle(std::move(entry.pending));
  }
  entries_.clear();
  total_requests_ = 0;
  scores_.clear();
  is_dirty_.clear();
  dirty_.clear();
  tree_.clear();
  tree_cap_ = 0;
  last_policy_ = nullptr;
  has_nan_score_ = false;
}

void PullQueue::mark_dirty(std::size_t slot) {
  if (is_dirty_[slot] == 0) {
    is_dirty_[slot] = 1;
    dirty_.push_back(static_cast<Slot>(slot));
  }
}

PullQueue::Slot PullQueue::tree_winner(Slot l, Slot r) const noexcept {
  if (l == kNoSlot) return r;
  if (r == kNoSlot) return l;
  // Exactly the scan's fold condition with l as the running best: the
  // later slot wins only when strictly better or tied with a lower item.
  const double sl = scores_[l];
  const double sr = scores_[r];
  if (sr > sl || (sr == sl && entries_[r].item < entries_[l].item)) return r;
  return l;
}

void PullQueue::tree_set_leaf(std::size_t slot, bool full_walk) {
  if (tree_cap_ == 0 || slot >= tree_cap_) return;
  std::size_t i = tree_cap_ + slot;
  tree_[i] = slot < entries_.size() ? static_cast<Slot>(slot) : kNoSlot;
  for (i >>= 1; i >= 1; i >>= 1) {
    const Slot won = tree_winner(tree_[2 * i], tree_[2 * i + 1]);
    // Only slot's leaf changed, so a node that keeps a winner other than
    // slot feeds its parent the same slot with the same score and item:
    // every node above it already holds the winner of its children.
    if (!full_walk && won == tree_[i] && won != slot) return;
    tree_[i] = won;
  }
}

void PullQueue::rebuild_tree() {
  std::size_t cap = 16;
  while (cap < entries_.size()) cap *= 2;
  tree_cap_ = cap;
  tree_.assign(2 * cap, kNoSlot);
  for (std::size_t slot = 0; slot < entries_.size(); ++slot) {
    tree_[cap + slot] = static_cast<Slot>(slot);
  }
  for (std::size_t i = cap - 1; i >= 1; --i) {
    tree_[i] = tree_winner(tree_[2 * i], tree_[2 * i + 1]);
  }
}

}  // namespace pushpull::core
