#include "des/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace pushpull::des {

std::size_t EventQueue::IdTable::home(EventId id) const noexcept {
  // Fibonacci hashing: consecutive ids land far apart.
  return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
}

std::size_t EventQueue::IdTable::probe(EventId id) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(id);
  while (slots_[i].state != State::kEmpty && slots_[i].id != id) {
    i = (i + 1) & mask;
  }
  return i;
}

auto EventQueue::IdTable::get(EventId id) const noexcept -> State {
  if (used_ == 0) return State::kEmpty;
  return slots_[probe(id)].state;
}

void EventQueue::IdTable::insert(EventId id, State state) {
  if (2 * (used_ + 1) > slots_.size()) grow();
  slots_[probe(id)] = Slot{id, state};
  ++used_;
}

void EventQueue::IdTable::set(EventId id, State state) noexcept {
  slots_[probe(id)].state = state;
}

void EventQueue::IdTable::erase(EventId id) noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = probe(id);
  // Backward shift: pull later entries of the probe run into the hole
  // unless that would move one before its home slot.
  for (std::size_t j = (hole + 1) & mask; slots_[j].state != State::kEmpty;
       j = (j + 1) & mask) {
    if (((j - home(slots_[j].id)) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].state = State::kEmpty;
  --used_;
}

void EventQueue::IdTable::clear() noexcept {
  for (Slot& slot : slots_) slot.state = State::kEmpty;
  used_ = 0;
}

void EventQueue::IdTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
  shift_ = 64U - static_cast<unsigned>(std::countr_zero(slots_.size()));
  for (const Slot& slot : old) {
    if (slot.state != State::kEmpty) slots_[probe(slot.id)] = slot;
  }
}

void EventQueue::push(Event event) {
  if (ids_.get(event.id) != IdTable::State::kEmpty) {
    throw std::logic_error("EventQueue: duplicate event id " +
                           std::to_string(event.id));
  }
  ids_.insert(event.id, IdTable::State::kLive);
  heap_.push_back(std::move(event));
  std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
  ++live_count_;
}

void EventQueue::drop_cancelled_top() const {
  // heap_.size() == live_count_ means nothing cancelled is left to purge.
  while (heap_.size() > live_count_ &&
         ids_.get(heap_.front().id) == IdTable::State::kCancelled) {
    ids_.erase(heap_.front().id);
    std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
    heap_.pop_back();
  }
}

Event EventQueue::pop() {
  drop_cancelled_top();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue: pop() on an empty queue");
  }
  std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
  Event event = std::move(heap_.back());
  heap_.pop_back();
  ids_.erase(event.id);
  --live_count_;
  return event;
}

const Event& EventQueue::top() const {
  drop_cancelled_top();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue: top() on an empty queue");
  }
  return heap_.front();
}

bool EventQueue::cancel(EventId id) {
  if (ids_.get(id) != IdTable::State::kLive) return false;
  ids_.set(id, IdTable::State::kCancelled);
  --live_count_;
  return true;
}

void EventQueue::clear() {
  heap_.clear();
  ids_.clear();
  live_count_ = 0;
}

}  // namespace pushpull::des
