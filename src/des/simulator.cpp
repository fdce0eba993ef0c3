#include "des/simulator.hpp"

#include <stdexcept>
#include <string>

namespace pushpull::des {

void Simulator::attach_arrivals(std::size_t count, ArrivalTime time_at,
                                ArrivalFire fire) {
  if (stream_.live()) {
    throw std::logic_error(
        "Simulator: attach_arrivals() while an arrival stream is unfinished");
  }
  stream_ = ArrivalStream{count, 0, next_id_, 0.0, std::move(time_at),
                          std::move(fire)};
  if (count > 0) stream_.head_time = stream_.time_at(0);
  next_id_ += count;
  scheduled_ += count;
  emit_evq_level();
}

void Simulator::emit_evq_level() {
  // One schedule_at reaches a mark exactly (the mark doubles past the
  // size), so each mark is reported at its own size; an attach may cross
  // several marks at once and reports each the same way.
  while (pending_events() >= evq_level_mark_) {
    tracer_.emit<obs::Category::kQueue>(now_, "evq_level", evq_level_mark_, 0,
                                        static_cast<double>(evq_level_mark_));
    evq_level_mark_ *= 2;
  }
}

bool Simulator::arrival_next() const {
  if (!stream_.live()) return false;
  if (queue_.empty()) return true;
  const Event& top = queue_.top();
  if (stream_.head_time != top.time) return stream_.head_time < top.time;
  return stream_.first_id + stream_.next < top.id;
}

void Simulator::dispatch(bool arrival) {
  if (arrival) {
    const std::size_t i = stream_.next++;
    const SimTime when = stream_.head_time;
    if (stream_.live()) stream_.head_time = stream_.time_at(stream_.next);
    if (!(when >= now_)) {
      ++order_violations_;
      throw std::logic_error(
          "Simulator: arrival " + std::to_string(stream_.first_id + i) +
          " streamed out of order (t=" + std::to_string(when) +
          ", now=" + std::to_string(now_) + ")");
    }
    now_ = when;
    ++dispatched_;
    stream_.fire(i);
    return;
  }
  Event event = queue_.pop();
  if (event.time < now_) {
    ++order_violations_;
    throw std::logic_error("Simulator: event " + std::to_string(event.id) +
                           " scheduled in the past (t=" +
                           std::to_string(event.time) + ", now=" +
                           std::to_string(now_) + ")");
  }
  now_ = event.time;
  ++dispatched_;
  event.action();
}

bool Simulator::step() {
  const bool arrival = arrival_next();
  if (!arrival && queue_.empty()) return false;
  dispatch(arrival);
  return true;
}

void Simulator::run_until(SimTime horizon) {
  stop_requested_ = false;
  while (!stop_requested_) {
    const bool arrival = arrival_next();
    if (!arrival && queue_.empty()) break;
    if ((arrival ? stream_.head_time : queue_.next_time()) > horizon) break;
    dispatch(arrival);
  }
  // Leave the clock at the horizon if we exhausted events before it, so a
  // subsequent schedule_in() measures from the end of the observation window.
  if (horizon != kForever && now_ < horizon && idle()) now_ = horizon;
}

void Simulator::reset() {
  queue_.clear();
  stream_ = ArrivalStream{};
  now_ = 0.0;
  stop_requested_ = false;
  evq_level_mark_ = kEvqLevelBase;
}

}  // namespace pushpull::des
