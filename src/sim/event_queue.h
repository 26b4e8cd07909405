#ifndef QUAESTOR_SIM_EVENT_QUEUE_H_
#define QUAESTOR_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace quaestor::sim {

/// A deterministic discrete-event scheduler driving a SimulatedClock.
/// Events at equal times run in scheduling order (FIFO via sequence
/// numbers), which makes every simulation bit-reproducible — the property
/// the paper relies on for staleness analysis ("globally ordered event
/// time stamps ... does not rely on error-prone clock synchronization").
class EventQueue {
 public:
  explicit EventQueue(SimulatedClock* clock) : clock_(clock) {}

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `at` (clamped to now for past times).
  void Schedule(Micros at, std::function<void()> fn) {
    if (at < clock_->NowMicros()) at = clock_->NowMicros();
    heap_.push(Event{at, next_seq_++, std::move(fn)});
  }

  /// Schedules `fn` after `delay` microseconds.
  void ScheduleAfter(Micros delay, std::function<void()> fn) {
    Schedule(clock_->NowMicros() + delay, std::move(fn));
  }

  /// Runs events in time order until the queue is empty or the next event
  /// is later than `end`. The clock is advanced to each event's time, and
  /// to `end` on return.
  void RunUntil(Micros end) {
    while (!heap_.empty() && heap_.top().at <= end) {
      // Copy out before pop: fn may schedule new events.
      Event ev = heap_.top();
      heap_.pop();
      clock_->SetTime(ev.at);
      ev.fn();
    }
    if (clock_->NowMicros() < end) clock_->SetTime(end);
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

 private:
  struct Event {
    Micros at;
    uint64_t seq;
    std::function<void()> fn;

    bool operator>(const Event& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  SimulatedClock* clock_;
  uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
};

/// A k-server FIFO queueing resource with deterministic service times —
/// models backend capacity (e.g. the 3 Quaestor servers of §6.1) and
/// per-client-instance CPU. `Acquire` returns the total sojourn time
/// (wait + service) for a job arriving now.
class QueueingResource {
 public:
  QueueingResource(size_t servers, Micros service_time)
      : next_free_(servers == 0 ? 1 : servers, 0),
        service_time_(service_time) {}

  /// Admits a job at time `now`; returns wait + service time.
  Micros Acquire(Micros now) {
    // Pick the earliest-free server.
    size_t best = 0;
    for (size_t i = 1; i < next_free_.size(); ++i) {
      if (next_free_[i] < next_free_[best]) best = i;
    }
    const Micros start = next_free_[best] > now ? next_free_[best] : now;
    next_free_[best] = start + service_time_;
    return (start - now) + service_time_;
  }

  Micros service_time() const { return service_time_; }

  /// Changes the per-job service time from now on (overload schedules
  /// slow the origin mid-run); in-flight jobs keep their old cost.
  void set_service_time(Micros service_time) { service_time_ = service_time; }

 private:
  std::vector<Micros> next_free_;
  Micros service_time_;
};

}  // namespace quaestor::sim

#endif  // QUAESTOR_SIM_EVENT_QUEUE_H_
