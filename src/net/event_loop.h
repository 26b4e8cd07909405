#ifndef QUAESTOR_NET_EVENT_LOOP_H_
#define QUAESTOR_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace quaestor::net {

/// Single-threaded epoll reactor. One background thread owns every fd;
/// all fd and connection mutation happens on that thread, either from an
/// fd handler or a function posted via RunInLoop(). The loop never holds
/// a lock while invoking user callbacks, so handlers may freely call
/// into server code that takes its own locks (see DESIGN.md §"Network
/// layer" for how this composes with the lock hierarchy).
class EventLoop {
 public:
  using FdHandler = std::function<void(uint32_t epoll_events)>;
  using TimerId = uint64_t;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Spawns the loop thread. Returns false if epoll setup failed.
  bool Start();

  /// Stops the loop thread and joins it. Registered fds are not closed;
  /// their owners (connections) must be torn down first or leak.
  void Stop();

  /// Posts `fn` to run on the loop thread. Safe from any thread; if
  /// called on the loop thread itself, runs `fn` immediately.
  void RunInLoop(std::function<void()> fn);

  /// Runs `fn` on the loop thread and blocks until it returns. Used for
  /// setup calls (Listen, Close) issued from the owning thread. Must NOT
  /// be called from the loop thread's own callbacks via another thread's
  /// sync call (classic deadlock) — callbacks should use RunInLoop.
  void RunInLoopSync(std::function<void()> fn);

  /// One-shot timer after `delay_us` of monotonic time. Loop thread or
  /// any thread. Returns an id usable with CancelTimer.
  TimerId AddTimer(int64_t delay_us, std::function<void()> fn);
  void CancelTimer(TimerId id);

  /// fd registration — loop thread only (call via RunInLoop).
  bool AddFd(int fd, uint32_t events, FdHandler handler);
  bool ModFd(int fd, uint32_t events);
  void RemoveFd(int fd);

  bool InLoopThread() const;

  /// Tasks posted from other threads: RunInLoop / RunInLoopSync calls
  /// made off the loop thread while it runs. Each is one cross-thread
  /// hand-off (a wake-up of this loop by another thread).
  uint64_t cross_thread_posts() const {
    return cross_thread_posts_.load(std::memory_order_relaxed);
  }

  /// CLOCK_MONOTONIC in microseconds — the loop's timer base.
  static int64_t MonotonicNow();

 private:
  void Run();
  void Wake();
  void DrainPending();
  void FireDueTimers();
  int64_t NextTimerDelayMs();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> cross_thread_posts_{0};
  std::thread thread_;

  std::mutex mu_;
  std::vector<std::function<void()>> pending_;
  // Timers ordered by absolute monotonic deadline.
  std::multimap<int64_t, std::pair<TimerId, std::function<void()>>> timers_;
  uint64_t next_timer_id_ = 1;

  // Loop-thread-only: fd -> handler. Dispatch re-looks-up by fd so a
  // handler may RemoveFd (even itself) mid-dispatch without a dangling
  // callback firing.
  std::unordered_map<int, FdHandler> handlers_;
};

}  // namespace quaestor::net

#endif  // QUAESTOR_NET_EVENT_LOOP_H_
