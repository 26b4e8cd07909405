#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <condition_variable>
#include <utility>

namespace quaestor::net {

namespace {
constexpr int kMaxEvents = 64;
}  // namespace

EventLoop::EventLoop() = default;

EventLoop::~EventLoop() {
  Stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

int64_t EventLoop::MonotonicNow() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

bool EventLoop::Start() {
  if (running_.load()) return true;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return false;
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return false;
  }
  struct epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) return false;
  running_.store(true);
  thread_ = std::thread([this] { Run(); });
  return true;
}

void EventLoop::Stop() {
  if (!running_.exchange(false)) return;
  Wake();
  if (thread_.joinable()) thread_.join();
}

void EventLoop::Wake() {
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

bool EventLoop::InLoopThread() const {
  return thread_.joinable() && std::this_thread::get_id() == thread_.get_id();
}

void EventLoop::RunInLoop(std::function<void()> fn) {
  if (InLoopThread() || !running_.load()) {
    // After Stop() no loop thread exists to drain the queue; the caller
    // is tearing down single-threaded, so run inline.
    fn();
    return;
  }
  cross_thread_posts_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(std::move(fn));
  }
  Wake();
}

void EventLoop::QueueInLoop(std::function<void()> fn) {
  if (!InLoopThread()) {
    RunInLoop(std::move(fn));
    return;
  }
  // The loop is awake (it is running this caller), and WaitTimeoutMs
  // keeps it from sleeping while pending_ is non-empty: no wake needed.
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back(std::move(fn));
}

void EventLoop::RunInLoopSync(std::function<void()> fn) {
  if (InLoopThread() || !running_.load()) {
    fn();
    return;
  }
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  RunInLoop([&] {
    fn();
    std::lock_guard<std::mutex> lock(done_mu);
    done = true;
    done_cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done; });
}

void EventLoop::AddTimer(int64_t delay_us, std::function<void()> fn) {
  const int64_t deadline = MonotonicNow() + (delay_us < 0 ? 0 : delay_us);
  {
    std::lock_guard<std::mutex> lock(mu_);
    timers_.emplace(deadline, std::move(fn));
  }
  // The loop may be sleeping past the new deadline; on the loop thread it
  // recomputes its wait before sleeping again.
  if (!InLoopThread()) Wake();
}

bool EventLoop::AddFd(int fd, uint32_t events, FdHandler handler) {
  struct epoll_event ev = {};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  handlers_[fd] = std::move(handler);
  return true;
}

bool EventLoop::ModFd(int fd, uint32_t events) {
  struct epoll_event ev = {};
  ev.events = events;
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EventLoop::RemoveFd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

bool EventLoop::DrainPending() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch.swap(pending_);
  }
  for (auto& fn : batch) fn();
  return !batch.empty();
}

void EventLoop::FireDueTimers() {
  const int64_t now = MonotonicNow();
  // Pop due timers one at a time so a timer callback adding timers never
  // races an in-progress snapshot.
  for (;;) {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = timers_.begin();
      if (it == timers_.end() || it->first > now) break;
      fn = std::move(it->second);
      timers_.erase(it);
    }
    fn();
  }
}

int64_t EventLoop::WaitTimeoutMs() {
  std::lock_guard<std::mutex> lock(mu_);
  // Work queued by a timer or a posted task waits for no fd: poll, run
  // it, and only then sleep.
  if (!pending_.empty()) return 0;
  if (timers_.empty()) return -1;  // epoll: wait indefinitely
  const int64_t delta_us = timers_.begin()->first - MonotonicNow();
  if (delta_us <= 0) return 0;
  return delta_us / 1000 + 1;  // round up so we don't spin before due
}

void EventLoop::Run() {
  struct epoll_event events[kMaxEvents];
  while (running_.load()) {
    DrainPending();
    FireDueTimers();
    if (!running_.load()) break;
    const int timeout_ms = static_cast<int>(WaitTimeoutMs());
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drain;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drain, sizeof(drain));
        continue;
      }
      // Look the handler up at dispatch time: an earlier handler in this
      // batch may have removed this fd (e.g. closed the connection).
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      FdHandler handler = it->second;  // copy: handler may RemoveFd(fd)
      handler(events[i].events);
    }
  }
  // A task run while the loop winds down may queue more; run them all.
  while (DrainPending()) {
  }
}

}  // namespace quaestor::net
