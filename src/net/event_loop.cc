#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/strings.h"

namespace chainsplit {

namespace {
/// The registration key reserved for the wakeup eventfd.
constexpr uint64_t kWakeKey = ~uint64_t{0};
}  // namespace

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::Init() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return InternalError(StrCat("epoll_create1: ", std::strerror(errno)));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return InternalError(StrCat("eventfd: ", std::strerror(errno)));
  }
  return Add(wake_fd_, EPOLLIN, kWakeKey);
}

Status EventLoop::Add(int fd, uint32_t events, uint64_t key) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = key;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return InternalError(StrCat("epoll_ctl ADD: ", std::strerror(errno)));
  }
  return Status::Ok();
}

Status EventLoop::Mod(int fd, uint32_t events, uint64_t key) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = key;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    return InternalError(StrCat("epoll_ctl MOD: ", std::strerror(errno)));
  }
  return Status::Ok();
}

void EventLoop::Del(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::Wake() {
  uint64_t one = 1;
  // A full eventfd counter already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  Wake();
}

void EventLoop::Quit() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    quit_ = true;
  }
  Wake();
}

void EventLoop::Run(
    const std::function<void(uint64_t key, uint32_t events)>& on_event) {
  epoll_event events[128];
  std::vector<std::function<void()>> ready;
  while (true) {
    // Drain the mailbox before blocking: completions posted by the
    // dispatcher pool re-arm connections for the wait below.
    bool quit;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ready.swap(tasks_);
      quit = quit_;
    }
    for (auto& task : ready) task();
    ready.clear();
    // Quit's wakeup may already have been drained with the tasks', so
    // waiting again could block for good.
    if (quit) return;

    int n = ::epoll_wait(epoll_fd_, events,
                         static_cast<int>(sizeof(events) / sizeof(events[0])),
                         -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone — shutting down
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == kWakeKey) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      on_event(events[i].data.u64, events[i].events);
    }
  }
}

}  // namespace chainsplit
