#include "agc/exec/thread_pool.hpp"

#include <algorithm>

namespace agc::exec {

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = std::max<std::size_t>(1, threads);
  workers_.reserve(count);
  for (std::size_t w = 0; w < count; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  start_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  std::unique_lock lk(mu_);
  for (;;) {
    start_.wait(lk, [&] { return stop_ || epoch_ != seen; });
    if (stop_) return;
    seen = epoch_;
    const std::size_t tasks = tasks_;
    const auto* body = body_;
    lk.unlock();
    for (std::size_t i = worker; i < tasks; i += workers_.size()) {
      try {
        (*body)(i);
      } catch (...) {
        std::lock_guard g(mu_);
        if (i < error_task_) {
          error_task_ = i;
          error_ = std::current_exception();
        }
      }
    }
    lk.lock();
    if (--running_ == 0) done_.notify_all();
  }
}

void ThreadPool::run(std::size_t tasks,
                     const std::function<void(std::size_t)>& body) {
  if (tasks <= 1 || workers_.size() == 1) {
    for (std::size_t i = 0; i < tasks; ++i) body(i);
    return;
  }
  std::unique_lock lk(mu_);
  body_ = &body;
  tasks_ = tasks;
  running_ = workers_.size();
  error_task_ = SIZE_MAX;
  error_ = nullptr;
  ++epoch_;
  start_.notify_all();
  done_.wait(lk, [&] { return running_ == 0; });
  body_ = nullptr;
  if (error_) std::rethrow_exception(error_);
}

}  // namespace agc::exec
