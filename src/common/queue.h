// BoundedQueue<T>: a blocking MPMC queue with close semantics.
//
// Used as the spine of the in-process transport channels.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "src/common/thread_annotations.h"

namespace griddles {

template <typename T>
class BoundedQueue {
 public:
  /// `capacity == 0` means unbounded.
  explicit BoundedQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full; returns false if the queue was closed.
  bool push(T item) {
    MutexLock lock(mu_);
    // lint: blocking-ok (monitor wait: releases mu_ until space or close)
    not_full_.wait(mu_, [&]() REQUIRES(mu_) {
      return closed_ || !full_locked();
    });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// As push(), but gives up at the wall deadline: false when the queue
  /// stayed full through the deadline or was closed (item not enqueued).
  bool push_until(T item, std::chrono::steady_clock::time_point deadline) {
    {
      MutexLock lock(mu_);
      // lint: blocking-ok (monitor wait: releases mu_; bounded by deadline)
      if (!not_full_.wait_until(mu_, deadline, [&]() REQUIRES(mu_) {
            return closed_ || !full_locked();
          })) {
        return false;
      }
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; false when full or closed.
  bool try_push(T item) {
    {
      MutexLock lock(mu_);
      if (closed_ || full_locked()) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty; nullopt once the queue is closed and drained.
  std::optional<T> pop() {
    std::optional<T> item;
    {
      MutexLock lock(mu_);
      // lint: blocking-ok (monitor wait: releases mu_ until item or close)
      not_empty_.wait(mu_, [&]() REQUIRES(mu_) {
        return closed_ || !items_.empty();
      });
      item = pop_locked();
    }
    if (item) not_full_.notify_one();
    return item;
  }

  /// As pop(), but gives up at the wall deadline (nullopt; queue intact).
  std::optional<T> pop_until(std::chrono::steady_clock::time_point deadline) {
    std::optional<T> item;
    {
      MutexLock lock(mu_);
      // lint: blocking-ok (monitor wait: releases mu_; bounded by deadline)
      if (!not_empty_.wait_until(mu_, deadline, [&]() REQUIRES(mu_) {
            return closed_ || !items_.empty();
          })) {
        return std::nullopt;
      }
      item = pop_locked();
    }
    if (item) not_full_.notify_one();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::optional<T> item;
    {
      MutexLock lock(mu_);
      if (items_.empty()) return std::nullopt;
      item = pop_locked();
    }
    if (item) not_full_.notify_one();
    return item;
  }

  /// Wakes all waiters; subsequent pushes fail, pops drain then end.
  void close() {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    MutexLock lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    MutexLock lock(mu_);
    return items_.size();
  }

 private:
  bool full_locked() const REQUIRES(mu_) {
    return capacity_ != 0 && items_.size() >= capacity_;
  }

  std::optional<T> pop_locked() REQUIRES(mu_) {
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  const std::size_t capacity_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace griddles
