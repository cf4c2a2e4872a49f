// Annotated locking primitives: std::mutex with the clang
// thread-safety capability attributes attached, so the
// HYDRA_THREAD_SAFETY build can prove at compile time that every
// GUARDED_BY member is only touched with its lock held. Drop-in for the
// std types (MutexLock compiles to exactly a lock_guard when the no-op
// branch of the annotations is active); the BufferPool registry is the
// one lock in src/.
#pragma once

#include <mutex>

#include "util/thread_annotations.h"

namespace hydra::util {

// A std::mutex the analysis can see. Only the annotated members below
// may be used to lock it; the raw std::mutex stays private so no caller
// can bypass the capability tracking.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { m_.lock(); }
  void unlock() RELEASE() { m_.unlock(); }

 private:
  std::mutex m_;
};

// Scoped lock over Mutex: held from construction to the end of scope.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace hydra::util
