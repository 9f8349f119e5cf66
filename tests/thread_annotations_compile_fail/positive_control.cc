// Copyright 2026 The ONEX Reproduction Authors.
// Positive control: correct locking that MUST compile under
// -Werror=thread-safety. If this fails, the compile-fail siblings are
// failing for the wrong reason (broken include path or flags), not
// because the analysis caught their violations.

#include "util/mutex.h"

namespace {

class Counter {
 public:
  void Increment() {
    onex::MutexLock lock(mutex_);
    ++value_;
  }

  int Get() const {
    onex::MutexLock lock(mutex_);
    return value_;
  }

  void IncrementBy(int n) {
    mutex_.Lock();
    AddLocked(n);
    mutex_.Unlock();
  }

 private:
  void AddLocked(int n) REQUIRES(mutex_) { value_ += n; }

  mutable onex::Mutex mutex_;
  int value_ GUARDED_BY(mutex_) = 0;
};

}  // namespace

int main() {
  Counter counter;
  counter.Increment();
  counter.IncrementBy(2);
  return counter.Get();
}
