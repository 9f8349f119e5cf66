// Copyright 2026 The ONEX Reproduction Authors.
// Clang Thread Safety Analysis macros: compile-time proof that every
// access to a guarded member happens under its lock, on every path —
// not just the interleavings a TSan run happens to execute. The serving
// stack's locking discipline (see README "Concurrency & locking model")
// is written in these annotations and enforced by the `thread-safety`
// CI job, which builds all of src/ under clang with
// -Werror=thread-safety.
//
// Under compilers without the attributes (gcc), every macro expands to
// nothing — the annotations are documentation there, and the clang CI
// job is the proof.
//
// Conventions for new code:
//   - Every mutable member shared between threads is GUARDED_BY (or
//     PT_GUARDED_BY for the pointee of a stable smart pointer) an
//     annotated onex::Mutex (util/mutex.h) — never a raw std primitive.
//   - Private helpers that assume the lock is held are named
//     `*Locked()` and annotated REQUIRES(mutex).
//   - Code that receives the lock through an untyped boundary (a
//     std::function callback run under the lock, a virtual call) calls
//     mutex.AssertHeld() first — which both informs the analysis and,
//     with lock-order checking compiled in, verifies at runtime.
//   - NO_THREAD_SAFETY_ANALYSIS is a last resort and always carries a
//     comment naming the external contract that makes it sound.

#ifndef ONEX_UTIL_THREAD_ANNOTATIONS_H_
#define ONEX_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && !defined(SWIG)
#define ONEX_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define ONEX_THREAD_ANNOTATION__(x)  // no-op
#endif

/// Marks a class as a lockable capability ("mutex" names the kind in
/// diagnostics).
#define CAPABILITY(x) ONEX_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII class whose constructor acquires and destructor
/// releases a capability.
#define SCOPED_CAPABILITY ONEX_THREAD_ANNOTATION__(scoped_lockable)

/// Data member readable/writable only with capability `x` held
/// (exclusively for writes, at least shared for reads).
#define GUARDED_BY(x) ONEX_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer member whose POINTEE is protected by `x` (the pointer itself
/// may be read freely — right for a stable unique_ptr allocated at
/// construction).
#define PT_GUARDED_BY(x) ONEX_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Declares lock-order edges checked by the analysis.
#define ACQUIRED_BEFORE(...) ONEX_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) ONEX_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// Function precondition: caller must hold the capability (exclusively
/// / at least shared). The `*Locked()` helper annotation.
#define REQUIRES(...) \
  ONEX_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  ONEX_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define ACQUIRE(...) ONEX_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  ONEX_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (generic RELEASE also releases a
/// shared hold — what a scoped guard's destructor wants).
#define RELEASE(...) ONEX_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  ONEX_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  ONEX_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))

/// Function acquires the capability only when returning `b`.
#define TRY_ACQUIRE(...) \
  ONEX_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  ONEX_THREAD_ANNOTATION__(try_acquire_shared_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (deadlock
/// guard on public entry points that take the lock themselves).
#define EXCLUDES(...) ONEX_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held; tells the analysis
/// so on the fall-through path. The escape hatch for callbacks run
/// under a lock acquired on the other side of a std::function.
#define ASSERT_CAPABILITY(...) \
  ONEX_THREAD_ANNOTATION__(assert_capability(__VA_ARGS__))
#define ASSERT_SHARED_CAPABILITY(...) \
  ONEX_THREAD_ANNOTATION__(assert_shared_capability(__VA_ARGS__))

/// Function returns a reference to the capability named (lets an
/// accessor stand in for a private mutex in annotations).
#define RETURN_CAPABILITY(x) ONEX_THREAD_ANNOTATION__(lock_returned(x))

/// Disables the analysis for one function. Always pair with a comment
/// naming the contract that makes the unchecked access sound.
#define NO_THREAD_SAFETY_ANALYSIS \
  ONEX_THREAD_ANNOTATION__(no_thread_safety_analysis)

#endif  // ONEX_UTIL_THREAD_ANNOTATIONS_H_
