// Lock-discipline annotations.
//
// The simulator is serial; threads exist only to fan out whole runs
// (sweep points, sampled windows — common/parallel.hpp), and whatever
// those threads share is guarded by a lock.  latdiv-lint's mutable-static
// rule accepts a LATDIV_GUARDED_BY annotation as the classification of a
// mutable static; under Clang with -Wthread-safety (enabled by CMake for
// Clang builds) the family compiles to the thread-safety-analysis
// attributes, so lock discipline is checked by the compiler too.  Under
// GCC every macro expands to nothing.
//
// Vocabulary:
//   LATDIV_GUARDED_BY(mu)    — read/written only while holding `mu`.
//   LATDIV_PT_GUARDED_BY(mu) — the *pointee* is guarded by `mu`.
//   LATDIV_REQUIRES(mu)      — function requires `mu` held on entry.
//   LATDIV_EXCLUDES(mu)      — function must not be called with `mu` held.
//
// latdiv::Mutex / latdiv::MutexLock are thin std::mutex wrappers carrying
// the capability attributes (std::mutex itself is unannotated in
// libstdc++, so GUARDED_BY on a bare std::mutex would be unverifiable).
// Use them for any lock a LATDIV_GUARDED_BY annotation names.
#pragma once

#include <mutex>

#if defined(__clang__)
#define LATDIV_TSA(x) __attribute__((x))
#else
#define LATDIV_TSA(x)  // no-op outside Clang
#endif

#define LATDIV_CAPABILITY(x) LATDIV_TSA(capability(x))
#define LATDIV_SCOPED_CAPABILITY LATDIV_TSA(scoped_lockable)
#define LATDIV_GUARDED_BY(x) LATDIV_TSA(guarded_by(x))
#define LATDIV_PT_GUARDED_BY(x) LATDIV_TSA(pt_guarded_by(x))
#define LATDIV_REQUIRES(...) LATDIV_TSA(requires_capability(__VA_ARGS__))
#define LATDIV_EXCLUDES(...) LATDIV_TSA(locks_excluded(__VA_ARGS__))
#define LATDIV_ACQUIRE(...) LATDIV_TSA(acquire_capability(__VA_ARGS__))
#define LATDIV_RELEASE(...) LATDIV_TSA(release_capability(__VA_ARGS__))
#define LATDIV_NO_TSA LATDIV_TSA(no_thread_safety_analysis)

namespace latdiv {

/// std::mutex with Clang thread-safety capability attributes.
class LATDIV_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LATDIV_ACQUIRE() { mu_.lock(); }
  void unlock() LATDIV_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// RAII scoped lock over latdiv::Mutex (the annotated analogue of
/// std::lock_guard).
class LATDIV_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LATDIV_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() LATDIV_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace latdiv
