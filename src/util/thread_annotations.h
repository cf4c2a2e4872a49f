// Clang thread-safety-analysis attribute macros.
//
// Under clang with -Wthread-safety (the HYDRA_THREAD_SAFETY CMake
// option turns it on, with -Werror, in CI) these expand to the
// capability attributes that let the compiler prove lock discipline at
// build time: which members a mutex guards, which functions require or
// acquire it, and which locks must never be held together. Under GCC —
// the default local toolchain — every macro expands to nothing, so the
// annotations cost exactly zero outside the analysis build.
//
// The vocabulary follows the clang documentation
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html): a CAPABILITY
// is a resource (a mutex, or something more abstract) that threads
// acquire and release; GUARDED_BY ties data to the capability that must
// be held to touch it.
#pragma once

#if defined(__clang__) && !defined(SWIG)
#define HYDRA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define HYDRA_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

// Types that act as lockable resources.
#define CAPABILITY(x) HYDRA_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY HYDRA_THREAD_ANNOTATION(scoped_lockable)

// Data members: touching them requires holding the named capability
// (exclusively for writes, at least shared for reads).
#define GUARDED_BY(x) HYDRA_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) HYDRA_THREAD_ANNOTATION(pt_guarded_by(x))

// Function contracts: the caller must hold / must not hold the
// capability on entry.
#define REQUIRES(...) \
  HYDRA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  HYDRA_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) HYDRA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Functions that change what the caller holds.
#define ACQUIRE(...) \
  HYDRA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  HYDRA_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  HYDRA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  HYDRA_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  HYDRA_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// Returns a reference to the capability guarding the returned data.
#define RETURN_CAPABILITY(x) HYDRA_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch for functions whose locking the analysis cannot follow
// (e.g. publication via a generation handshake instead of a held lock).
// Every use carries a comment explaining why the discipline holds.
#define NO_THREAD_SAFETY_ANALYSIS \
  HYDRA_THREAD_ANNOTATION(no_thread_safety_analysis)
