// Clang thread-safety-analysis attribute macros.
//
// Under clang with -Wthread-safety (the HYDRA_THREAD_SAFETY CMake
// option turns it on, with -Werror, in CI) these expand to the
// capability attributes that let the compiler prove lock discipline at
// build time: which members a mutex guards, and where it is acquired
// and released. Under GCC — the default local toolchain — every macro
// expands to nothing, so the annotations cost exactly zero outside the
// analysis build.
//
// The vocabulary follows the clang documentation
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html): a CAPABILITY
// is a resource (a mutex, or something more abstract) that threads
// acquire and release; GUARDED_BY ties data to the capability that must
// be held to touch it. Only the macros util::Mutex and its users need
// are defined.
#pragma once

#if defined(__clang__) && !defined(SWIG)
#define HYDRA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define HYDRA_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

// Types that act as lockable resources.
#define CAPABILITY(x) HYDRA_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY HYDRA_THREAD_ANNOTATION(scoped_lockable)

// Data members: touching them requires holding the named capability.
#define GUARDED_BY(x) HYDRA_THREAD_ANNOTATION(guarded_by(x))

// Functions that change what the caller holds.
#define ACQUIRE(...) \
  HYDRA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RELEASE(...) \
  HYDRA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
