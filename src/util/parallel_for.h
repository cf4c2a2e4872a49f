// Fork-join parallel map: the only place in src/ that starts threads.
// app::sweep_experiments runs each grid point through it, one whole
// simulation per index; simulations themselves never start threads.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace hydra::util {

// Runs body(0) .. body(count − 1), each exactly once, on the calling
// thread plus min(threads, count) − 1 helper threads, all pulling
// indices from one shared cursor. `threads` == 0 means the hardware
// concurrency; with one thread (or count ≤ 1) the loop runs inline and
// no thread starts. Returns once every call has finished: joining the
// helpers makes all their writes visible to the caller. `body` must not
// throw. Every call owns its helpers, so a body may call parallel_for
// again.
template <typename Body>
void parallel_for(std::size_t count, unsigned threads, const Body& body) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  std::atomic<std::size_t> cursor{0};
  const auto drain = [&] {
    for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
         i < count; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  };
  const std::size_t workers = std::min<std::size_t>(threads, count);
  std::vector<std::jthread> helpers;
  for (std::size_t t = 1; t < workers; ++t) helpers.emplace_back(drain);
  drain();
  // ~jthread joins each helper here.
}

}  // namespace hydra::util
