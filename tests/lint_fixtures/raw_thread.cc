// Fixture: threads started outside util::parallel_for. A simulation
// runs on one thread; the sweep's fork-join is the only sanctioned
// place to start more. Naming a thread's members (std::thread::id,
// hardware_concurrency) starts nothing and must pass.
#include <future>
#include <thread>
#include <vector>

namespace fixture {

void spawn(std::vector<int>& out) {
  // hydra-lint-expect: raw-thread
  std::thread worker([&out] { out.push_back(1); });
  worker.join();
  // hydra-lint-expect: raw-thread
  const std::jthread helper([&out] { out.push_back(2); });
}

// hydra-lint-expect: raw-thread
std::vector<std::thread> pool;

int later() {
  // hydra-lint-expect: raw-thread
  auto result = std::async(std::launch::async, [] { return 3; });
  return result.get();
}

unsigned cores() { return std::thread::hardware_concurrency(); }

std::thread::id nobody() { return {}; }

}  // namespace fixture
