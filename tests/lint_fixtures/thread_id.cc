// Fixture: thread identity is assigned by the OS and differs run to
// run; anything keyed, ordered or hashed by it is nondeterministic
// under sweep workers.
#include <functional>
#include <thread>

namespace fixture {

std::size_t bucket_of() {
  // hydra-lint-expect: thread-id
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 4;
}

}  // namespace fixture
