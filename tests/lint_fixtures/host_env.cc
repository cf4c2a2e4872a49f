// Fixture: environment variables read in the simulation core. A host
// that happens to set one runs the same (scenario, seed) differently;
// every setting travels in a config struct instead.
#include <cstdlib>

namespace fixture {

bool traced() {
  // hydra-lint-expect: host-env
  return getenv("TRACE") != nullptr;
}

// hydra-lint-expect: host-env
const char* home() { return std::getenv("HOME"); }

const char* shell() {
  // hydra-lint-expect: host-env
  return secure_getenv("SHELL");
}

// Naming the variable in a comment reads nothing: getenv("TRACE").
int trace_level = 0;

}  // namespace fixture
