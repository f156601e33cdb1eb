// pso-lint-fixture-path: src/common/metrics.cc
//
// The metrics registry is outside the timing facade: it stores the
// durations trace::Span measures but never reads a clock itself.
#include <chrono>

long RegistryClock() {
  auto a = std::chrono::steady_clock::now();         // lint-expect: wall-clock
  return a.time_since_epoch().count();
}
