// Fuzz target: the query service's line parsers (service/wire.h).
//
// Every input is one candidate line, fed to ParseQueryLine,
// ParseAnswerLine and ParseInfoLine. Each parser must be total: parse or
// fail with a Status, never crash. A line that parses must satisfy the
// parser's contract (finite answers; an `I` line within kMaxWireN,
// batch >= 1, finite non-negative eps and budget) and must give the same
// value when it is formatted and parsed again.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "service/wire.h"

namespace {

using pso::Result;
using pso::service::ServiceInfo;
using pso::service::WireQuery;

bool SameDouble(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void CheckQuery(const std::string& line) {
  Result<WireQuery> parsed = pso::service::ParseQueryLine(line);
  if (!parsed.ok()) return;
  Result<WireQuery> again = pso::service::ParseQueryLine(
      pso::service::FormatQueryLine(parsed->client, parsed->query));
  if (!again.ok() || again->client != parsed->client ||
      again->query != parsed->query) {
    std::abort();
  }
}

void CheckAnswer(const std::string& line) {
  Result<Result<double>> parsed = pso::service::ParseAnswerLine(line);
  if (!parsed.ok()) return;
  if (parsed->ok() && !std::isfinite(**parsed)) std::abort();
  Result<Result<double>> again = pso::service::ParseAnswerLine(
      pso::service::FormatAnswerLine(0, *parsed));
  if (!again.ok() || again->ok() != parsed->ok()) std::abort();
  if (parsed->ok()) {
    if (!SameDouble(**again, **parsed)) std::abort();
  } else if (again->status().code() != parsed->status().code() ||
             again->status().message() != parsed->status().message()) {
    std::abort();
  }
}

void CheckInfo(const std::string& line) {
  Result<ServiceInfo> parsed = pso::service::ParseInfoLine(line);
  if (!parsed.ok()) return;
  if (parsed->n == 0 || parsed->n > pso::service::kMaxWireN ||
      parsed->max_batch == 0 || !std::isfinite(parsed->eps_per_query) ||
      parsed->eps_per_query < 0.0 ||
      !std::isfinite(parsed->client_budget_eps) ||
      parsed->client_budget_eps < 0.0) {
    std::abort();
  }
  Result<ServiceInfo> again =
      pso::service::ParseInfoLine(pso::service::FormatInfoLine(*parsed));
  if (!again.ok() || again->n != parsed->n ||
      again->max_batch != parsed->max_batch ||
      !SameDouble(again->eps_per_query, parsed->eps_per_query) ||
      !SameDouble(again->client_budget_eps, parsed->client_budget_eps)) {
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string line(reinterpret_cast<const char*>(data), size);
  CheckQuery(line);
  CheckAnswer(line);
  CheckInfo(line);
  return 0;
}
