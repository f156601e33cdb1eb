// qs: a closed loop against service::QueryServer over loopback TCP. The
// server runs in-process on two pool workers; two client threads each
// hold one SocketTransport connection and issue one query at a time,
// waiting for each answer as an attacker does. The service is DP-metered
// (every answer charges the dp::BudgetLedger), and client ids rotate so
// that each id gets 9 answers and then 1 refusal by design. LP decoding
// is left to the recon workloads.

#include <sched.h>

#include <cstdio>
#include <cstring>
#include <latch>
#include <memory>
#include <thread>

#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dp/budget.h"
#include "perfbench.h"
#include "recon/oracle.h"
#include "service/client.h"
#include "service/loadgen.h"
#include "service/query_service.h"
#include "service/server.h"
#include "service/wire.h"

namespace perfbench {
namespace {

using pso::recon::SubsetQuery;
using pso::service::QueryOutcome;

constexpr size_t kN = 128;
constexpr size_t kClientThreads = 2;
constexpr size_t kServerWorkers = 2;
constexpr size_t kQueryPool = 4096;
// 9 charges of 0.25 fit a 2.25 budget; the 10th is refused.
constexpr double kEpsPerQuery = 0.25;
constexpr double kClientBudget = 2.25;
constexpr size_t kQueriesPerClientId = 10;
constexpr double kRttDeadlineS = 0.1;
// Sized for about `seconds` of closed-loop traffic on a 4-core x86 box.
constexpr size_t kQueriesPerThreadPerSecond = 35000;
constexpr size_t kWireSample = 20000;

size_t QueriesPerThread(int seconds) {
  return kQueriesPerClientId *
         std::max<size_t>(1, static_cast<size_t>(seconds) *
                                 kQueriesPerThreadPerSecond /
                                 kQueriesPerClientId);
}

uint64_t ClientId(size_t thread, size_t k) {
  return thread + kClientThreads * (k / kQueriesPerClientId);
}

const SubsetQuery& QueryFor(const std::vector<SubsetQuery>& pool,
                            size_t thread, size_t k, size_t per_thread) {
  return pool[(thread * per_thread + k) % pool.size()];
}

// One recorded answer-or-refusal as the client observed it.
struct Observed {
  double value = 0.0;
  pso::StatusCode code = pso::StatusCode::kOk;
  bool transport_ok = false;
  double rtt_s = -1.0;  // < 0: never issued
};

bool SameOutcome(const Observed& a, const QueryOutcome& b) {
  if (b.ok()) {
    return a.code == pso::StatusCode::kOk &&
           std::memcmp(&a.value, &*b, sizeof(double)) == 0;
  }
  return a.code == b.status().code();
}

// A QueryServer on an ephemeral port plus one connection per client
// thread. Destruction closes the connections, then stops the server.
class LiveService {
 public:
  LiveService(const std::vector<uint8_t>& secret,
              const pso::service::QueryServiceOptions& options)
      : service_(secret, options),
        workers_(kServerWorkers),
        server_(&service_, {0, "", &workers_}) {}
  LiveService(const LiveService&) = delete;
  LiveService& operator=(const LiveService&) = delete;

  ~LiveService() {
    transports_.clear();
    if (accept_.joinable()) {
      server_.RequestShutdown();
      accept_.join();
    }
  }

  pso::Status Start() {
    pso::Status st = server_.Start();
    if (!st.ok()) return st;
    accept_ = std::thread([this] { server_.Run(); });
    for (size_t t = 0; t < kClientThreads; ++t) {
      auto conn = pso::service::SocketTransport::Connect(server_.port());
      if (!conn.ok()) return conn.status();
      transports_.push_back(std::move(conn).value());
    }
    return pso::Status::Ok();
  }

  pso::service::QueryTransport& transport(size_t t) { return *transports_[t]; }

 private:
  pso::service::QueryService service_;
  pso::ThreadPool workers_;
  pso::service::QueryServer server_;
  std::vector<std::unique_ptr<pso::service::SocketTransport>> transports_;
  std::thread accept_;
};

pso::service::QueryServiceOptions ServiceOptions(uint64_t seed) {
  pso::service::QueryServiceOptions options;
  options.eps_per_query = kEpsPerQuery;
  options.client_budget_eps = kClientBudget;
  options.noise_seed = pso::HashCombine(seed, 0x5E);
  return options;
}

struct Pass {
  double window_s = 0.0;
  double thread_window_s = 0.0;  // summed over client threads
  std::vector<double> rtt_s;     // every issued query, all threads
  std::vector<std::vector<Observed>> observed;
  pso::metrics::Snapshot registry;
};

// Runs the closed loop on `live`; every query that could not be issued
// is left with transport_ok == false.
Pass RunLoop(LiveService& live, const std::vector<SubsetQuery>& pool,
             size_t per_thread) {
  Pass pass;
  pass.observed.assign(kClientThreads, std::vector<Observed>(per_thread));
  std::vector<double> thread_s(kClientThreads, 0.0);
  std::latch go(1);
  std::vector<std::thread> clients;
  pso::metrics::Registry::Global().ResetAll();
  for (size_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<SubsetQuery> batch(1);
      go.wait();
      const Clock::time_point start = Clock::now();
      for (size_t k = 0; k < per_thread; ++k) {
        batch[0] = QueryFor(pool, t, k, per_thread);
        const Clock::time_point sent = Clock::now();
        auto outcome = live.transport(t).IssueBatch(ClientId(t, k), batch);
        Observed& o = pass.observed[t][k];
        o.rtt_s = SecondsSince(sent);
        if (!outcome.ok() || outcome->size() != 1) break;
        o.transport_ok = true;
        const QueryOutcome& q = (*outcome)[0];
        if (q.ok()) {
          o.value = *q;
        } else {
          o.code = q.status().code();
        }
      }
      thread_s[t] = SecondsSince(start);
    });
  }
  const Clock::time_point start = Clock::now();
  go.count_down();
  for (std::thread& c : clients) c.join();
  pass.window_s = SecondsSince(start);
  pass.registry = pso::metrics::Registry::Global().TakeSnapshot();
  for (size_t t = 0; t < kClientThreads; ++t) {
    pass.thread_window_s += thread_s[t];
    for (const Observed& o : pass.observed[t]) {
      if (o.rtt_s >= 0) pass.rtt_s.push_back(o.rtt_s);
    }
  }
  return pass;
}

struct Checked {
  uint64_t answered = 0;
  uint64_t refused = 0;
  uint64_t failed = 0;
  std::vector<double> inproc_s;
  /// The replay's outcomes for client thread 0's first kWireSample queries.
  std::vector<QueryOutcome> wire_sample;
};

// Replays every thread's query stream in-process on a fresh service with
// the same seeds; the socket transcript must match it bit for bit.
Checked CheckPass(const Pass& pass, const std::vector<uint8_t>& secret,
                  const std::vector<SubsetQuery>& pool, size_t per_thread,
                  uint64_t seed, WorkloadResult* r) {
  Checked c;
  pso::service::QueryService replay(secret, ServiceOptions(seed));
  pso::service::InProcessTransport inproc(&replay);
  std::vector<SubsetQuery> batch(1);
  size_t mismatches = 0;
  for (size_t t = 0; t < kClientThreads; ++t) {
    for (size_t k = 0; k < per_thread; ++k) {
      batch[0] = QueryFor(pool, t, k, per_thread);
      const Clock::time_point start = Clock::now();
      auto expected = inproc.IssueBatch(ClientId(t, k), batch);
      c.inproc_s.push_back(SecondsSince(start));
      if (t == 0 && k < kWireSample && expected.ok()) {
        c.wire_sample.push_back((*expected)[0]);
      }
      const Observed& o = pass.observed[t][k];
      if (!o.transport_ok || o.rtt_s > kRttDeadlineS) {
        ++c.failed;
        continue;
      }
      if (!expected.ok() || !SameOutcome(o, (*expected)[0])) {
        ++mismatches;
        ++c.failed;
        continue;
      }
      if (o.code == pso::StatusCode::kOk) {
        ++c.answered;
      } else if (o.code == pso::StatusCode::kResourceExhausted) {
        ++c.refused;
      } else {
        ++c.failed;
      }
    }
  }
  if (mismatches > 0) {
    r->Fail(std::to_string(mismatches) +
            " socket answers differ from the in-process replay");
  }
  const uint64_t issued = c.answered + c.refused;
  if (c.failed == 0 && c.refused != issued / kQueriesPerClientId) {
    r->Fail("refusals " + std::to_string(c.refused) + " != designed " +
            std::to_string(issued / kQueriesPerClientId));
  }
  return c;
}

// Restricts this process, and the threads it starts afterwards, to
// `count` of the CPUs it may run on.
void PinToCpus(size_t count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  // The highest-numbered CPUs: CPU 0 usually takes the most interrupts.
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  size_t chosen_count = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && chosen_count < count; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      ++chosen_count;
    }
  }
  // Best effort: unpinned, the loop still runs, only less steadily.
  if (chosen_count > 0) sched_setaffinity(0, sizeof(chosen), &chosen);
}

template <typename F>
double MeanNs(size_t count, F&& body) {
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < count; ++i) body(i);
  return 1e9 * SecondsSince(start) / static_cast<double>(count);
}

}  // namespace

WorkloadResult RunQs(const RunConfig& config) {
  WorkloadResult r;
  // Clients and server workers share two CPUs: a round trip then hands
  // off between running threads instead of waking an idle core, whose
  // wake-up latency would otherwise dominate the figure.
  PinToCpus(2);
  const size_t per_thread = QueriesPerThread(config.seconds);
  const size_t total = kClientThreads * per_thread;
  r.attempted = total;

  std::vector<uint8_t> secret;
  std::vector<SubsetQuery> pool;
  std::unique_ptr<LiveService> live;
  pso::Status started = pso::Status::Ok();
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    live.reset();
    const Clock::time_point t = Clock::now();
    pso::Rng rng = pso::Rng::StreamAt(pso::HashCombine(config.seed, 0x95), 0);
    secret = pso::recon::RandomBits(kN, rng);
    pool.assign(kQueryPool, SubsetQuery(kN, 0));
    for (SubsetQuery& q : pool) {
      for (size_t i = 0; i < kN; ++i) q[i] = rng.Bernoulli(0.5) ? 1 : 0;
    }
    live = std::make_unique<LiveService>(secret, ServiceOptions(config.seed));
    started = live->Start();
    r.setup_s.push_back(SecondsSince(t));
  }
  if (!started.ok()) {
    r.Fail("service did not start: " + started.ToString());
    r.failed = total;
    return r;
  }

  Pass base = RunLoop(*live, pool, per_thread);
  live.reset();
  Checked checked = CheckPass(base, secret, pool, per_thread, config.seed, &r);
  r.failed = checked.failed;
  r.completed = checked.answered + checked.refused;
  r.window_s = base.window_s;
  r.op_s = base.rtt_s;
  r.fingerprint["queries"] = total;
  r.fingerprint["answered"] = checked.answered;
  r.fingerprint["refused"] = checked.refused;
  std::printf("rtt_us p50=%.3f p99=%.3f p999=%.3f samples=%zu\n",
              1e6 * Quantile(base.rtt_s, 0.5), 1e6 * Quantile(base.rtt_s, 0.99),
              1e6 * Quantile(base.rtt_s, 0.999), base.rtt_s.size());
  if (!config.trace) return r;

  LiveService traced_live(secret, ServiceOptions(config.seed));
  pso::Status st = traced_live.Start();
  if (!st.ok()) {
    r.Fail("service did not restart: " + st.ToString());
    return r;
  }
  Pass traced = RunLoop(traced_live, pool, per_thread);
  Checked traced_checked =
      CheckPass(traced, secret, pool, per_thread, config.seed, &r);
  auto& layer = r.layer;

  // Wire costs, timed on the run's own first queries and answers.
  const std::vector<QueryOutcome>& outcomes = traced_checked.wire_sample;
  const size_t sample = outcomes.size();
  if (sample == 0) {
    r.Fail("no in-process answers to time the wire format on");
    return r;
  }
  std::vector<std::string> qlines(sample), alines(sample);
  size_t sink = 0;
  layer["wire.format_query_ns"] = MeanNs(sample, [&](size_t k) {
    qlines[k] = pso::service::FormatQueryLine(ClientId(0, k),
                                              QueryFor(pool, 0, k, per_thread));
  });
  layer["wire.parse_query_ns"] = MeanNs(sample, [&](size_t k) {
    sink += pso::service::ParseQueryLine(qlines[k]).ok();
  });
  layer["wire.format_answer_ns"] = MeanNs(sample, [&](size_t k) {
    alines[k] = pso::service::FormatAnswerLine(ClientId(0, k), outcomes[k]);
  });
  layer["wire.parse_answer_ns"] = MeanNs(sample, [&](size_t k) {
    sink += pso::service::ParseAnswerLine(alines[k]).ok();
  });
  if (sink != 2 * sample) r.Fail("wire round trip rejected its own lines");
  pso::dp::BudgetLedger ledger(kClientBudget);
  layer["dp.charge_ns"] = MeanNs(sample, [&](size_t k) {
    sink += ledger.Charge(ClientId(0, k), kEpsPerQuery).ok();
  });

  const double answer_ns =
      1e9 * HistogramOf(traced.registry, "service.answer").ValueAtQuantile(0.5);
  const double inproc_us = 1e6 * Quantile(traced_checked.inproc_s, 0.5);
  const double rtt_us = 1e6 * Quantile(traced.rtt_s, 0.5);
  const double wire_us =
      1e-3 * (layer["wire.format_query_ns"] + layer["wire.parse_query_ns"] +
              layer["wire.format_answer_ns"] + layer["wire.parse_answer_ns"]);
  layer["service.answer_ns_p50"] = answer_ns;
  layer["service.inproc_batch_us_p50"] = inproc_us;
  layer["service.refused_share"] =
      static_cast<double>(traced_checked.refused) / static_cast<double>(total);
  layer["qs.transport_us_p50"] = rtt_us - inproc_us - wire_us;
  layer["qs.rtt_us_p999"] = 1e6 * Quantile(traced.rtt_s, 0.999);
  layer["latency_samples"] = static_cast<double>(traced.rtt_s.size());
  double rtt_sum = 0.0;
  for (double v : traced.rtt_s) rtt_sum += v;
  // Round trips are the layers' time; what the client threads spend
  // between them is unattributed.
  layer["unattributed_share"] = 1.0 - rtt_sum / traced.thread_window_s;
  layer["trace_overhead_share"] = traced.window_s / base.window_s - 1.0;
  return r;
}

}  // namespace perfbench
