// service_sweep: svc::EstimatorService at default options (its real
// estimate() evaluation path, one worker per core) driven by a closed loop of
// one client thread per core that replays a parameter-sweep trace.
//
// The trace is a sequence of bursts over the DHFR-class system.  Each burst
// fixes a node count (64..512 nodes: this changes the decomposition
// geometry) and draws grid points that vary dt_fs, respa_k and anton2 vs
// anton2-bsp (these leave the geometry unchanged).  Bursts cycle through the
// four node counts, and every fifth burst replays an earlier one.  Every burst runs three barrier-separated rounds:
//   solo    each client asks its own new point            -> misses
//   paired  clients 2i and 2i+1 ask the same new point    -> miss + coalesced
//   settled each client re-asks every point of the burst  -> hits
// so cache reads run beside evaluations, duplicates coalesce, and the hit
// path is measured once the cache has settled.  The queue (256 deep) never
// holds more than one job per client, so nothing should be shed: a shed or
// shut-down query counts as a failed operation.
//
// Every served report is compared bitwise with the first report served for
// its point, and that one with a fresh AntonMachine::estimate().
//
// The untraced run replays one warm-up cycle of five bursts, then whole cycles
// until --seconds of steady state have passed, and reports the steady state;
// the traced run replays a fixed number of bursts (one per second of
// --seconds) so its counts repeat exactly for a seed.

#include <barrier>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.h"
#include "chem/builder.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "core/machine.h"
#include "report_digest.h"
#include "svc/service.h"

namespace perfbench {
namespace {

using anton::core::PerfReport;
using anton::svc::Status;

constexpr int kNodeCounts[] = {512, 64, 256, 128};
constexpr size_t kCycle = std::size(kNodeCounts) + 1;
constexpr int kSettledRepeats = 2;

struct Point {
  int nodes;
  bool bsp;
  double dt_fs;
  int respa_k;
  auto tie() const { return std::tie(nodes, bsp, dt_fs, respa_k); }
  bool operator<(const Point& o) const { return tie() < o.tie(); }
};

// Deterministic sweep trace: bursts of point indices into `points`.
class SweepTrace {
 public:
  SweepTrace(uint64_t seed, int clients) : rng_(seed, 7), clients_(clients) {}

  // Appends the next burst: `clients` solo points, then one point per pair.
  // Bursts come in cycles of kCycle: one fresh burst per node count, then a
  // replay of an earlier burst.  Only the points drawn and the burst replayed
  // depend on the seed, so every seed puts the same kind of load on the
  // service.
  const std::vector<int>& next() {
    const size_t b = bursts_.size();
    if (b % kCycle == kCycle - 1) {
      bursts_.push_back(bursts_[rng_.uniform_u64(b)]);
      return bursts_.back();
    }
    const int nodes = kNodeCounts[b % kCycle];
    std::vector<int> burst;
    const int n = clients_ + (clients_ + 1) / 2;
    while (static_cast<int>(burst.size()) < n) {
      const Point p{nodes, rng_.uniform() < 0.5,
                    1.0 + 0.05 * static_cast<double>(rng_.uniform_u64(61)),
                    1 + static_cast<int>(rng_.uniform_u64(4))};
      if (!seen_.insert(p).second) continue;
      points.push_back(p);
      burst.push_back(static_cast<int>(points.size()) - 1);
    }
    bursts_.push_back(std::move(burst));
    return bursts_.back();
  }

  std::vector<Point> points;

 private:
  anton::Rng rng_;
  int clients_;
  std::set<Point> seen_;
  std::vector<std::vector<int>> bursts_;
};

struct Record {
  int point;
  Status status;
  double latency_s;
  bool traced;
  bool steady;  // after the warm-up cycle
  PerfReport report;
};

struct Service {
  anton::System system;
  std::map<std::pair<int, bool>, std::shared_ptr<const anton::arch::MachineConfig>> configs;
  std::unique_ptr<anton::ThreadPool> pool;
  std::unique_ptr<anton::svc::EstimatorService> svc;
  int system_id = -1;
};

std::unique_ptr<Service> make_service(uint64_t seed, unsigned threads) {
  auto s = std::make_unique<Service>(Service{
      anton::build_benchmark_system(anton::dhfr_spec(), seed), {}, nullptr, nullptr, -1});
  for (const int nodes : kNodeCounts) {
    int nx, ny, nz;
    anton::core::torus_dims(nodes, &nx, &ny, &nz);
    s->configs[{nodes, false}] = std::make_shared<const anton::arch::MachineConfig>(
        anton::arch::MachineConfig::anton2(nx, ny, nz));
    s->configs[{nodes, true}] = std::make_shared<const anton::arch::MachineConfig>(
        anton::arch::MachineConfig::anton2_bsp(nx, ny, nz));
  }
  s->pool = std::make_unique<anton::ThreadPool>(threads);
  anton::svc::EstimatorService::Options opts;
  opts.pool = s->pool.get();
  s->svc = std::make_unique<anton::svc::EstimatorService>(opts);
  s->system_id = s->svc->register_system(s->system);
  s->svc->start();
  return s;
}

}  // namespace

Outcome run_service_sweep(const RunArgs& args) {
  Outcome out;
  const int clients = static_cast<int>(args.threads);

  // Set-up: system, machine configs, pool, service start.  Repeated; the
  // median is reported and the last service is used.
  std::vector<double> setup_s;
  std::unique_ptr<Service> s;
  for (int i = 0; i < 3; ++i) {
    const double t0 = now_s();
    s.reset();
    s = make_service(args.seed, args.threads);
    setup_s.push_back(now_s() - t0);
  }

  SweepTrace trace(args.seed, clients);
  std::vector<int> burst = trace.next();
  std::vector<std::vector<Record>> records(static_cast<size_t>(clients));
  SpanBuffer untraced(false);  // records nothing; shared by all clients
  std::vector<SpanBuffer> bufs;
  for (int c = 0; c < clients; ++c) bufs.emplace_back(args.trace);
  std::vector<double> burst_s;        // wall time of each burst
  std::vector<bool> burst_fresh;      // burst introduced new points
  size_t bursts_done = 0;
  const size_t traced_bursts = std::max<size_t>(1, static_cast<size_t>(args.seconds));
  bool stop = false;
  const double t_start = now_s();
  double t_burst = t_start;
  // Steady state starts after the first cycle of bursts: that cycle meets a
  // cold cache and cold workers and is reported as warm-up.
  double t_steady = 0;
  bool steady = false;
  std::set<int> seen_points;
  int phase = 0;

  auto on_phase_end = [&]() noexcept {
    if (++phase % 3 != 0) return;
    const double t = now_s();
    burst_s.push_back(t - t_burst);
    bool fresh = false;
    for (int p : burst) fresh |= seen_points.insert(p).second;
    burst_fresh.push_back(fresh);
    t_burst = t;
    ++bursts_done;
    // The untraced run stops at the end of a whole cycle of bursts, so every
    // run measures the same mix of node counts and replays.
    if (bursts_done == kCycle) {
      t_steady = t;
      steady = true;
    }
    stop = args.trace ? bursts_done >= traced_bursts
                      : bursts_done % kCycle == 0 && steady && t - t_steady >= args.seconds;
    if (!stop) burst = trace.next();
  };
  std::barrier sync(clients, on_phase_end);

  // The traced run traces half of the queries, picked by a hash of the query
  // id so traced and untraced queries fall on the same mix of rounds and
  // points and can be compared for tracing overhead.
  auto ask = [&](int c, int point, int64_t query) {
    const Point& p = trace.points[static_cast<size_t>(point)];
    const auto& cfg = s->configs.at({p.nodes, p.bsp});
    const bool traced =
        args.trace && (anton::Rng(static_cast<uint64_t>(query)).next_u64() & 1) != 0;
    const double t0 = now_s();
    anton::svc::QueryResult r;
    {
      Scope sc(traced ? bufs[static_cast<size_t>(c)] : untraced, "svc.query", -1, query);
      r = s->svc->query(cfg, s->system_id, p.dt_fs, p.respa_k);
      sc.set_tag(static_cast<int32_t>(r.status));
    }
    records[static_cast<size_t>(c)].push_back(
        {point, r.status, now_s() - t0, traced, steady, std::move(r.report)});
  };

  auto replay = [&](int c) {
    int64_t query = static_cast<int64_t>(c) << 40;
    while (!stop) {
      // The burst vector is only replaced in the barrier completion, while
      // every client waits, so reading it between barriers is race-free.
      const std::vector<int> points = burst;
      ask(c, points[static_cast<size_t>(c)], query++);
      sync.arrive_and_wait();
      ask(c, points[static_cast<size_t>(clients + c / 2)], query++);
      sync.arrive_and_wait();
      for (int rep = 0; rep < kSettledRepeats; ++rep) {
        for (size_t i = 0; i < points.size(); ++i) {
          ask(c, points[(i + static_cast<size_t>(c)) % points.size()], query++);
        }
      }
      sync.arrive_and_wait();
    }
  };
  std::vector<std::string> client_error(static_cast<size_t>(clients));
  auto client = [&](int c) {
    try {
      replay(c);
    } catch (const std::exception& e) {
      // Record the failure and leave the barrier so the others finish.
      client_error[static_cast<size_t>(c)] = e.what();
      sync.arrive_and_drop();
    }
  };
  {
    std::vector<std::thread> threads;
    for (int c = 1; c < clients; ++c) threads.emplace_back(client, c);
    client(0);
    for (std::thread& t : threads) t.join();
  }
  const double t_stop = now_s();
  const anton::svc::EstimatorService::Stats st = s->svc->stats();
  s->svc->shutdown();

  // Correctness: outcomes, then bitwise equality of every served report
  // with the first one for its point and of that one with a fresh estimate.
  std::map<int, const PerfReport*> first;
  std::vector<double> all_ms, steady_ms, hit_us, miss_ms, coal_ms, traced_ms, untraced_ms;
  for (const std::vector<Record>& rs : records) {
    for (const Record& r : rs) {
      ++out.attempted;
      if (r.status == Status::kShed || r.status == Status::kShutdown) {
        out.fail(1, std::string("query ") + anton::svc::status_name(r.status));
        continue;
      }
      const double ms = r.latency_s * 1e3;
      all_ms.push_back(ms);
      if (r.steady) steady_ms.push_back(ms);
      (r.traced ? traced_ms : untraced_ms).push_back(ms);
      if (r.status == Status::kHit) hit_us.push_back(ms * 1e3);
      if (r.status == Status::kMiss) miss_ms.push_back(ms);
      if (r.status == Status::kCoalesced) coal_ms.push_back(ms);
      const auto [it, fresh] = first.try_emplace(r.point, &r.report);
      if (!fresh && digest(r.report) != digest(*it->second)) {
        out.fail(1, "served reports differ for one sweep point");
      }
    }
  }
  std::vector<std::pair<int, const PerfReport*>> to_check(first.begin(), first.end());
  std::vector<double> eval_s(to_check.size());
  std::vector<std::string> mismatch(to_check.size());
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = static_cast<size_t>(c); i < to_check.size(); i += static_cast<size_t>(clients)) {
          const Point& p = trace.points[static_cast<size_t>(to_check[i].first)];
          try {
            const anton::core::AntonMachine m(s->configs.at({p.nodes, p.bsp}));
            const double t0 = now_s();
            const PerfReport fresh = m.estimate(s->system, p.dt_fs, p.respa_k);
            eval_s[i] = now_s() - t0;
            if (digest(fresh) != digest(*to_check[i].second)) {
              mismatch[i] = "served report differs from a fresh estimate()";
            }
          } catch (const std::exception& e) {
            mismatch[i] = std::string("fresh estimate() failed: ") + e.what();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (const std::string& e : client_error) {
    if (e.empty()) continue;
    ++out.attempted;
    out.fail(1, "client stopped: " + e);
  }
  for (const std::string& m : mismatch) {
    if (!m.empty()) out.fail(1, m);
  }
  if (st.evaluated != first.size()) {
    out.fail(1, "service evaluated " + std::to_string(st.evaluated) + " points, " +
                    std::to_string(first.size()) + " distinct were asked");
  }

  const double qps = static_cast<double>(all_ms.size()) / (t_stop - t_start);
  // Settled bursts: those after the first that asked new points.
  std::vector<double> settled_burst_ms;
  for (size_t b = 1; b < burst_s.size(); ++b) {
    if (burst_fresh[b]) settled_burst_ms.push_back(burst_s[b] * 1e3);
  }
  out.diag("svc.bursts", static_cast<double>(bursts_done), "count");
  out.diag("svc.cold_burst_ms", burst_s.empty() ? 0.0 : burst_s[0] * 1e3, "ms");
  out.diag("svc.warmup_cycle_s", t_steady > 0 ? t_steady - t_start : 0.0, "s");
  if (!args.trace) {
    out.metric("setup_s", median(setup_s), "s");
    out.metric("ops_per_s", static_cast<double>(steady_ms.size()) / (t_stop - t_steady), "1/s");
    out.metric("op_ms.p50", median(steady_ms), "ms");
    return out;
  }

  out.metric("svc.qps", qps, "1/s");
  out.metric("svc.query_ms.p99", quantile(all_ms, 0.99), "ms");
  out.metric("svc.miss_ms.p50", median(miss_ms), "ms");
  out.metric("svc.eval_ms.p50", median(eval_s) * 1e3, "ms");
  out.metric("svc.hit_us.p50", median(hit_us), "us");
  out.metric("svc.hit_us.p99", quantile(hit_us, 0.99), "us");
  out.metric("svc.coalesced_ms.p50", median(coal_ms), "ms");
  out.metric("svc.cold_burst_ms", burst_s.empty() ? 0.0 : burst_s[0] * 1e3, "ms");
  out.metric("svc.burst_ms.p50", median(settled_burst_ms), "ms");
  out.metric("svc.hits", static_cast<double>(st.hits), "count");
  out.metric("svc.misses", static_cast<double>(st.misses), "count");
  out.metric("svc.coalesced", static_cast<double>(st.coalesced), "count");
  out.metric("svc.shed", static_cast<double>(st.shed), "count");
  out.metric("svc.evaluated", static_cast<double>(st.evaluated), "count");
  out.metric("svc.hit_ratio",
             st.queries > 0 ? static_cast<double>(st.hits) / static_cast<double>(st.queries) : 0.0,
             "ratio");
  out.metric("trace.overhead_pct", (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0, "%");
  std::vector<const SpanBuffer*> ptrs;
  size_t spans = 0;
  for (const SpanBuffer& b : bufs) {
    ptrs.push_back(&b);
    spans += b.spans().size();
  }
  out.metric("trace.spans", static_cast<double>(spans), "count");
  if (!args.span_path.empty() && !write_spans(args.span_path, ptrs, t_start)) {
    out.fail(1, "could not write " + args.span_path);
  }
  return out;
}

}  // namespace perfbench
