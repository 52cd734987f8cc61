// Byte-exact serialisation of a core::PerfReport.  Two reports are bitwise
// equal exactly when their digests compare equal: every double is taken by
// its IEEE bits, every map entry by key and value, in map order.
#pragma once

#include <cstring>
#include <map>
#include <string>

#include "common/stats.h"
#include "core/machine.h"

namespace perfbench {

namespace detail {
inline void put(std::string& out, const void* p, size_t n) {
  out.append(static_cast<const char*>(p), n);
}
inline void put_d(std::string& out, double v) { put(out, &v, sizeof v); }
inline void put_u(std::string& out, uint64_t v) { put(out, &v, sizeof v); }
inline void put_s(std::string& out, const std::string& s) {
  put_u(out, s.size());
  out += s;
}
inline void put_map(std::string& out, const std::map<std::string, double>& m) {
  put_u(out, m.size());
  for (const auto& [k, v] : m) {
    put_s(out, k);
    put_d(out, v);
  }
}
inline void put_stat(std::string& out, const anton::RunningStat& s) {
  put_u(out, s.count());
  put_d(out, s.mean());
  put_d(out, s.sum());
  put_d(out, s.variance());
  put_d(out, s.min());
  put_d(out, s.max());
}
inline void put_step(std::string& out, const anton::core::StepTiming& t) {
  put_d(out, t.step_ns);
  const anton::core::ExecStats& e = t.exec;
  put_d(out, e.makespan_ns);
  put_map(out, e.phase_busy_ns);
  put_map(out, e.phase_end_ns);
  put_d(out, e.max_node_busy_ns);
  put_d(out, e.mean_node_busy_ns);
  put_u(out, e.tasks_executed);
  put_u(out, e.noc.messages);
  put_d(out, e.noc.total_bytes);
  put_stat(out, e.noc.latency_ns);
  put_stat(out, e.noc.hops);
  put_d(out, e.noc.max_link_busy_ns);
  put_d(out, e.noc.total_link_busy_ns);
  put_map(out, e.critical_path_ns);
  put_d(out, e.critical_wait_ns);
}
}  // namespace detail

inline std::string digest(const anton::core::PerfReport& r) {
  std::string out;
  detail::put_s(out, r.machine);
  detail::put_u(out, static_cast<uint64_t>(r.nodes));
  detail::put_u(out, static_cast<uint64_t>(r.atoms));
  detail::put_d(out, r.dt_fs);
  detail::put_u(out, static_cast<uint64_t>(r.respa_k));
  detail::put_step(out, r.full_step);
  detail::put_step(out, r.short_step);
  return out;
}

}  // namespace perfbench
