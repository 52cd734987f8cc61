// Fixture: the two tempting shortcuts in a DES-side message buffer, seeded
// so anton_lint keeps rejecting them (des-std-function, raw-clock).  Event
// callables in the discrete-event core live in sim::InlineFn buffers
// (src/sim/event_queue.h), and event ordering uses *simulated* time, never
// the host clock.
#include <chrono>
#include <functional>
#include <vector>

namespace anton::sim_fixture {

struct Parcel {
  double time;
  std::function<void()> fn;  // violation: heap-owning callable per parcel
};

struct Mailbox {
  std::vector<Parcel> ring;

  // violation: std::function parameter on the post path
  void post(double t, std::function<void()> fn);

  double drain_deadline() const {
    // violation: host wall-clock consulted inside the DES core
    const auto now = std::chrono::steady_clock::now();
    return static_cast<double>(now.time_since_epoch().count());
  }
};

}  // namespace anton::sim_fixture
