// F7 — Long-range electrostatics kernels: GSE spread + 3D FFT + gather and
// the direct Ewald k-space sum, serial and on a 4-thread pool, on the
// 4k-atom water box.
//
// The serial combined path (longrange.serial_ms) feeds the long-range
// floor in tools/bench_gates.py: its time in an ANTON_SIMD=scalar tree over
// its time in the native tree.
//
// Set ANTON_BENCH_SMOKE=1 to shrink repetitions for CI.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "common/threadpool.h"
#include "fft/fft.h"
#include "md/ewald.h"
#include "md/gse.h"
#include "obs/profiler.h"

int main() {
  using namespace anton;
  using namespace anton::bench;
  using namespace anton::md;

  const bool smoke = std::getenv("ANTON_BENCH_SMOKE") != nullptr;
  const int reps = smoke ? 2 : 7;
  const int iters = smoke ? 1 : 3;

  // The 4k-water system: 1331 molecules = 3993 atoms.
  System sys = build_water_box(1331, 7);
  const double alpha = 0.35, spacing = 1.1, sigma = 1.2;

  print_header("F7", "Long-range electrostatics kernels (3,993-atom water)");
  BenchReport report("f7");
  report.record("atoms", static_cast<double>(sys.num_atoms()));

  GseMesh gse_serial(sys.box(), alpha, spacing, sigma);
  ThreadPool pool(4);
  GseMesh gse_t4(sys.box(), alpha, spacing, sigma, &pool);
  report.record("mesh.nx", gse_serial.nx());
  report.record("mesh.ny", gse_serial.ny());
  report.record("mesh.nz", gse_serial.nz());

  std::vector<Vec3> f(static_cast<size_t>(sys.num_atoms()));
  EnergyReport e;
  const auto run = [&](auto& kernel) {
    std::fill(f.begin(), f.end(), Vec3{});
    e = EnergyReport{};
    kernel.compute(sys.topology(), sys.positions(), f, e);
  };
  const auto add_rows = [](TextTable& t, double serial_ms, double t4_ms) {
    t.add_row({"serial", TextTable::fmt(serial_ms, 2), "1.00"});
    t.add_row({"4 threads", TextTable::fmt(t4_ms, 2),
               TextTable::fmt(serial_ms / t4_ms, 2)});
  };

  // Warm everything (plans, workspaces, per-thread scratch) before timing.
  run(gse_serial);
  run(gse_t4);

  {
    std::cout << "\n-- combined spread + 3D FFT + k-multiply + gather --\n";
    const double serial_ms = time_min_ms(reps, iters, [&] { run(gse_serial); });
    const double t4_ms = time_min_ms(reps, iters, [&] { run(gse_t4); });
    report.record("longrange.serial_ms", serial_ms);
    report.record("longrange.t4_ms", t4_ms);
    TextTable t({"variant", "ms/step", "vs serial"});
    add_rows(t, serial_ms, t4_ms);
    t.print(std::cout);
  }

  {
    std::cout << "\n-- r2c 3D FFT round trip on the charge mesh --\n";
    Fft3D fft(gse_serial.nx(), gse_serial.ny(), gse_serial.nz(), &pool);
    std::vector<double> grid(fft.num_points());
    for (size_t i = 0; i < grid.size(); ++i) {
      grid[i] = std::sin(0.37 * static_cast<double>(i));
    }
    std::vector<Complex> hmesh(fft.half_points());
    std::vector<double> out(grid.size());
    const double t4_ms = time_min_ms(reps, iters, [&] {
      fft.forward_real(grid, hmesh);
      fft.inverse_real(hmesh, out);
    });
    report.record("fft.t4_ms", t4_ms);
    TextTable t({"variant", "ms/round-trip"});
    t.add_row({"4 threads", TextTable::fmt(t4_ms, 2)});
    t.print(std::cout);
  }

  {
    std::cout << "\n-- Green's-function table rebuild (barostat resize) --\n";
    // Alternate between two boxes with identical mesh dimensions so every
    // set_box call changes the lengths and takes the rebuild-in-place path
    // (the mesh currently sits at sys.box(), so start with the grown cell).
    const Box grown(1.002 * sys.box().lengths());
    bool flip = true;
    const double t4_ms = time_min_ms(reps, 1, [&] {
      gse_t4.set_box(flip ? grown : sys.box());
      flip = !flip;
    });
    gse_t4.set_box(sys.box());
    report.record("tables.t4_ms", t4_ms);
    TextTable t({"variant", "ms/rebuild"});
    t.add_row({"half-spectrum, 4 threads", TextTable::fmt(t4_ms, 2)});
    t.print(std::cout);
  }

  {
    std::cout << "\n-- direct Ewald k-space (nmax = 6) --\n";
    const int nmax = 6;
    EwaldDirect ewald_serial(sys.box(), alpha, nmax);
    EwaldDirect ewald_t4(sys.box(), alpha, nmax, &pool);
    run(ewald_serial);  // warm tables
    run(ewald_t4);
    const int ew_reps = smoke ? 1 : 3;
    const double serial_ms =
        time_min_ms(ew_reps, 1, [&] { run(ewald_serial); });
    const double t4_ms = time_min_ms(ew_reps, 1, [&] { run(ewald_t4); });
    report.record("ewald.serial_ms", serial_ms);
    report.record("ewald.t4_ms", t4_ms);
    TextTable t({"variant", "ms/eval", "vs serial"});
    add_rows(t, serial_ms, t4_ms);
    t.print(std::cout);
  }

  std::cout << "\nThe combined path is the headline number: it is what the "
               "RESPA outer step\npays every long-range evaluation.\n";
  return 0;
}
