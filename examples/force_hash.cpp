// Prints a bit-exact digest of the forces and energies of one deterministic
// force evaluation, plus the force digest of the same evaluation with the
// default double-precision accumulation (force_digest_fast), plus the
// core::report_digest of the machine model's PerfReport for a 3,000-atom
// solvated system on a 4x4x4 Anton 2 (the value the anton2 case of
// Machine.GoldenReportDigests pins).  Two builds that claim bitwise-identical
// results — e.g. the AVX2 and scalar SIMD backends at the same thread count —
// must print byte-identical output; scripts/check.sh diffs this across the
// two backend trees as the cross-configuration parity smoke test.
// force_digest alone is also identical across thread counts.
//
//   ./build/examples/force_hash [molecules=729] [threads=4] [seed=11]
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <vector>

#include "chem/builder.h"
#include "common/config.h"
#include "common/threadpool.h"
#include "core/machine.h"
#include "md/forces.h"

using namespace anton;

namespace {

// FNV-1a over the raw little-endian bytes of a double sequence.
struct Digest {
  uint64_t h = 1469598103934665603ull;
  void add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

// The machine model's report for a small solvated system on 64 nodes: the
// workload build's SIMD pair filter and the DES both feed it.
uint64_t machine_report_digest() {
  BuilderOptions o;
  o.total_atoms = 3000;
  o.solute_fraction = 0.1;
  o.seed = 77;
  o.temperature_k = -1;
  const System sys = build_solvated_system(o);
  return core::report_digest(
      core::AntonMachine(arch::MachineConfig::anton2(4, 4, 4))
          .estimate(sys, 2.5, 2));
}

uint64_t bits_of(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const int molecules = static_cast<int>(cfg.get_int("molecules", 729));
  const int threads = static_cast<int>(cfg.get_int("threads", 4));
  const uint64_t seed = static_cast<uint64_t>(cfg.get_int("seed", 11));

  System sys = build_water_box(molecules, seed);
  ThreadPool pool(static_cast<unsigned>(threads));
  std::vector<Vec3> forces(static_cast<size_t>(sys.num_atoms()), Vec3{});
  auto evaluate = [&](bool deterministic) {
    MdParams md;
    md.cutoff = 9.0;
    md.skin = 1.0;
    md.deterministic_forces = deterministic;
    md.long_range = LongRangeMethod::kMesh;
    md::ForceCompute fc(sys.topology_ptr(), sys.box(), md, &pool);
    fc.warm(sys.positions());
    return fc.compute_all(sys.positions(), forces);
  };
  auto digest = [&] {
    Digest d;
    for (const Vec3& f : forces) {
      d.add(f.x);
      d.add(f.y);
      d.add(f.z);
    }
    return d.h;
  };

  // The deterministic evaluation runs last: the f0 and energy lines below
  // print its results.
  evaluate(false);
  const uint64_t fast_digest = digest();
  const EnergyReport e = evaluate(true);

  std::printf("atoms %d threads %d\n", sys.num_atoms(), threads);
  std::printf("force_digest %016" PRIx64 "\n", digest());
  std::printf("force_digest_fast %016" PRIx64 "\n", fast_digest);
  std::printf("f0 %016" PRIx64 " %016" PRIx64 " %016" PRIx64 "\n",
              bits_of(forces[0].x), bits_of(forces[0].y),
              bits_of(forces[0].z));
  std::printf("e_lj %016" PRIx64 "\n", bits_of(e.lj));
  std::printf("e_coul_real %016" PRIx64 "\n", bits_of(e.coulomb_real));
  std::printf("e_coul_kspace %016" PRIx64 "\n", bits_of(e.coulomb_kspace));
  std::printf("e_coul_excl %016" PRIx64 "\n", bits_of(e.coulomb_excl));
  std::printf("report_digest %016" PRIx64 "\n", machine_report_digest());
  return 0;
}
