//===- bench/opt_memory.cpp - Memory-optimization check elision -----------===//
///
/// The Table VII workload set rerun with the alias-analysis-driven
/// dynamic-check elision off and on, on both trace-execution tiers.
/// Elision never changes what a trace computes -- it only skips
/// null/liveness/bounds checks the field-sensitive alias analysis proved
/// redundant on the trace path -- so the run is gated on the stats
/// digest: all four configurations (interp/jit x off/on) must fold to
/// the same digest or the numbers are meaningless and the bench aborts.
///
/// Columns: per tier, best-of-N wall seconds with elision off and on,
/// plus the elision-site count (static: heap accesses compiled with
/// elision across promoted traces) and the dynamic number of checks
/// elided. Only JIT-promoted code elides: the bench exits non-zero when
/// an interp-tier run reports any elision site or elided check, or when
/// fewer than 4 of the 6 workloads show a measurable reduction (elided
/// checks > 0) on the jit tier -- the regression gates CI relies on.
///
/// JSON artifact: one record per (workload, tier); "overhead" reuses the
/// OverheadSample shape with plain_seconds = elision-off wall time and
/// profiled_seconds = elision-on wall time, and "stats" is the
/// elision-on run's statistics block (whose mem_elision_sites and
/// mem_checks_elided counters carry the elision telemetry).
///
//===----------------------------------------------------------------------===//

#include "bytecode/Verifier.h"
#include "harness/Experiment.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

using namespace jtc;

namespace {

VmOptions tierOptions(backend::BackendKind K, bool Elide) {
  // The recommended configuration of the Table VII experiment, with
  // immediate promotion so the jit tier serves every hot dispatch.
  return VmOptions()
      .completionThreshold(0.97)
      .startStateDelay(64)
      .backend(K)
      .jitPromoteAfter(0)
      .memElide(Elide);
}

/// Best-of-\p Repeats wall seconds for \p PM under \p Options; the stats
/// of the last run are returned through \p Stats.
double timeRuns(const PreparedModule &PM, const VmOptions &Options,
                int Repeats, VmStats &Stats) {
  double Best = 1e100;
  for (int Rep = 0; Rep < Repeats; ++Rep) {
    TraceVM VM(PM, Options);
    Timer T;
    RunResult R = VM.run();
    double Sec = T.seconds();
    if (R.Status == RunStatus::Trapped) {
      std::fprintf(stderr, "workload trapped: %s\n", trapName(R.Trap));
      std::abort();
    }
    if (Sec < Best)
      Best = Sec;
    Stats = VM.currentStats();
  }
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonOut = parseBenchJsonArg(argc, argv, "opt_memory");
  std::cout << "Memory optimization: alias-analysis check elision off vs on, "
               "Table VII workloads\n\n";

  struct Tier {
    const char *Name;
    backend::BackendKind Kind;
  };
  std::vector<Tier> Tiers = {{"interp", backend::BackendKind::Interp}};
  if (backend::jitSupportedHost())
    Tiers.push_back({"jit", backend::BackendKind::Jit});
  else
    std::cout << "(no template-JIT support on this host; interp tier only)\n\n";

  TablePrinter T({"benchmark", "tier", "off (s)", "on (s)", "speedup",
                  "elision sites", "checks elided"});
  std::vector<BenchRecord> Records;
  // Reduced[tier] = workloads with a measurable reduction on that tier.
  std::vector<int> Reduced(Tiers.size(), 0);
  for (const WorkloadInfo &W : allWorkloads()) {
    std::cerr << "  timing " << W.Name << "...\n";
    Module M = W.Build(W.DefaultScale);
    std::vector<VerifyError> Errors = verifyModule(M);
    if (!Errors.empty()) {
      std::fprintf(stderr, "workload '%s' failed verification\n", W.Name);
      return 1;
    }
    PreparedModule PM(M);
    uint64_t RefDigest = 0;
    bool HaveRef = false;
    for (size_t Ti = 0; Ti < Tiers.size(); ++Ti) {
      VmStats Off, On;
      double OffSec = timeRuns(PM, tierOptions(Tiers[Ti].Kind, false), 3, Off);
      double OnSec = timeRuns(PM, tierOptions(Tiers[Ti].Kind, true), 3, On);
      // The digest gate: elision (and the tier) must be replay-neutral.
      if (!HaveRef) {
        RefDigest = Off.digest();
        HaveRef = true;
      }
      for (const VmStats *S : {&Off, &On}) {
        if (S->digest() != RefDigest) {
          std::fprintf(
              stderr, "stats digest mismatch on '%s' (%s): %llx vs %llx\n",
              W.Name, Tiers[Ti].Name,
              static_cast<unsigned long long>(S->digest()),
              static_cast<unsigned long long>(RefDigest));
          return 1;
        }
      }
      if (Off.MemChecksElided != 0) {
        std::fprintf(stderr, "'%s' (%s): elision-off run elided %llu checks\n",
                     W.Name, Tiers[Ti].Name,
                     static_cast<unsigned long long>(Off.MemChecksElided));
        return 1;
      }
      const bool Native = Tiers[Ti].Kind == backend::BackendKind::Jit;
      if (!Native && (On.MemElisionSites != 0 || On.MemChecksElided != 0)) {
        std::fprintf(stderr,
                     "'%s' (interp): %llu elision sites, %llu checks elided; "
                     "the interp tier must run every check\n",
                     W.Name,
                     static_cast<unsigned long long>(On.MemElisionSites),
                     static_cast<unsigned long long>(On.MemChecksElided));
        return 1;
      }
      if (On.MemChecksElided > 0)
        ++Reduced[Ti];
      T.addRow({W.Name, Tiers[Ti].Name, TablePrinter::fmt(OffSec, 3),
                TablePrinter::fmt(OnSec, 3),
                TablePrinter::fmt(OffSec / OnSec, 2) + "x",
                std::to_string(On.MemElisionSites),
                std::to_string(On.MemChecksElided)});
      BenchRecord R = BenchRecord::forStats(
          std::string(W.Name) + "/" + Tiers[Ti].Name, 0.97, 64, On);
      R.HasOverhead = true;
      R.Overhead.PlainSeconds = OffSec;
      R.Overhead.ProfiledSeconds = OnSec;
      R.Overhead.Dispatches = On.TraceDispatches;
      R.Overhead.Instructions = On.Instructions;
      Records.push_back(std::move(R));
    }
  }
  T.print(std::cout);

  bool Ok = true;
  for (size_t Ti = 0; Ti < Tiers.size(); ++Ti) {
    std::cout << "\n" << Tiers[Ti].Name << ": measurable check reduction on "
              << Reduced[Ti] << "/" << allWorkloads().size() << " workloads";
    if (Tiers[Ti].Kind == backend::BackendKind::Jit && Reduced[Ti] < 4) {
      std::cout << " (expected >= 4)";
      Ok = false;
    }
  }
  std::cout << "\n";
  maybeWriteBenchJson(JsonOut, "opt_memory", Records);
  return Ok ? 0 : 1;
}
