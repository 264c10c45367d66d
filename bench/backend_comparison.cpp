//===- bench/backend_comparison.cpp - Table VII rerun across backends -----===//
///
/// The Table VII workload set rerun on both trace-execution tiers: each
/// workload is timed end-to-end under --backend=interp and --backend=jit
/// in Pairs interleaved pairs of runs, with the interp/JIT equivalence
/// contract asserted on the way (identical folded stats digests -- a
/// mismatch aborts, the numbers would be meaningless). The interesting
/// columns are the net speedup of the template-JIT tier over
/// block-stepping the same traces -- the median over the pairs of each
/// pair's interp/jit time ratio, so a slow moment of the host lands on
/// both sides of one pair instead of deciding a best-of -- and how much
/// of the run the compiled tier actually served.
///
/// Native code belongs to the PreparedModule, so there are two jit
/// columns. Every run of "jit" gets a fresh module and compiles every
/// trace it promotes (lowering, emission, install); an untimed session
/// with strict validation proves the fresh module's trace shapes first,
/// so, as before native code was per module, the timed run finds the
/// proofs known -- strict validation proves the same shapes but keys
/// its code apart. The "jit (module code warm)" runs share one module
/// whose code an untimed run compiled, so they only dispatch. The gap
/// between the two columns is the compile cost; what remains against
/// interp is the native code itself.
///
/// JSON artifact: one record per workload; "overhead" reuses the
/// OverheadSample shape with plain_seconds = the median interp-backend
/// wall time and profiled_seconds = plain_seconds times the median
/// jit/interp ratio, so profiled < plain exactly when the jit tier is
/// faster in the median pair (the "jit" column); "stats" is the
/// statistics block of a "jit" run (whose tier counters report traces
/// compiled, native dispatches and code bytes).
///
//===----------------------------------------------------------------------===//

#include "bytecode/Verifier.h"
#include "harness/Experiment.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

using namespace jtc;

namespace {

VmOptions tierOptions(backend::BackendKind K) {
  // The recommended configuration of the Table VII experiment, with
  // immediate promotion so the jit tier serves every hot dispatch.
  return VmOptions()
      .completionThreshold(0.97)
      .startStateDelay(64)
      .backend(K)
      .jitPromoteAfter(0);
}

/// Interleaved rounds of interp, jit and warm-jit timed runs per
/// workload.
constexpr int Pairs = 7;

/// Wall seconds of one session over \p PM under \p Options; its stats
/// are returned through \p Stats.
double timeRun(const PreparedModule &PM, const VmOptions &Options,
               VmStats &Stats) {
  TraceVM VM(PM, Options);
  Timer T;
  RunResult R = VM.run();
  double Sec = T.seconds();
  if (R.Status == RunStatus::Trapped) {
    std::fprintf(stderr, "workload trapped: %s\n", trapName(R.Trap));
    std::abort();
  }
  Stats = VM.currentStats();
  return Sec;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonOut = parseBenchJsonArg(argc, argv, "backend_comparison");
  if (!backend::jitSupportedHost()) {
    std::cout << "backend_comparison: no template-JIT support on this host; "
                 "nothing to compare\n";
    return 0;
  }
  std::cout << "Backend comparison: Table VII workloads, interp vs jit "
               "trace tier\n\n";

  TablePrinter T({"benchmark", "interp (s)", "jit (s)", "speedup",
                  "jit (module code warm)", "warm speedup",
                  "traces compiled", "jit dispatch share"});
  std::vector<BenchRecord> Records;
  int Faster = 0;
  for (const WorkloadInfo &W : allWorkloads()) {
    std::cerr << "  timing " << W.Name << "...\n";
    Module M = W.Build(W.DefaultScale);
    std::vector<VerifyError> Errors = verifyModule(M);
    if (!Errors.empty()) {
      std::fprintf(stderr, "workload '%s' failed verification\n", W.Name);
      return 1;
    }
    const VmOptions Interp = tierOptions(backend::BackendKind::Interp);
    const VmOptions Jit = tierOptions(backend::BackendKind::Jit);
    // The interp runs and the warm jit column share this module; an
    // untimed run leaves its code in it.
    PreparedModule PM(M);
    VmStats SI, SJ, SW;
    timeRun(PM, Jit, SW);
    std::vector<double> InterpSecs, Ratios, WarmRatios;
    for (int P = 0; P < Pairs; ++P) {
      double I = timeRun(PM, Interp, SI);
      PreparedModule Cold(M);
      VmStats Proving;
      timeRun(Cold, VmOptions(Jit).validate(ValidateMode::Strict), Proving);
      double J = timeRun(Cold, Jit, SJ);
      double Warm = timeRun(PM, Jit, SW);
      InterpSecs.push_back(I);
      Ratios.push_back(J / I);
      WarmRatios.push_back(Warm / I);
    }
    const double InterpSec = median(InterpSecs);
    const double JitSec = InterpSec * median(Ratios);
    const double WarmSec = InterpSec * median(WarmRatios);
    // The equivalence contract gates the comparison: same digest or the
    // two tiers did not run the same execution.
    for (const VmStats *S : {&SJ, &SW})
      if (SI.digest() != S->digest()) {
        std::fprintf(
            stderr, "backend digest mismatch on '%s': interp %llx, jit %llx\n",
            W.Name, static_cast<unsigned long long>(SI.digest()),
            static_cast<unsigned long long>(S->digest()));
        return 1;
      }
    if (JitSec < InterpSec)
      ++Faster;
    uint64_t TierTotal = SJ.TraceDispatchesJit + SJ.TraceDispatchesInterp;
    double JitShare =
        TierTotal ? static_cast<double>(SJ.TraceDispatchesJit) /
                        static_cast<double>(TierTotal)
                  : 0.0;
    T.addRow({W.Name, TablePrinter::fmt(InterpSec, 3),
              TablePrinter::fmt(JitSec, 3),
              TablePrinter::fmt(InterpSec / JitSec, 2) + "x",
              TablePrinter::fmt(WarmSec, 3),
              TablePrinter::fmt(InterpSec / WarmSec, 2) + "x",
              std::to_string(SJ.TracesJitCompiled),
              TablePrinter::fmtPercent(JitShare, 1)});
    BenchRecord R = BenchRecord::forStats(W.Name, 0.97, 64, SJ);
    R.HasOverhead = true;
    R.Overhead.PlainSeconds = InterpSec;
    R.Overhead.ProfiledSeconds = JitSec;
    R.Overhead.Dispatches = SJ.TraceDispatches;
    R.Overhead.Instructions = SJ.Instructions;
    Records.push_back(std::move(R));
  }
  T.print(std::cout);
  std::cout << "\njit faster on " << Faster << "/"
            << allWorkloads().size() << " workloads\n";
  maybeWriteBenchJson(JsonOut, "backend_comparison", Records);
  return 0;
}
