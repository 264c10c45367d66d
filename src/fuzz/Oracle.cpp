//===- fuzz/Oracle.cpp ----------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "baseline/NetTraceVm.h"
#include "bytecode/Verifier.h"
#include "fuzz/BtraceAudit.h"
#include "fuzz/Invariants.h"
#include "fuzz/Refinement.h"
#include "fuzz/ValidateAudit.h"
#include "interp/InstructionInterpreter.h"
#include "interp/PreparedModule.h"
#include "interp/ThreadedInterpreter.h"
#include "runtime/Machine.h"
#include "vm/TraceVM.h"

#include <algorithm>
#include <memory>
#include <sstream>

using namespace jtc;
using namespace jtc::fuzz;

std::vector<GridPoint> fuzz::defaultGrid() {
  return {
      {1.0, 1, 32},    // Degenerate threshold: only sure-thing traces.
      {0.97, 1, 32},   // Paper default threshold, eager profiler.
      {0.97, 64, 256}, // Paper default threshold, default pacing.
      {0.9, 1, 64},    // Permissive: speculative traces, early exits.
  };
}

uint64_t fuzz::heapDigest(const Heap &H) { return jtc::heapDigest(H); }

namespace {

/// Collects comparisons against the fixed reference outcome.
class Comparer {
public:
  Comparer(OracleResult &Result, std::string Engine)
      : Result(Result), Engine(std::move(Engine)) {}

  void finding(const char *Rule, std::string Detail) {
    Result.Findings.push_back({Engine, Rule, std::move(Detail)});
  }

  void outcome(RunStatus Status, TrapKind Trap) {
    if (Status != Result.RefStatus)
      finding("status-mismatch",
              std::string("got ") + runStatusName(Status) + ", reference " +
                  runStatusName(Result.RefStatus));
    if (Trap != Result.RefTrap)
      finding("trap-mismatch", std::string("got ") + trapName(Trap) +
                                   ", reference " + trapName(Result.RefTrap));
  }

  void instructions(uint64_t N) {
    if (N != Result.RefInstructions) {
      std::ostringstream OS;
      OS << "executed " << N << ", reference " << Result.RefInstructions;
      finding("instruction-mismatch", OS.str());
    }
  }

  void output(const std::vector<int64_t> &Out) {
    if (Out == Result.RefOutput)
      return;
    std::ostringstream OS;
    OS << Out.size() << " values, reference " << Result.RefOutput.size();
    size_t N = std::min(Out.size(), Result.RefOutput.size());
    for (size_t I = 0; I < N; ++I)
      if (Out[I] != Result.RefOutput[I]) {
        OS << "; first divergence at [" << I << "]: " << Out[I] << " vs "
           << Result.RefOutput[I];
        break;
      }
    finding("output-mismatch", OS.str());
  }

  void heap(uint64_t Digest, uint64_t RefDigest) {
    if (Digest != RefDigest) {
      std::ostringstream OS;
      OS << "digest " << std::hex << Digest << ", reference " << RefDigest;
      finding("heap-mismatch", OS.str());
    }
  }

  void violations(std::vector<Violation> Vs) {
    for (Violation &V : Vs)
      Result.Findings.push_back(
          {Engine, std::move(V.Rule), std::move(V.Detail)});
  }

private:
  OracleResult &Result;
  std::string Engine;
};

} // namespace

OracleResult fuzz::runOracle(const Module &M, const OracleConfig &Config) {
  OracleResult Result;

  std::vector<VerifyError> Errors = verifyModule(M);
  if (!Errors.empty()) {
    Result.Findings.push_back(
        {"verifier", "invalid-module", formatErrors(Errors)});
    Result.Ok = false;
    return Result;
  }

  // Reference: the per-instruction interpreter.
  Machine Ref(M);
  RunResult RR = runInstructions(Ref, Config.MaxInstructions);
  Result.RefStatus = RR.Status;
  Result.RefTrap = Ref.trap();
  Result.RefInstructions = RR.Instructions;
  Result.RefOutput = Ref.output();
  uint64_t RefDigest = fuzz::heapDigest(Ref.heap());

  // A budget cut lands mid-run at an engine-specific point; nothing
  // meaningful can be compared.
  if (RR.Status == RunStatus::BudgetExhausted) {
    Result.Skipped = true;
    return Result;
  }

  // Dynamic-refines-static audit: a second reference-speed replay that
  // checks every executed block leader against the static analysis.
  // Output comparison cannot catch analysis soundness bugs (the analysis
  // is off the execution path), so this is its only oracle.
  if (Config.CheckRefinement) {
    Comparer C(Result, "static-analysis");
    C.violations(checkRefinement(M, Config.MaxInstructions));
  }

  PreparedModule PM(M);

  if (Config.IncludeThreaded) {
    Comparer C(Result, "threaded");
    ThreadedProgram TP(PM);
    ThreadedResult TR = TP.run(Config.MaxInstructions);
    C.outcome(TR.Status, TR.Trap);
    // The block executor checks its budget at block granularity, so a
    // trapped run's count can legitimately differ by the trap position
    // inside a block; compare counts only for clean completion.
    if (Result.RefStatus == RunStatus::Finished)
      C.instructions(TR.Instructions);
    C.output(TR.Output);
  }

  const std::vector<GridPoint> Grid =
      Config.Grid.empty() ? defaultGrid() : Config.Grid;
  for (const GridPoint &G : Grid) {
    std::ostringstream Name;
    Name << "tracevm[t=" << G.Threshold << " delay=" << G.Delay
         << " decay=" << G.Decay << "]";
    Comparer C(Result, Name.str());

    // The backend axis below re-runs this exact configuration on the
    // JIT tier, so the base run pins Interp explicitly (a JTC_BACKEND
    // override must not collapse the two sides onto one tier).
    VmOptions Base = VmOptions()
                         .completionThreshold(G.Threshold)
                         .startStateDelay(G.Delay)
                         .decayInterval(G.Decay)
                         .maxInstructions(Config.MaxInstructions)
                         .telemetry(Config.Telemetry)
                         .telemetryCapacity(Config.TelemetryCapacity)
                         .validate(Config.Validate)
                         .cacheFault(Config.Fault);
    TraceVM VM(PM,
               VmOptions(Base).backend(backend::BackendKind::Interp));
    // The btrace recorder shadows the run: ground-truth block sequence
    // plus an in-memory compressed stream, audited after the run.
    std::unique_ptr<BtraceRecorder> Rec;
    if (Config.CheckBtrace && Config.Fault == CacheFault::None) {
      Rec = std::make_unique<BtraceRecorder>(PM, VM);
      Rec->attach(VM);
    }
    RunResult R = VM.run();
    C.outcome(R.Status, VM.machine().trap());
    C.instructions(R.Instructions);
    C.output(VM.machine().output());
    C.heap(fuzz::heapDigest(VM.machine().heap()), RefDigest);
    if (Config.CheckInvariants)
      C.violations(checkTraceVm(VM, R.Status));
    if (Config.CheckInvariants && Rec)
      C.violations(checkContextsExecuted(VM.graph(), Rec->blocks()));
    if (Config.CheckPersist)
      C.violations(checkPersistRoundTrip(VM));
    if (Rec)
      C.violations(checkBtraceRoundTrip(PM, *Rec));

    // Backend equivalence: the same configuration on the JIT tier must
    // be observationally indistinguishable -- including the adaptive
    // bookkeeping (stats digest) and the emitted btrace stream, which
    // deliberately has no backend field. A second session over the
    // module runs the native code the first left in it and must be
    // compared the same way, and must count exactly what the first did
    // but for what it found left behind.
    const bool Backends = Config.CheckBackends &&
                          Config.Fault == CacheFault::None &&
                          backend::jitSupportedHost();
    VmStats FirstJit;
    for (int Session = 0; Backends && Session < 2; ++Session) {
      std::ostringstream JName;
      JName << "tracevm-jit" << (Session ? "-reuse" : "") << "[t="
            << G.Threshold << " delay=" << G.Delay << " decay=" << G.Decay
            << "]";
      Comparer JC(Result, JName.str());
      TraceVM JitVM(PM, VmOptions(Base)
                            .backend(backend::BackendKind::Jit)
                            .jitPromoteAfter(0));
      std::unique_ptr<BtraceRecorder> JitRec;
      if (Rec) {
        JitRec = std::make_unique<BtraceRecorder>(PM, JitVM);
        JitRec->attach(JitVM);
      }
      RunResult JR = JitVM.run();
      JC.outcome(JR.Status, JitVM.machine().trap());
      JC.instructions(JR.Instructions);
      JC.output(JitVM.machine().output());
      JC.heap(fuzz::heapDigest(JitVM.machine().heap()), RefDigest);
      const VmStats JS = JitVM.currentStats();
      if (VM.currentStats().digest() != JS.digest()) {
        std::ostringstream OS;
        OS << "interp digest " << std::hex << VM.currentStats().digest()
           << ", jit digest " << JS.digest();
        JC.finding("backend-digest-mismatch", OS.str());
      }
      if (JitRec) {
        if (JitRec->blocks() != Rec->blocks()) {
          std::ostringstream OS;
          OS << "interp dispatched " << Rec->blocks().size()
             << " blocks, jit " << JitRec->blocks().size();
          JC.finding("backend-block-mismatch", OS.str());
        } else if (JitRec->stream() != Rec->stream()) {
          std::ostringstream OS;
          OS << "identical block sequence encoded to different streams ("
             << Rec->stream().size() << " vs " << JitRec->stream().size()
             << " bytes)";
          JC.finding("backend-stream-mismatch", OS.str());
        }
      }
      if (Config.CheckInvariants)
        JC.violations(checkTraceVm(JitVM, JR.Status));
      if (Config.CheckInvariants && JitRec)
        JC.violations(checkContextsExecuted(JitVM.graph(), JitRec->blocks()));
      if (Session == 0) {
        FirstJit = JS;
        continue;
      }
      for (const VmStats::FieldInfo &F : VmStats::fields())
        if (F.Counter && F.Counter != &VmStats::TraceProofsReused &&
            F.Counter != &VmStats::JitCodeReused &&
            JS.*F.Counter != FirstJit.*F.Counter)
          JC.finding("reuse-stats-mismatch",
                     std::string(F.Key) + ": first session " +
                         std::to_string(FirstJit.*F.Counter) + ", second " +
                         std::to_string(JS.*F.Counter));
      if (JS.JitCodeReused != JS.TracesJitCompiled)
        JC.finding("jit-code-recompiled",
                   std::to_string(JS.TracesJitCompiled) + " promoted, " +
                       std::to_string(JS.JitCodeReused) +
                       " from the module's code");
    }

    // Memory-elision equivalence: the same configuration with dynamic
    // check elision disabled must be observationally identical (elision
    // only skips checks the alias analysis proved redundant), and the
    // stats digest must not move either -- the elision counters are
    // digest-excluded by design, so --mem-elide is replay-neutral. Only
    // promoted native code elides, so this side runs unelided native
    // code, against the elided native code of the backend axis above
    // -- after it, so the module already holds that elided code, which
    // this session must not run: it must report no elision at all.
    if (Backends) {
      std::ostringstream EName;
      EName << "tracevm-noelide[t=" << G.Threshold << " delay=" << G.Delay
            << " decay=" << G.Decay << "]";
      Comparer EC(Result, EName.str());
      TraceVM EVM(PM, VmOptions(Base)
                          .backend(backend::BackendKind::Jit)
                          .jitPromoteAfter(0)
                          .memElide(false));
      RunResult ER = EVM.run();
      EC.outcome(ER.Status, EVM.machine().trap());
      EC.instructions(ER.Instructions);
      EC.output(EVM.machine().output());
      EC.heap(fuzz::heapDigest(EVM.machine().heap()), RefDigest);
      const VmStats ES = EVM.currentStats();
      if (VM.currentStats().digest() != ES.digest()) {
        std::ostringstream OS;
        OS << "elide-on digest " << std::hex << VM.currentStats().digest()
           << ", elide-off digest " << ES.digest();
        EC.finding("mem-elide-digest-mismatch", OS.str());
      }
      if (ES.MemElisionSites != 0 || ES.MemChecksElided != 0)
        EC.finding("mem-elide-off-elided",
                   std::to_string(ES.MemElisionSites) + " sites, " +
                       std::to_string(ES.MemChecksElided) +
                       " checks elided");
    }

    // Last, so the memo holds what the JIT run proved at promotion for
    // the shapes this configuration builds.
    if (Config.CheckValidate && Config.Fault == CacheFault::None)
      C.violations(checkValidateAudit(PM, VM));
  }

  if (Config.IncludeNet) {
    Comparer C(Result, "net");
    NetConfig NC;
    NC.MaxInstructions = Config.MaxInstructions;
    NetTraceVm VM(PM, NC);
    RunResult R = VM.run();
    C.outcome(R.Status, VM.machine().trap());
    C.instructions(R.Instructions);
    C.output(VM.machine().output());
    C.heap(fuzz::heapDigest(VM.machine().heap()), RefDigest);
    if (Config.CheckInvariants)
      C.violations(checkNetVm(VM));
  }

  Result.Ok = Result.Findings.empty();
  return Result;
}

std::string fuzz::formatFindings(const std::vector<OracleFinding> &Fs) {
  std::ostringstream OS;
  for (const OracleFinding &F : Fs)
    OS << F.Engine << ": " << F.Rule << ": " << F.Detail << "\n";
  return OS.str();
}
