//===- fuzz/Oracle.h - Cross-engine differential oracle ---------*- C++ -*-===//
///
/// \file
/// The differential oracle at the core of the fuzzing subsystem. One
/// module is executed by every engine the repository implements -- the
/// per-instruction reference interpreter, a plain block-executor run, the
/// TraceVM across a grid of (threshold, start-state delay, decay
/// interval) configurations, and the Dynamo-NET baseline -- and all
/// observable outcomes are cross-checked against the reference: run
/// status, trap kind, executed instruction count, printed output and a
/// digest of the final heap. After each profiled run the structural
/// invariants of Invariants.h are audited as well, so bookkeeping bugs
/// that cannot change program output are still caught.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_FUZZ_ORACLE_H
#define JTC_FUZZ_ORACLE_H

#include "interp/RunResult.h"
#include "trace/TraceConfig.h"
#include "vm/VmOptions.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jtc {

struct Module;
class Heap;

namespace fuzz {

/// One TraceVM configuration to cross-check (mirrors the paper's
/// parameter sweep axes).
struct GridPoint {
  double Threshold = 0.97;
  uint32_t Delay = 1;
  uint32_t Decay = 32;
};

/// The default grid: the degenerate threshold, the paper's default with
/// an eager and a conservative profiler, and a permissive threshold that
/// builds speculative traces (exercising early exits and retirement).
std::vector<GridPoint> defaultGrid();

struct OracleConfig {
  /// Instruction budget per engine run. Generated programs are bounded
  /// far below this; a reference run that exhausts it is skipped rather
  /// than compared (engines disagree on where a budget cut lands).
  uint64_t MaxInstructions = 20'000'000;

  /// TraceVM configurations to run; empty means defaultGrid().
  std::vector<GridPoint> Grid;

  bool IncludeThreaded = true;
  bool IncludeNet = true;

  /// Attach the telemetry ring to TraceVM runs; enables the event/counter
  /// reconciliation and retirement-law audits.
  bool Telemetry = true;
  uint32_t TelemetryCapacity = 1u << 18;

  /// Audit profiler/cache invariants after every profiled run (the
  /// context law reads the btrace recorder's blocks: needs CheckBtrace).
  bool CheckInvariants = true;

  /// Audit the persist layer after every profiled run: capture the VM's
  /// snapshot, encode, decode, re-validate and reinstall it into a fresh
  /// session, asserting the restored BCG + trace-cache digest matches the
  /// donor exactly (checkPersistRoundTrip in Invariants.h).
  bool CheckPersist = true;

  /// Audit that dynamic facts refine the static analysis' may-sets
  /// (Refinement.h): replays the reference run with per-block-leader
  /// checks against a computed ModuleAnalysis.
  bool CheckRefinement = true;

  /// Audit the btrace pipeline after every profiled run: record the
  /// dispatched block sequence, encode it through the compressed branch
  /// tracer, then demand that strict decode reproduces the sequence
  /// exactly, that replay reproduces the stats digest, and that tail
  /// recovery lands on a suffix (checkBtraceRoundTrip in BtraceAudit.h).
  /// Skipped automatically under an injected cache fault (the replay
  /// engine has no fault to mirror).
  bool CheckBtrace = true;

  /// Audit the translation validator against the execution oracle after
  /// every profiled run: re-validate every trace the session built and
  /// flag any rejection, since on a run whose output matched the
  /// reference a rejection is a validator false positive
  /// (checkValidateAudit in ValidateAudit.h). Skipped under an injected
  /// cache fault, like the btrace audit.
  bool CheckValidate = true;

  /// Differential backend axis: re-run every grid point under
  /// --backend=jit (promotion threshold 0, so every dispatched trace is
  /// compiled) and demand the exact observable run back -- status, trap,
  /// instruction count, output, heap, the folded VmStats digest and,
  /// when the btrace audit is on, the byte-identical compressed stream.
  /// This is the interp/JIT equivalence contract of
  /// backend/JitBackend.h, enforced program-by-program. A second JIT
  /// session over the same module, which runs the native code the first
  /// left there, is compared the same way and must count what the first
  /// did. The same grid point then runs on the JIT tier with
  /// --mem-elide=off, so elided native code is compared with unelided
  /// native code, and the module's elided code must not leak into that
  /// session. Skipped on hosts without template-JIT support and under an
  /// injected fault.
  bool CheckBackends = true;

  /// Validation mode for the grid's TraceVM runs. On exercises
  /// promotion-time validation on the JIT-tier runs of every generated
  /// program; Strict turns any rejection into an abort (CI smoke runs
  /// use this).
  ValidateMode Validate = ValidateMode::On;

  /// Injected trace-cache bug, for oracle self-tests (see TraceConfig.h).
  CacheFault Fault = CacheFault::None;
};

/// One disagreement or invariant violation. Engine identifies the run
/// ("threaded", "net", "tracevm[t=0.97 delay=1 decay=32]"); Rule is a
/// stable identifier shared with Invariants.h.
struct OracleFinding {
  std::string Engine;
  std::string Rule;
  std::string Detail;
};

struct OracleResult {
  /// True when every engine agreed and every invariant held.
  bool Ok = true;

  /// True when the reference run exhausted the instruction budget and
  /// the cross-checks were skipped (counts as Ok).
  bool Skipped = false;

  /// Reference (per-instruction interpreter) outcome.
  RunStatus RefStatus = RunStatus::Finished;
  TrapKind RefTrap = TrapKind::None;
  uint64_t RefInstructions = 0;
  std::vector<int64_t> RefOutput;

  std::vector<OracleFinding> Findings;
};

/// Order-sensitive digest of a heap's final state (cell classes, sizes
/// and slot contents). The allocation order of all engines sharing
/// Machine semantics is identical, so equal digests mean equal heaps.
/// Alias for jtc::heapDigest (runtime/Heap.h), kept for fuzz callers.
uint64_t heapDigest(const Heap &H);

/// Runs \p M through every configured engine and cross-checks. \p M must
/// be verifier-valid; an invalid module yields a single "verifier"
/// finding and no runs.
OracleResult runOracle(const Module &M, const OracleConfig &Config);

/// Renders findings one per line for diagnostics.
std::string formatFindings(const std::vector<OracleFinding> &Fs);

} // namespace fuzz
} // namespace jtc

#endif // JTC_FUZZ_ORACLE_H
