//===- vm/TraceVM.h - The trace-dispatching virtual machine -----*- C++ -*-===//
///
/// \file
/// TraceVM glues the three mechanisms of paper section 4 together: the
/// direct-threaded-inlining block interpreter, the branch correlation
/// graph profiler, and the trace cache.
///
/// On every block transition outside a trace the profiler hook runs and
/// the trace cache's entry index is read at the hook's new context node; a
/// hit dispatches the whole trace. While a trace executes, per-block
/// profiler hooks are suppressed (a trace dispatch costs a single
/// profiling statement, paper section 4.1.2) and the actual successors are
/// matched against the trace. A mismatch exits the trace early (a partial
/// execution); completing or leaving a trace moves the profiler context to
/// the last block pair that executed.
///
/// run()'s outer loop steps blocks outside traces, one engine call per
/// block. A dispatched trace runs to the end of its run in one inner step:
/// on the optional native tier (backend/JitBackend.h) when it accepts the
/// trace, otherwise in one BlockStepper::runTrace() call that runs the
/// trace's blocks back to back in the executor's dispatch loop while each
/// successor matches, checking the budget after every block. Both tiers
/// end in the same TraceRunResult, committed to the engine in bulk, and
/// advance the logical clock by the run's block count in one step (block
/// by block only when a sink listens or a phase sample falls inside the
/// run), so nothing downstream can tell the tiers apart.
///
/// The adaptive half of this machinery (profiler, trace cache, active-
/// trace matching, statistics) lives in AdaptiveEngine so it can also be
/// driven by a decoded btrace stream; TraceVM contributes the execution
/// half (Machine + BlockStepper) and feeds the engine the live transition
/// stream. An optional BlockTransitionSink observes that same stream,
/// which is how the btrace encoder captures a session.
///
/// A TraceVM is one *session*: it is configured once through VmOptions,
/// runs once, and is then discarded. Profile state can be carried between
/// sessions over the same PreparedModule with exportSeed()/importSeed()
/// (the server layer's warm handoff).
///
//===----------------------------------------------------------------------===//

#ifndef JTC_VM_TRACEVM_H
#define JTC_VM_TRACEVM_H

#include "backend/JitBackend.h"
#include "interp/BlockStepper.h"
#include "telemetry/EventRing.h"
#include "telemetry/PhaseSampler.h"
#include "vm/AdaptiveEngine.h"
#include "vm/BlockTransitionSink.h"
#include "vm/VmOptions.h"
#include "vm/VmStats.h"

#include <memory>

namespace jtc {

/// One virtual machine instance over a prepared module.
///
/// Single-shot: run() may be called exactly once per instance. A second
/// call executes nothing -- it asserts in checked builds and returns a
/// TrapKind::VmReuse trap in release builds. Construct a fresh TraceVM
/// (optionally seeded from the old one) for another run.
class TraceVM {
public:
  /// \p PM must outlive the VM.
  explicit TraceVM(const PreparedModule &PM, VmOptions Options = VmOptions());

  /// Runs the module's entry method to completion (or trap / instruction
  /// budget) and returns the outcome. See the class comment for the
  /// single-shot contract.
  RunResult run();

  /// Captures the session's profiler counters and live traces for warm
  /// handoff into a fresh session over the same PreparedModule.
  VmSeed exportSeed() const { return Engine.exportSeed(); }

  /// Adopts a donor session's profile: the branch correlation graph is
  /// restored with its decayed counters and the donor's live traces are
  /// installed, dispatchable immediately and without consuming profiler
  /// signals. Must be called before run() on an unseeded session.
  /// Components disabled by the options (profiling / traces) are left
  /// empty.
  void importSeed(const VmSeed &Seed);

  /// Attaches an observer of the full block-transition stream (null
  /// detaches), trace-internal transitions included, in order. Must be
  /// set before run(); the unset case costs one null-pointer branch per
  /// transition.
  void setTransitionSink(BlockTransitionSink *S) { Sink = S; }

  const VmStats &stats() const { return Engine.stats(); }

  /// A complete statistics snapshot at this instant, with the live
  /// profiler and cache counters folded in; usable mid-run (stats() is
  /// only complete after run() returns).
  VmStats currentStats() const;

  /// The telemetry event ring (empty unless Options.telemetry() and
  /// compiled in).
  const EventRing &events() const { return Ring; }

  /// The active ring for instrumentation sites outside the VM (the
  /// persist layer's snapshot events), or null when telemetry is off.
  /// Pass to JTC_RECORD_EVENT, which handles null.
  EventRing *telemetry() { return Telem; }

  /// The phase-sample time series (empty unless Options.sampleInterval()).
  const PhaseSampler<VmStats> &sampler() const { return Sampler; }

  /// The tier that executes dispatched traces, after Auto resolution:
  /// Jit when the session has a native tier, Interp otherwise.
  backend::BackendKind backendTier() const {
    return Jit ? backend::BackendKind::Jit : backend::BackendKind::Interp;
  }

  /// The native tier's accounting, null on the interp tier. Its scalar
  /// counters are folded into currentStats(); the validation rejections
  /// by reason are only here.
  const backend::BackendStats *backendStats() const {
    return Jit ? &Jit->stats() : nullptr;
  }

  const VmOptions &options() const { return Options; }
  const PreparedModule &prepared() const { return *PM; }
  const BranchCorrelationGraph &graph() const { return Engine.graph(); }
  const TraceCache &traceCache() const { return Engine.traceCache(); }
  Machine &machine() { return Mach; }
  const Machine &machine() const { return Mach; }

private:
  /// Runs \p T, which the last transition entered, to the end of its run
  /// on the native tier when it accepts, block-stepped otherwise, and
  /// reports the run's inner transitions to the sink. Blocks up to a phase
  /// sample inside the run are committed there; \p Committed receives how
  /// many. The caller commits the rest together with the run's end.
  TraceRunResult runTrace(const Trace &T, uint32_t &Committed);

  /// The interp tier of runTrace: one BlockStepper::runTrace() over \p T's
  /// blocks, which runs them while each successor matches and the budget
  /// lasts, then classifies how the run ended. A phase sample due inside
  /// the run splits it in two at the sample's block.
  TraceRunResult stepTrace(const Trace &T, uint32_t &Committed);

  /// Trace blocks (\p From, \p To] (counting from 1) of the current run
  /// have executed, on either tier: advances the logical clock
  /// (stats().BlocksExecuted). With no sink and no sample due that is one
  /// addition; otherwise the blocks are reported one by one, each after
  /// the inner transition into it, and a sample falling due commits the
  /// run's blocks so far and is taken.
  void ranTraceBlocks(const Trace &T, uint32_t From, uint32_t To,
                      uint32_t &Committed);

  /// The phase sample due at trace block \p I of the current run.
  void sampleInTrace(uint32_t I, uint32_t &Committed);

  const PreparedModule *PM;
  VmOptions Options;
  Machine Mach;
  BlockStepper Stepper;
  AdaptiveEngine Engine;
  /// The native trace tier; null on the interp tier.
  std::unique_ptr<backend::JitBackend> Jit;

  // Telemetry. Telem is &Ring when enabled, null otherwise -- the null
  // check is the instrumentation sites' only cost when telemetry is off.
  EventRing Ring;
  PhaseSampler<VmStats> Sampler;
  EventRing *Telem = nullptr;

  BlockTransitionSink *Sink = nullptr;
  bool Ran = false;
};

} // namespace jtc

#endif // JTC_VM_TRACEVM_H
