//===- vm/AdaptiveEngine.h - The adaptive state machine ---------*- C++ -*-===//
///
/// \file
/// The profiler + trace-cache state machine of TraceVM, factored out of
/// the execution loop so it can be driven by *any* source of block
/// transitions: the live BlockStepper (TraceVM::run) or a decoded btrace
/// stream (btrace replay). The two produce the same results, not the
/// same call sequence. Btrace replay is the per-block reference:
/// begin(entry), then executed(block) / transition(from, to) for every
/// block, then endRun(). TraceVM makes those calls for blocks outside
/// traces, but commits each dispatched trace's whole run at once
/// (commitRun, split by executedInTrace where a phase sample falls inside
/// it), which changes exactly the state the per-block calls for the same
/// blocks would. So a replayed session recomputes bit-identical profiler,
/// trace-cache and VmStats state from nothing but the recorded control
/// flow. That determinism is what makes a captured production stream a
/// reproducible benchmark.
///
/// The engine owns everything adaptive (branch correlation graph, trace
/// cache, statistics, active-trace tracking); it knows nothing about the
/// Machine, the Stepper, or instruction execution.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_VM_ADAPTIVEENGINE_H
#define JTC_VM_ADAPTIVEENGINE_H

#include "interp/PreparedModule.h"
#include "profile/BranchCorrelationGraph.h"
#include "telemetry/EventRing.h"
#include "trace/TraceCache.h"
#include "vm/BlockTransitionSink.h"
#include "vm/VmOptions.h"
#include "vm/VmStats.h"

namespace jtc {

/// Portable profiler + trace-cache state captured from a mature session
/// (the donor) and imported into a fresh session over the same
/// PreparedModule, so the new session skips the start-state delay and the
/// trace-construction warmup the paper measures. Block ids are module-
/// relative, so a seed is only meaningful for an identically prepared
/// module.
struct VmSeed {
  std::vector<BcgNodeSnapshot> Nodes;
  std::vector<TraceCache::TraceSeed> Traces;

  bool empty() const { return Nodes.empty() && Traces.empty(); }
};

/// The adaptive half of one VM session, driven by a block-transition
/// stream. See the file comment for the driver contract.
class AdaptiveEngine {
public:
  /// \p PM and \p Options must outlive the engine.
  AdaptiveEngine(const PreparedModule &PM, const VmOptions &Options);

  // Pinned: the graph and cache point at each other.
  AdaptiveEngine(const AdaptiveEngine &) = delete;
  AdaptiveEngine &operator=(const AdaptiveEngine &) = delete;

  /// Attaches the telemetry ring (propagated to the profiler and cache);
  /// null detaches.
  void setTelemetry(EventRing *R);

  /// The entry block is about to execute: the initial block dispatch.
  void begin(BlockId Entry);

  /// \p Cur was just executed: trace accounting and completion detection.
  void executed(BlockId Cur) {
    ++Stats.BlocksExecuted;
    if (Active)
      executedInActive(Cur);
  }

  /// Control passed from \p Cur to \p Next: match against the active
  /// trace, or run the profiler hook (a divergence from the active trace
  /// only moves the context) and then the trace-entry lookup. Returns the
  /// trace this transition entered, or null. The pointer is owned by the
  /// trace cache and stays valid until the run's commit leaves the trace.
  const Trace *transition(BlockId Cur, BlockId Next) {
    if (Active) {
      if (Next == Active->Blocks[TracePos + 1]) {
        ++TracePos; // matched; stay inside the trace, no hook, no dispatch
        return nullptr;
      }
      diverge(Next);
    } else if (Profiling) {
      // The hook runs first: it may emit signals that build (or rebuild)
      // a trace starting exactly at this transition, which the entry
      // lookup below will then see.
      Graph.onBlockDispatch(Next);
    }
    return dispatch(Cur, Next);
  }

  /// Blocks [\p From, \p To) of the active trace ran, each after a
  /// matching transition: the bulk form of the executed() / transition()
  /// calls for them, without the last block's outgoing transition, except
  /// that the caller advances the logical clock (stats().BlocksExecuted)
  /// itself as each block runs, so telemetry stamped inside the run reads
  /// the exact clock. Running the trace's last block completes it. A run
  /// is committed in order, in chunks; \p From is 0 or the previous
  /// chunk's \p To.
  void executedInTrace(uint32_t From, uint32_t To);

  /// Commits the run \p Run of the active trace, whose blocks before
  /// \p From are already committed: the remaining blocks in bulk, then
  /// the run's end -- endRun() when it ended the session, otherwise the
  /// transition to Run.NextBlock (completion or divergence, then the
  /// entry lookup), reported to \p Sink when set between the two as the
  /// per-block order has it. Returns the trace the transition entered, or
  /// null.
  const Trace *commitRun(const TraceRunResult &Run, uint32_t From,
                         BlockTransitionSink *Sink) {
    if (Run.End != TraceRunEnd::Completed || From != 0)
      return commitPartialRun(Run, From, Sink);
    // The common case: the whole trace ran, none of it committed yet.
    Stats.BlocksInTraces += Active->Blocks.size();
    Stats.InstructionsInTraces += Active->InstrCount;
    leaveTrace(/*Completed=*/true);
    if (Sink)
      Sink->onTransition(Run.LastBlock, Run.NextBlock);
    return transition(Run.LastBlock, Run.NextBlock);
  }

  /// The run ended (finish, trap or budget); an active trace is exited
  /// early.
  void endRun();

  /// The statistics with the live profiler and cache counters folded in;
  /// \p Instructions is supplied by the driver (the stepper's count, or
  /// the recorded count during replay).
  VmStats snapshotStats(uint64_t Instructions) const;

  /// Captures the session's profiler counters and live traces for warm
  /// handoff into a fresh session over the same PreparedModule.
  VmSeed exportSeed() const;

  /// Adopts a donor session's profile (see TraceVM::importSeed).
  void importSeed(const VmSeed &Seed);

  VmStats &stats() { return Stats; }
  const VmStats &stats() const { return Stats; }

  const BranchCorrelationGraph &graph() const { return Graph; }
  const TraceCache &traceCache() const { return Cache; }

private:
  /// Leaves trace mode, recording the active trace's run as completed or
  /// as an early exit after blocks 0..TracePos.
  void leaveTrace(bool Completed) {
    if (Completed) {
      ++Stats.TracesCompleted;
      Stats.BlocksInCompletedTraces += Active->Blocks.size();
      Stats.InstructionsInCompletedTraces += Active->InstrCount;
      JTC_RECORD_EVENT(Telem, EventKind::TraceCompleted, Active->Id,
                       static_cast<uint32_t>(Active->Blocks.size()));
      // The inlined blocks carried no profiling hooks; resynchronize the
      // context to the trace's final block pair.
      Graph.setContext(Active->Contexts.back());
    } else {
      JTC_RECORD_EVENT(Telem, EventKind::TraceEarlyExit, Active->Id,
                       TracePos + 1);
    }
    TraceId Id = Active->Id;
    Active = nullptr;
    TracePos = 0;
    // After Active is cleared: the bookkeeping may retire the trace and
    // rebuild its region, which can reallocate the trace table.
    Cache.recordExecution(Id, Completed);
  }

  /// The context is now N(Cur, Next) after a transition outside a trace:
  /// enters the trace hanging off it, if any, or counts a block dispatch.
  const Trace *dispatch([[maybe_unused]] BlockId Cur,
                        [[maybe_unused]] BlockId Next) {
    assert((!Profiling ||
            (Graph.node(Graph.currentContext()).from() == Cur &&
             Graph.node(Graph.currentContext()).to() == Next)) &&
           "the context must be N(Cur, Next) after a non-trace transition");
    if (Tracing) {
      if (const Trace *T = Cache.entryAt(Graph.currentContext())) {
        Active = T;
        TracePos = 0;
        ++Stats.TraceDispatches;
        JTC_RECORD_EVENT(Telem, EventKind::TraceDispatched, T->Id);
        return T;
      }
    }
    ++Stats.BlockDispatches;
    return nullptr;
  }

  /// executed() of a block inside the active trace.
  void executedInActive(BlockId Cur);

  /// transition() that diverges from the active trace: moves the context
  /// to N(Cur, Next) without counting it and leaves the trace early.
  void diverge(BlockId Next);

  /// commitRun() of a run that did not complete its trace, or whose
  /// first blocks a phase sample already committed.
  const Trace *commitPartialRun(const TraceRunResult &Run, uint32_t From,
                                BlockTransitionSink *Sink);

  const PreparedModule *PM;
  const VmOptions *Options;
  const bool Profiling; ///< Options->profiling(): the hook runs.
  const bool Tracing;   ///< Profiling and traces: entries are looked up.
  BranchCorrelationGraph Graph;
  TraceCache Cache;
  VmStats Stats;
  EventRing *Telem = nullptr;

  // Active-trace state.
  const Trace *Active = nullptr;
  uint32_t TracePos = 0; ///< Index in Active->Blocks of the current block.
};

} // namespace jtc

#endif // JTC_VM_ADAPTIVEENGINE_H
