//===- trace/TraceCache.h - The trace cache ---------------------*- C++ -*-===//
///
/// \file
/// The trace cache of paper section 4.2. It listens for profiler
/// state-change signals, runs the TraceBuilder over the affected region,
/// and installs the resulting traces. A trace's entry point is a branch
/// context, the BCG node of its entry pair, and live traces are indexed by
/// node id in a flat table (the paper's "trace cache hash table"): the
/// per-dispatch entry lookup is one load off the node the profiler hook
/// just resolved. A rebuilt trace identical to the live one at its entry
/// is reused; a different one replaces (kills) it.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_TRACE_TRACECACHE_H
#define JTC_TRACE_TRACECACHE_H

#include "profile/BranchCorrelationGraph.h"
#include "trace/Trace.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceConfig.h"

#include <cassert>
#include <functional>
#include <ostream>
#include <vector>

namespace jtc {

class TraceCache : public SignalSink {
public:
  /// \p BlockSize, when provided, maps a block id to its instruction
  /// count so traces can carry their total instruction size (used by the
  /// coverage metrics). \p Graph is non-const: handled signals are
  /// acknowledged back into it. The caller must also register the cache
  /// as the graph's sink: Graph.setSink(&Cache).
  TraceCache(BranchCorrelationGraph &Graph, TraceConfig Config,
             std::function<uint32_t(BlockId)> BlockSize = {});

  /// SignalSink: rebuild the traces affected by \p Id's state change.
  void onStateChange(NodeId Id) override;

  /// Attaches the telemetry event ring; trace construction, reuse,
  /// replacement, invalidation and retirement are recorded into it. Null
  /// (the default) disables recording.
  void setTelemetry(EventRing *R) { Telem = R; }

  /// Trace entered at branch context \p Context, or null (also for
  /// InvalidNodeId). This is the per-dispatch lookup the interpreter
  /// performs on the profiler's current context.
  const Trace *entryAt(NodeId Context) const {
    TraceId Id = Context < EntryByNode.size() ? EntryByNode[Context]
                                              : InvalidTraceId;
    return Id == InvalidTraceId ? nullptr : &Traces[Id];
  }

  /// Records one execution of trace \p Id (\p CompletedRun: it ran to
  /// completion). Periodically compares the observed completion rate
  /// against the threshold and retires persistent under-performers,
  /// immediately rebuilding their region from current profile data. May
  /// invalidate Trace pointers (rebuilds can grow the trace table).
  void recordExecution(TraceId Id, bool CompletedRun) {
    bumpGeneration();
    assert(Id < Traces.size() && "unknown trace");
    Trace &T = Traces[Id];
    ++T.Entered;
    if (CompletedRun)
      ++T.Completed;
    if (--T.UntilRetirementCheck == 0) {
      T.UntilRetirementCheck = Config.RetirementCheckEntries;
      if (T.Alive)
        checkRetirement(Id);
    }
  }

  struct CacheStats {
    uint64_t SignalsHandled = 0;
    uint64_t TracesConstructed = 0; ///< New traces materialized.
    uint64_t TracesReused = 0;      ///< Candidates matching a cached trace.
    uint64_t TracesReplaced = 0;    ///< Old traces killed by installs.
    uint64_t TracesInvalidated = 0; ///< Stale fragments retired by rebuilds.
    uint64_t TracesRetired = 0;     ///< Killed for poor observed completion.
    uint64_t TracesSeeded = 0;      ///< Installed from a donor snapshot.
    uint64_t CandidatesSeen = 0;
  };

  /// One live trace in portable form, captured by exportLiveTraces() and
  /// installed into a fresh cache by seedTraces() (the server layer's
  /// warm handoff).
  struct TraceSeed {
    BlockId EntryFrom = InvalidBlockId;
    std::vector<BlockId> Blocks;
    double ExpectedCompletion = 1.0;
    /// Donor-side execution history (entries / completed runs). seedTraces
    /// deliberately does NOT install it -- a seeded trace is judged by this
    /// session's behaviour alone -- but the persist layer uses it as a
    /// load-time filter: a donor trace whose observed completion had
    /// already fallen below the retirement bar is not worth re-installing.
    uint64_t Entered = 0;
    uint64_t Completed = 0;
  };

  /// Captures every live (dispatchable) trace.
  std::vector<TraceSeed> exportLiveTraces() const;

  /// Installs donor traces into this cache, which must be fresh (no
  /// traces) over a graph holding a node for every seed block pair (as
  /// the donor's own nodes do). Seeded traces are dispatchable
  /// immediately -- no profiler signal is consumed or emitted -- and are
  /// counted under CacheStats::TracesSeeded, not TracesConstructed. Their
  /// execution history starts at zero, so observed-completion retirement
  /// judges them against this session's behaviour alone.
  void seedTraces(const std::vector<TraceSeed> &Seeds);

  const CacheStats &stats() const { return Stats; }

  /// Mutation generation: advances on every call that may change or
  /// reallocate the trace table (signal handling, execution bookkeeping,
  /// seeding). Callers holding a Trace pointer across other work assert it
  /// unchanged to prove the pointer still valid. Counted in checked builds
  /// only; always 0 under NDEBUG.
  uint64_t generation() const {
#ifndef NDEBUG
    return Generation;
#else
    return 0;
#endif
  }

  /// Live (dispatchable) traces.
  size_t numLiveTraces() const;

  /// Every trace ever constructed, including replaced ones.
  const std::vector<Trace> &traces() const { return Traces; }

  /// Dumps live traces with their entries and completion estimates.
  void dump(std::ostream &OS) const;

private:
  /// The periodic completion check of recordExecution: retires live
  /// trace \p Id and rebuilds its region if it under-performs.
  void checkRetirement(TraceId Id);
  void install(const TraceCandidate &C);
  /// Points entry \p Context at trace \p Id, killing (as replaced) any
  /// other trace that held it.
  void setEntry(NodeId Context, TraceId Id);
  void bumpGeneration() {
#ifndef NDEBUG
    ++Generation;
#endif
  }

  BranchCorrelationGraph *Graph;
  TraceConfig Config;
  TraceBuilder Builder;
  EventRing *Telem = nullptr;
  std::function<uint32_t(BlockId)> BlockSize;
  std::vector<Trace> Traces;
  /// Entry node id -> live trace id (InvalidTraceId when none); grown on
  /// demand as traces are installed at newer nodes.
  std::vector<TraceId> EntryByNode;
  /// Trace ids installed or reused by the in-progress rebuild; traces
  /// entered at interior contexts of a fresh trace (and not themselves
  /// fresh) are retired as stale fragments.
  std::vector<TraceId> FreshIds;
  CacheStats Stats;
#ifndef NDEBUG
  uint64_t Generation = 0;
#endif
};

} // namespace jtc

#endif // JTC_TRACE_TRACECACHE_H
