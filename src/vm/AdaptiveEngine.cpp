//===- vm/AdaptiveEngine.cpp ----------------------------------------------===//

#include "vm/AdaptiveEngine.h"

#include <cassert>

using namespace jtc;

AdaptiveEngine::AdaptiveEngine(const PreparedModule &PM,
                               const VmOptions &Options)
    : PM(&PM), Options(&Options), Profiling(Options.profiling()),
      Tracing(Options.profiling() && Options.traces()),
      Graph(Options.profilerConfig()),
      Cache(Graph, Options.traceConfig(),
            [P = &PM](BlockId B) { return P->blockSize(B); }) {
  // Trace construction is driven by profiler signals, so trace dispatch
  // requires profiling.
  if (Tracing)
    Graph.setSink(&Cache);
}

void AdaptiveEngine::setTelemetry(EventRing *R) {
  Telem = R;
  Graph.setTelemetry(R);
  Cache.setTelemetry(R);
}

VmSeed AdaptiveEngine::exportSeed() const {
  VmSeed S;
  S.Nodes = Graph.exportNodes();
  S.Traces = Cache.exportLiveTraces();
  return S;
}

void AdaptiveEngine::importSeed(const VmSeed &Seed) {
  if (!Options->profiling())
    return;
  Graph.importNodes(Seed.Nodes);
  if (Options->traces())
    Cache.seedTraces(Seed.Traces);
}

void AdaptiveEngine::begin(BlockId Entry) {
  // The entry block is an ordinary block dispatch.
  ++Stats.BlockDispatches;
  if (Profiling)
    Graph.onBlockDispatch(Entry);
}

void AdaptiveEngine::executedInActive(BlockId Cur) {
  ++Stats.BlocksInTraces;
  Stats.InstructionsInTraces += PM->blockSize(Cur);
  if (TracePos + 1 == Active->Blocks.size())
    leaveTrace(/*Completed=*/true); // the trace's last block just ran
}

void AdaptiveEngine::executedInTrace(uint32_t From, uint32_t To) {
  assert(Active && From < To && To <= Active->Blocks.size() &&
         "a chunk of the active trace's blocks");
  assert(TracePos == (From ? From - 1 : 0) && "chunks commit in order");
  // The caller advanced the clock (BlocksExecuted) as the blocks ran.
  Stats.BlocksInTraces += To - From;
  if (From == 0 && To == Active->Blocks.size()) {
    Stats.InstructionsInTraces += Active->InstrCount;
  } else {
    for (uint32_t I = From; I < To; ++I)
      Stats.InstructionsInTraces += PM->blockSize(Active->Blocks[I]);
  }
  // The matching transitions in between only advance the position; it
  // ends on the last block run, as after executed() of that block.
  TracePos = To - 1;
  if (To == Active->Blocks.size())
    leaveTrace(/*Completed=*/true); // the trace's last block just ran
}

const Trace *AdaptiveEngine::commitPartialRun(const TraceRunResult &Run,
                                              uint32_t From,
                                              BlockTransitionSink *Sink) {
  if (From < Run.BlocksRun)
    executedInTrace(From, Run.BlocksRun);
  if (Run.endsSession()) {
    endRun();
    return nullptr;
  }
  if (Sink)
    Sink->onTransition(Run.LastBlock, Run.NextBlock);
  return transition(Run.LastBlock, Run.NextBlock);
}

void AdaptiveEngine::diverge(BlockId Next) {
  // While a trace is stable its interior transitions carry no hooks, so
  // the common outcomes of its branches are invisible to the profiler;
  // counting the rare divergent outcome would skew interior correlations
  // toward it and make later rebuilds fragment perfectly good traces. So
  // the transition is not counted, but the context still follows it to
  // N(Cur, Next): the next hooked transition records its successor under
  // the pair that really ran.
  Graph.moveContext(Active->Contexts[TracePos], Next);
  leaveTrace(/*Completed=*/false);
}

void AdaptiveEngine::endRun() {
  if (Active)
    leaveTrace(/*Completed=*/false);
  // A finished graph holds no deferred hits: reading it mutates nothing.
  Graph.foldAll();
}

VmStats AdaptiveEngine::snapshotStats(uint64_t Instructions) const {
  VmStats S = Stats;
  S.Instructions = Instructions;
  const BranchCorrelationGraph::GraphStats &GS = Graph.stats();
  S.Hooks = GS.Hooks;
  S.InlineCacheHits = GS.InlineCacheHits;
  S.DecayPasses = GS.DecayPasses;
  S.Signals = GS.Signals;
  const TraceCache::CacheStats &CS = Cache.stats();
  S.TracesConstructed = CS.TracesConstructed;
  S.TracesReused = CS.TracesReused;
  S.TracesReplaced = CS.TracesReplaced;
  S.TracesRetired = CS.TracesRetired;
  S.TracesSeeded = CS.TracesSeeded;
  S.LiveTraces = Cache.numLiveTraces();
  S.GraphNodes = Graph.numNodes();
  S.GraphArenaBytes = Graph.arenaBytes();
  return S;
}
