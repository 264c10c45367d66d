//===- vm/AdaptiveEngine.cpp ----------------------------------------------===//

#include "vm/AdaptiveEngine.h"

#include "analysis/Analysis.h"
#include "validate/Validator.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace jtc;

AdaptiveEngine::AdaptiveEngine(const PreparedModule &PM,
                               const VmOptions &Options)
    : PM(&PM), Options(&Options), Profiling(Options.profiling()),
      Tracing(Options.profiling() && Options.traces()),
      ProofConfig(Options.optConfig().fingerprint()),
      Graph(Options.profilerConfig()),
      Cache(Graph, Options.traceConfig(),
            [P = &PM](BlockId B) { return P->blockSize(B); }) {
  // Trace construction is driven by profiler signals, so trace dispatch
  // requires profiling.
  if (Tracing) {
    Graph.setSink(&Cache);
    if (Options.validate() != ValidateMode::Off)
      Cache.setValidateHook(
          [this](const Trace &T) { return validateCandidate(T); });
    if (Options.memElide())
      Cache.setAnnotateHook([this](Trace &T) { annotateCandidate(T); });
  }
}

std::vector<analysis::TraceMemFact>
jtc::traceMemFacts(const PreparedModule &PM,
                   const std::vector<BlockId> &Blocks) {
  const analysis::ModuleAnalysis &A = PM.facts();
  std::vector<analysis::TraceBlockSpan> Spans;
  Spans.reserve(Blocks.size());
  for (BlockId B : Blocks) {
    const BasicBlock &BB = PM.block(B);
    Spans.push_back({BB.MethodId, BB.StartPc, BB.EndPc});
  }
  return analysis::analyzeTraceMemory(
      PM.module(),
      [&A](uint32_t MethodId) -> const analysis::MethodValueFacts * {
        const analysis::MethodAnalysis *MA = A.method(MethodId);
        return MA ? &MA->Values : nullptr;
      },
      Spans);
}

std::vector<MemElision>
jtc::toMemElisions(const std::vector<analysis::TraceMemFact> &Facts) {
  std::vector<MemElision> Out;
  Out.reserve(Facts.size());
  for (const analysis::TraceMemFact &F : Facts)
    Out.push_back({F.BlockIndex, F.Pc, F.Elide});
  return Out;
}

TraceCache::ValidationVerdict AdaptiveEngine::validateCandidate(const Trace &T) {
  bool Reused = false;
  analysis::TraceVerdict V = PM->proofs().verdict(
      {T.Blocks, ProofConfig},
      [&] {
        validate::Result R = validate::validateTrace(
            *PM, T, Options->optConfig(), &PM->facts());
        return analysis::TraceVerdict{R.Ok, static_cast<uint32_t>(R.Why),
                                      R.SegmentIndex, std::move(R.Detail)};
      },
      Reused);
  Stats.TraceProofsReused += Reused;
  if (!V.Ok && Options->validate() == ValidateMode::Strict) {
    validate::Result R =
        validate::Result::fail(static_cast<validate::Reason>(V.ReasonCode),
                               V.Detail);
    std::fprintf(stderr,
                 "jtc: --validate=strict: trace %u rejected by translation "
                 "validation: %s (segment %u)\n",
                 T.Id, R.typed().qualifiedMessage().c_str(), V.SegmentIndex);
    std::abort();
  }
  return {V.Ok, V.ReasonCode};
}

void AdaptiveEngine::annotateCandidate(Trace &T) {
  bool Reused = false;
  T.MemElisions = toMemElisions(PM->proofs().memFacts(
      {T.Blocks, ProofConfig}, [&] { return traceMemFacts(*PM, T.Blocks); },
      Reused));
  Stats.TraceProofsReused += Reused;
  Stats.MemElisionSites += T.MemElisions.size();
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
  S.TracesValidated = CS.TracesValidated;
  S.TraceValidationRejects = CS.ValidationRejects;
  S.LiveTraces = Cache.numLiveTraces();
  S.GraphNodes = Graph.numNodes();
  S.GraphArenaBytes = Graph.arenaBytes();
  return S;
}
