//===- trace/TraceCache.cpp -----------------------------------------------===//

#include "trace/TraceCache.h"

#include "telemetry/EventRing.h"

#include <algorithm>

using namespace jtc;

TraceCache::TraceCache(BranchCorrelationGraph &Graph, TraceConfig Config,
                       std::function<uint32_t(BlockId)> BlockSize)
    : Graph(&Graph), Config(Config), Builder(Graph, Config),
      BlockSize(std::move(BlockSize)) {}

void TraceCache::onStateChange(NodeId Id) {
  bumpGeneration();
  ++Stats.SignalsHandled;
  TraceBuilder::BuildResult R = Builder.build(Id);
  FreshIds.clear();
  for (const TraceCandidate &C : R.Candidates)
    install(C);

  // Paper step 3: "the new traces are compared to those in the cache and
  // all newly discovered trace cache entries are reconstructed". A live
  // trace whose entry context occurs as an *interior* context of a trace
  // just installed is a stale fragment of the new structure -- typically
  // a one-iteration loop trace built before the whole loop was warm,
  // whose self-chaining entry would otherwise capture dispatch forever.
  // Retire those; the fresh trace covers the flow at its own entry. The
  // rule applies only when the fresh trace is *cyclic* (completing it
  // re-enters its own entry, so it captures the whole loop's flow); an
  // acyclic fresh trace -- a straight-line join executed once per region
  // entry -- must not retire anything, because an orbit trace keyed
  // inside it recurs far more often than the join does.
  for (TraceId Fresh : FreshIds) {
    const Trace &T = Traces[Fresh];
    if (T.EntryFrom != T.Blocks.back())
      continue;
    for (size_t K = 1; K < T.Contexts.size(); ++K) {
      const Trace *Stale = entryAt(T.Contexts[K]);
      if (!Stale || std::find(FreshIds.begin(), FreshIds.end(), Stale->Id) !=
                        FreshIds.end())
        continue;
      JTC_RECORD_EVENT(Telem, EventKind::TraceInvalidated, Stale->Id, Fresh);
      Traces[Stale->Id].Alive = false;
      // Injected bug (fuzzer self-test): leave the stale entry behind, so
      // entryAt() keeps returning the dead fragment.
      if (Config.Fault != CacheFault::SkipInvalidation)
        EntryByNode[T.Contexts[K]] = InvalidTraceId;
      ++Stats.TracesInvalidated;
    }
  }

  // Mark everything examined as up to date so this rebuild does not
  // trigger further signals for the same region (paper section 4.2).
  for (NodeId N : R.Visited)
    Graph->acknowledge(N);
  Graph->acknowledge(Id);
}

void TraceCache::setEntry(NodeId Context, TraceId Id) {
  if (Context >= EntryByNode.size())
    EntryByNode.resize(Context + 1, InvalidTraceId);
  TraceId &Slot = EntryByNode[Context];
  if (Slot != InvalidTraceId && Slot != Id) {
    JTC_RECORD_EVENT(Telem, EventKind::TraceReplaced, Slot, Id);
    Traces[Slot].Alive = false;
    ++Stats.TracesReplaced;
  }
  Slot = Id;
}

void TraceCache::install(const TraceCandidate &C) {
  ++Stats.CandidatesSeen;
  assert(C.Contexts.size() >= 2 && "builder produced a degenerate trace");

  // Hash-consing: live traces have unique entry contexts, so an
  // identical live trace can only be the one entered at this candidate's.
  const NodeId Entry = C.Contexts[0];
  if (const Trace *Cur = entryAt(Entry);
      Cur && Cur->Alive && Cur->Contexts == C.Contexts) {
    ++Stats.TracesReused;
    JTC_RECORD_EVENT(Telem, EventKind::TraceReused, Cur->Id,
                     static_cast<uint32_t>(Cur->Blocks.size()));
    FreshIds.push_back(Cur->Id);
    return;
  }

  Trace T;
  T.Id = static_cast<TraceId>(Traces.size());
  T.EntryFrom = Graph->node(Entry).from();
  T.Contexts = C.Contexts;
  for (NodeId N : T.Contexts)
    T.Blocks.push_back(Graph->node(N).to());
  T.ExpectedCompletion = C.Completion;
  T.UntilRetirementCheck = Config.RetirementCheckEntries;
  if (BlockSize)
    for (BlockId B : T.Blocks)
      T.InstrCount += BlockSize(B);

  setEntry(Entry, T.Id);
  FreshIds.push_back(T.Id);
  JTC_RECORD_EVENT(Telem, EventKind::TraceConstructed, T.Id,
                   static_cast<uint32_t>(T.Blocks.size()));
  Traces.push_back(std::move(T));
  ++Stats.TracesConstructed;
}

void TraceCache::checkRetirement(TraceId Id) {
  Trace &T = Traces[Id];
  if (T.observedCompletion() + Config.RetirementMargin >=
      Config.CompletionThreshold)
    return;
  // Injected bug (fuzzer self-test): the under-performer survives the
  // evaluation pass it should have been retired by.
  if (Config.Fault == CacheFault::SkipRetirement)
    return;
  // The trace persistently under-performs its design threshold: it was
  // built from counters that had not yet seen the branch's real
  // behaviour. Retire it and rebuild the region from today's data.
  JTC_RECORD_EVENT(Telem, EventKind::TraceRetired, Id,
                   static_cast<uint32_t>(T.observedCompletion() * 10000));
  T.Alive = false;
  const NodeId Entry = T.Contexts[0];
  if (EntryByNode[Entry] == Id)
    EntryByNode[Entry] = InvalidTraceId;
  ++Stats.TracesRetired;
  // T dangles from here: the rebuild may grow the trace table.
  onStateChange(Entry);
}

std::vector<TraceCache::TraceSeed> TraceCache::exportLiveTraces() const {
  std::vector<TraceSeed> Out;
  for (const Trace &T : Traces) {
    if (!T.Alive)
      continue;
    TraceSeed S;
    S.EntryFrom = T.EntryFrom;
    S.Blocks = T.Blocks;
    S.ExpectedCompletion = T.ExpectedCompletion;
    S.Entered = T.Entered;
    S.Completed = T.Completed;
    Out.push_back(std::move(S));
  }
  return Out;
}

void TraceCache::seedTraces(const std::vector<TraceSeed> &Seeds) {
  bumpGeneration();
  assert(Traces.empty() && "seedTraces requires a fresh cache");
  for (const TraceSeed &S : Seeds) {
    assert(S.Blocks.size() >= 2 && "degenerate seeded trace");
    Trace T;
    T.Id = static_cast<TraceId>(Traces.size());
    T.EntryFrom = S.EntryFrom;
    T.Blocks = S.Blocks;
    T.ExpectedCompletion = S.ExpectedCompletion;
    T.UntilRetirementCheck = Config.RetirementCheckEntries;
    // Resolve the seed's branch contexts once, here, so dispatch never
    // looks a block pair up.
    for (size_t K = 0; K < S.Blocks.size(); ++K)
      T.Contexts.push_back(
          Graph->findNode(K ? S.Blocks[K - 1] : S.EntryFrom, S.Blocks[K]));
    bool Resolved = std::find(T.Contexts.begin(), T.Contexts.end(),
                              InvalidNodeId) == T.Contexts.end();
    assert(Resolved && "seeded trace names a block pair with no BCG node");
    // Live traces have unique entry contexts, so a colliding seed means
    // the donor list itself is malformed; keep the first, drop the rest.
    if (!Resolved || entryAt(T.Contexts[0]))
      continue;
    if (BlockSize)
      for (BlockId B : T.Blocks)
        T.InstrCount += BlockSize(B);
    setEntry(T.Contexts[0], T.Id);
    Traces.push_back(std::move(T));
    ++Stats.TracesSeeded;
  }
}

size_t TraceCache::numLiveTraces() const {
  size_t N = 0;
  for (const Trace &T : Traces)
    if (T.Alive)
      ++N;
  return N;
}

void TraceCache::dump(std::ostream &OS) const {
  OS << "trace cache: " << numLiveTraces() << " live traces ("
     << Traces.size() << " ever built)\n";
  for (const Trace &T : Traces) {
    if (!T.Alive)
      continue;
    OS << "  trace " << T.Id << ": entry (" << T.EntryFrom << " -> "
       << T.Blocks[0] << ") blocks [";
    for (size_t I = 0; I < T.Blocks.size(); ++I)
      OS << (I ? " " : "") << T.Blocks[I];
    OS << "] completion=" << T.ExpectedCompletion
       << " instrs=" << T.InstrCount << "\n";
  }
}
