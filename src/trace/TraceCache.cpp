//===- trace/TraceCache.cpp -----------------------------------------------===//

#include "trace/TraceCache.h"

#include "telemetry/EventRing.h"

using namespace jtc;

TraceCache::TraceCache(BranchCorrelationGraph &Graph, TraceConfig Config,
                       std::function<uint32_t(BlockId)> BlockSize)
    : Graph(&Graph), Config(Config), Builder(Graph, Config),
      BlockSize(std::move(BlockSize)) {}

uint64_t TraceCache::contentHash(BlockId EntryFrom,
                                 const std::vector<BlockId> &Blocks) {
  // FNV-1a over the entry predecessor and the block sequence.
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint32_t V) {
    for (int Shift = 0; Shift < 32; Shift += 8) {
      H ^= (V >> Shift) & 0xff;
      H *= 1099511628211ull;
    }
  };
  Mix(EntryFrom);
  for (BlockId B : Blocks)
    Mix(B);
  return H;
}

void TraceCache::onStateChange(NodeId Id) {
  bumpGeneration();
  ++Stats.SignalsHandled;
  TraceBuilder::BuildResult R = Builder.build(Id);
  FreshEntryKeys.clear();
  FreshIds.clear();
  for (const TraceCandidate &C : R.Candidates)
    install(C);

  // Paper step 3: "the new traces are compared to those in the cache and
  // all newly discovered trace cache entries are reconstructed". A live
  // trace whose entry pair occurs as an *interior* transition of a trace
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
    for (size_t I = 0; I + 1 < T.Blocks.size(); ++I) {
      uint64_t Key = pairKey(T.Blocks[I], T.Blocks[I + 1]);
      if (FreshEntryKeys.count(Key))
        continue;
      auto It = EntryMap.find(Key);
      if (It == EntryMap.end() || It->second == Fresh)
        continue;
      JTC_RECORD_EVENT(Telem, EventKind::TraceInvalidated, It->second, Fresh);
      Traces[It->second].Alive = false;
      // Injected bug (fuzzer self-test): leave the stale entry key behind,
      // so findTrace() keeps returning the dead fragment.
      if (Config.Fault != CacheFault::SkipInvalidation)
        EntryMap.erase(It);
      ++Stats.TracesInvalidated;
    }
  }

  // Mark everything examined as up to date so this rebuild does not
  // trigger further signals for the same region (paper section 4.2).
  for (NodeId N : R.Visited)
    Graph->acknowledge(N);
  Graph->acknowledge(Id);
}

void TraceCache::install(const TraceCandidate &C) {
  ++Stats.CandidatesSeen;
  assert(C.Blocks.size() >= 2 && "builder produced a degenerate trace");

  uint64_t EntryKey = pairKey(C.EntryFrom, C.Blocks[0]);
  uint64_t Hash = contentHash(C.EntryFrom, C.Blocks);

  // Hash-consing: an identical live trace is reused, re-pointing the
  // entry at it if needed.
  auto ContentIt = ByContent.find(Hash);
  if (ContentIt != ByContent.end()) {
    for (TraceId Id : ContentIt->second) {
      Trace &T = Traces[Id];
      if (!T.Alive || T.EntryFrom != C.EntryFrom || T.Blocks != C.Blocks)
        continue;
      auto [It, Inserted] = EntryMap.try_emplace(EntryKey, Id);
      if (!Inserted && It->second != Id) {
        JTC_RECORD_EVENT(Telem, EventKind::TraceReplaced, It->second, Id);
        Traces[It->second].Alive = false;
        ++Stats.TracesReplaced;
        It->second = Id;
      }
      T.Alive = true;
      ++Stats.TracesReused;
      JTC_RECORD_EVENT(Telem, EventKind::TraceReused, Id,
                       static_cast<uint32_t>(T.Blocks.size()));
      FreshEntryKeys.insert(EntryKey);
      FreshIds.push_back(Id);
      return;
    }
  }

  Trace T;
  T.Id = static_cast<TraceId>(Traces.size());
  T.EntryFrom = C.EntryFrom;
  T.Blocks = C.Blocks;
  T.ExpectedCompletion = C.Completion;
  if (BlockSize)
    for (BlockId B : T.Blocks)
      T.InstrCount += BlockSize(B);

  auto [It, Inserted] = EntryMap.try_emplace(EntryKey, T.Id);
  if (!Inserted) {
    JTC_RECORD_EVENT(Telem, EventKind::TraceReplaced, It->second, T.Id);
    Traces[It->second].Alive = false;
    ++Stats.TracesReplaced;
    It->second = T.Id;
  }
  ByContent[Hash].push_back(T.Id);
  FreshEntryKeys.insert(EntryKey);
  FreshIds.push_back(T.Id);
  JTC_RECORD_EVENT(Telem, EventKind::TraceConstructed, T.Id,
                   static_cast<uint32_t>(T.Blocks.size()));
  applyValidation(T);
  Traces.push_back(std::move(T));
  ++Stats.TracesConstructed;
}

void TraceCache::applyValidation(Trace &T) {
  if (Validate) {
    ValidationVerdict V = Validate(T);
    ++Stats.TracesValidated;
    if (V.Accepted) {
      T.Validation = TraceValidation::Accepted;
      JTC_RECORD_EVENT(Telem, EventKind::TraceValidated, T.Id,
                       static_cast<uint32_t>(T.Blocks.size()));
    } else {
      // Sound fallback: the trace stays dispatchable (dispatch interprets
      // the unoptimized block sequence), but the optimized form is
      // poisoned.
      T.Validation = TraceValidation::Rejected;
      ++Stats.ValidationRejects;
      ++Stats.RejectsByReason[V.ReasonCode];
      JTC_RECORD_EVENT(Telem, EventKind::TraceValidationRejected, T.Id,
                       V.ReasonCode);
    }
  }
  if (Annotate && T.Validation != TraceValidation::Rejected)
    Annotate(T);
}

void TraceCache::recordExecution(TraceId Id, bool CompletedRun) {
  bumpGeneration();
  assert(Id < Traces.size() && "unknown trace");
  {
    Trace &T = Traces[Id];
    ++T.Entered;
    if (CompletedRun)
      ++T.Completed;
    if (!T.Alive || T.Entered % Config.RetirementCheckEntries != 0)
      return;
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
    auto It = EntryMap.find(pairKey(T.EntryFrom, T.Blocks[0]));
    if (It != EntryMap.end() && It->second == Id)
      EntryMap.erase(It);
    ++Stats.TracesRetired;
  }
  // Note: T is dead above before rebuilding -- onStateChange may grow the
  // trace table and invalidate references.
  NodeId Entry =
      Graph->findNode(Traces[Id].EntryFrom, Traces[Id].Blocks[0]);
  if (Entry != InvalidNodeId)
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
    uint64_t EntryKey = pairKey(S.EntryFrom, S.Blocks[0]);
    Trace T;
    T.Id = static_cast<TraceId>(Traces.size());
    T.EntryFrom = S.EntryFrom;
    T.Blocks = S.Blocks;
    T.ExpectedCompletion = S.ExpectedCompletion;
    if (BlockSize)
      for (BlockId B : T.Blocks)
        T.InstrCount += BlockSize(B);
    // Live traces have unique entry pairs, so a colliding seed means the
    // donor list itself is malformed; keep the first and drop the rest.
    auto [It, Inserted] = EntryMap.try_emplace(EntryKey, T.Id);
    (void)It;
    if (!Inserted)
      continue;
    ByContent[contentHash(T.EntryFrom, T.Blocks)].push_back(T.Id);
    applyValidation(T);
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
