//===- profile/BranchCorrelationGraph.cpp ---------------------------------===//

#include "profile/BranchCorrelationGraph.h"

#include "telemetry/EventRing.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

using namespace jtc;

SignalSink::~SignalSink() = default;

const char *jtc::nodeStateName(NodeState S) {
  switch (S) {
  case NodeState::NewlyCreated:
    return "newly-created";
  case NodeState::WeaklyCorrelated:
    return "weakly-correlated";
  case NodeState::StronglyCorrelated:
    return "strongly-correlated";
  case NodeState::Unique:
    return "unique";
  }
  return "unknown";
}

double BranchNode::probabilityOf(BlockId Succ) const {
  if (Total == 0)
    return 0.0;
  for (const Correlation &C : correlations())
    if (C.Succ == Succ)
      return static_cast<double>(C.Count.value()) / Total;
  return 0.0;
}

//===----------------------------------------------------------------------===//
// ListArena
//===----------------------------------------------------------------------===//

void *ListArena::take(size_t Bytes, unsigned Class) {
  if (void *P = Free[Class]) {
    std::memcpy(&Free[Class], P, sizeof(void *));
    return P;
  }
  if (Bytes > ChunkBytes / 4) {
    Chunks.push_back(std::make_unique_for_overwrite<std::byte[]>(Bytes));
    Reserved += Bytes;
    return Chunks.back().get();
  }
  if (Bytes > Left) {
    Chunks.push_back(std::make_unique_for_overwrite<std::byte[]>(ChunkBytes));
    Reserved += ChunkBytes;
    Bump = Chunks.back().get();
    Left = ChunkBytes;
  }
  void *P = Bump;
  Bump += Bytes;
  Left -= Bytes;
  return P;
}

void ListArena::give(void *P, unsigned Class) {
  std::memcpy(P, &Free[Class], sizeof(void *));
  Free[Class] = P;
}

template <typename T> void ListArena::grow(ArenaList<T> &L, uint32_t MinCap) {
  static_assert(std::is_same_v<T, Correlation> || std::is_same_v<T, NodeId>,
                "the arena's free lists know two element kinds");
  static_assert(sizeof(T) % alignof(T) == 0 && alignof(T) <= 4,
                "blocks are carved at 4-byte granularity");
  // A freed block holds its free-list link, so it spans a pointer.
  constexpr uint32_t MinElems = (sizeof(void *) + sizeof(T) - 1) / sizeof(T);
  uint32_t Cap = std::bit_ceil(std::max({MinCap, MinElems, L.Cap * 2}));
  constexpr unsigned Kind = std::is_same_v<T, Correlation> ? 0 : 32;
  auto *Data = static_cast<T *>(
      take(Cap * sizeof(T), Kind + std::countr_zero(Cap)));
  if (L.Data) {
    std::memcpy(static_cast<void *>(Data), L.Data, L.Size * sizeof(T));
    give(L.Data, Kind + std::countr_zero(L.Cap));
  }
  L.Data = Data;
  L.Cap = Cap;
}

template void ListArena::grow(ArenaList<Correlation> &, uint32_t);
template void ListArena::grow(ArenaList<NodeId> &, uint32_t);

//===----------------------------------------------------------------------===//
// KeyTable
//===----------------------------------------------------------------------===//

namespace {
/// Fibonacci hashing: the top bits of the key times 2^64 / phi.
size_t slotOf(uint64_t Key, unsigned Shift) {
  return static_cast<size_t>((Key * 0x9e3779b97f4a7c15ull) >> Shift);
}
} // namespace

uint32_t BranchCorrelationGraph::KeyTable::find(uint64_t Key) const {
  if (Entries.empty())
    return Empty;
  const size_t Mask = Entries.size() - 1;
  for (size_t I = slotOf(Key, Shift);; I = (I + 1) & Mask) {
    const Entry &E = Entries[I];
    if (E.Value == Empty || E.Key == Key)
      return E.Value;
  }
}

uint32_t &BranchCorrelationGraph::KeyTable::slot(uint64_t Key) {
  if (!Entries.empty()) {
    const size_t Mask = Entries.size() - 1;
    for (size_t I = slotOf(Key, Shift);; I = (I + 1) & Mask) {
      Entry &E = Entries[I];
      if (E.Key == Key && E.Value != Empty)
        return E.Value;
      if (E.Value == Empty)
        break;
    }
  }
  // A new key: grow first if it would fill the table past half.
  if (2 * (Used + 1) > Entries.size())
    rehash(Entries.empty() ? 64 : 2 * Entries.size());
  const size_t Mask = Entries.size() - 1;
  size_t I = slotOf(Key, Shift);
  while (Entries[I].Value != Empty)
    I = (I + 1) & Mask;
  // The caller fills the value in.
  Entries[I].Key = Key;
  ++Used;
  return Entries[I].Value;
}

void BranchCorrelationGraph::KeyTable::rehash(size_t NewSize) {
  std::vector<Entry> Old = std::move(Entries);
  Entries.assign(NewSize, Entry());
  Shift = 64 - std::countr_zero(NewSize);
  const size_t Mask = NewSize - 1;
  for (const Entry &E : Old) {
    if (E.Value == Empty)
      continue;
    size_t I = slotOf(E.Key, Shift);
    while (Entries[I].Value != Empty)
      I = (I + 1) & Mask;
    Entries[I] = E;
  }
}

//===----------------------------------------------------------------------===//
// BranchCorrelationGraph
//===----------------------------------------------------------------------===//

BranchCorrelationGraph::BranchCorrelationGraph(ProfilerConfig Config,
                                               SignalSink *Sink)
    : Config(Config), Sink(Sink) {
  assert(Config.StartStateDelay >= 1 && "delay of 0 would never go hot");
  assert(Config.DecayInterval >= 2 && "degenerate decay interval");
}

NodeId BranchCorrelationGraph::getOrCreateNode(BlockId X, BlockId Y) {
  uint32_t &Slot = PairToNode.slot(pairKey(X, Y));
  if (Slot != KeyTable::Empty)
    return Slot;

  auto Id = static_cast<NodeId>(Nodes.size());
  Slot = Id;
  BranchNode N;
  N.From = X;
  N.To = Y;
  N.StartDelayLeft = Config.StartStateDelay;
  Nodes.push_back(N);
  Hot.emplace_back(); // no correlation yet: every hook misses
  return Id;
}

void BranchCorrelationGraph::fold(NodeId Id) const {
  HotRecord &H = Hot[Id];
  const uint32_t K = H.Armed - H.Countdown;
  H.Armed = H.Countdown;
  FoldedHits += K;
  // K hits on the cached correlation, as K runs of the per-hook update.
  // The countdown was armed so that none of them reached a decay.
  BranchNode &N = Nodes[Id];
  N.Corrs[N.CacheIdx].Count.add(K);
  N.Total = static_cast<uint32_t>(
      std::min<uint64_t>(uint64_t(N.Total) + K, 0xffffffffu));
  N.Execs += K;
  N.StartDelayLeft -= std::min(N.StartDelayLeft, K);
  N.SinceDecay += K;
}

void BranchCorrelationGraph::foldAll() {
  for (NodeId Id = 0; Id < Nodes.size(); ++Id)
    foldPending(Id);
}

void BranchCorrelationGraph::rearm(NodeId Id) {
  const BranchNode &N = Nodes[Id];
  HotRecord &H = Hot[Id];
  assert(H.Armed == H.Countdown && "rearming a node with pending hits");
  const Correlation *C = N.Corrs.Size ? &N.Corrs[N.CacheIdx] : nullptr;
  H.Succ = C && C->Target != InvalidNodeId ? C->Succ : InvalidBlockId;
  H.Target = C ? C->Target : InvalidNodeId;
  // The hook that brings SinceDecay to the interval decays, so it must
  // miss: the countdown covers the hits strictly before it.
  const uint32_t Last = Config.DecayInterval - 1;
  H.Countdown = H.Armed = N.SinceDecay < Last ? Last - N.SinceDecay : 0;
}

void BranchCorrelationGraph::moveContext(NodeId From, BlockId Next) {
  // Only successor ids and targets are read: no pending hit matters.
  const BranchNode &N = Nodes[From];
  NodeId Target = InvalidNodeId;
  for (const Correlation &C : N.correlations())
    if (C.Succ == Next) {
      Target = C.Target;
      break;
    }
  Ctx = Target != InvalidNodeId ? Target : getOrCreateNode(N.To, Next);
}

BranchCorrelationGraph::GraphStats BranchCorrelationGraph::stats() const {
  GraphStats S;
  S.ListSearches = ListSearches;
  S.DecayPasses = DecayPasses;
  S.Signals = Signals;
  S.Hooks = SlowHooks + FoldedHits;
  for (const HotRecord &H : Hot)
    S.Hooks += H.Armed - H.Countdown;
  S.InlineCacheHits = S.Hooks - S.ListSearches - ContextHooks;
  return S;
}

void BranchCorrelationGraph::dispatchSlow(BlockId Next) {
  ++SlowHooks;
  // The first block of the program establishes half a pair; the second
  // establishes the first context.
  if (Ctx == InvalidNodeId) {
    ++ContextHooks;
    if (Last == InvalidBlockId)
      Last = Next;
    else
      Ctx = getOrCreateNode(Last, Next);
    return;
  }

  // Find (or lazily create) the correlation E for successor Next within
  // the current context. The inline cache is checked first (section
  // 4.1.2); on a miss the list of previously encountered successors is
  // searched; otherwise a new correlation is constructed.
  NodeId CtxId = Ctx;
  foldPending(CtxId);
  uint32_t CorrIdx;
  {
    BranchNode &N = Nodes[CtxId];
    // Locals: a correlation's fields could alias the list's own size.
    Correlation *Corrs = N.Corrs.Data;
    const uint32_t Size = N.Corrs.Size;
    CorrIdx = N.CacheIdx;
    if (Size == 0 || Corrs[CorrIdx].Succ != Next) {
      ++ListSearches;
      const bool Indexed = Size >= IndexedFanout;
      // Next's index slot; a new successor's is filled in below.
      uint32_t *Pos = nullptr;
      if (Indexed) {
        Pos = &CorrIndex.slot(pairKey(CtxId, Next));
        CorrIdx = *Pos == KeyTable::Empty ? Size : *Pos;
      } else {
        CorrIdx = 0;
        while (CorrIdx < Size && Corrs[CorrIdx].Succ != Next)
          ++CorrIdx;
      }
      if (CorrIdx == Size) {
        Correlation C;
        C.Succ = Next;
        Arena.push(N.Corrs, C);
        // The list just became wide: index all of it; once wide, index
        // each new successor.
        if (Size + 1 == IndexedFanout)
          for (uint32_t I = 0; I <= Size; ++I)
            indexCorr(CtxId, I);
        else if (Indexed)
          *Pos = Size;
      } else if (CorrIdx > 0) {
        // Transpose heuristic: nudge the found correlation one slot
        // toward the front so hot successors of wide nodes (polymorphic
        // sites, big switches) stay cheap to find.
        std::swap(Corrs[CorrIdx], Corrs[CorrIdx - 1]);
        if (Indexed) {
          // The displaced successor's key exists: no rehash moves *Pos.
          indexCorr(CtxId, CorrIdx);
          *Pos = CorrIdx - 1;
        }
        auto Fix = [CorrIdx](uint32_t &Idx) {
          if (Idx == CorrIdx)
            --Idx;
          else if (Idx == CorrIdx - 1)
            ++Idx;
        };
        Fix(N.CacheIdx);
        if (N.MaxIdx != BranchNode::InvalidIdx)
          Fix(N.MaxIdx);
        --CorrIdx;
      }
    }
  }

  // Resolve the correlation's target context (node N_YZ) lazily. This may
  // reallocate Nodes, so re-fetch references afterwards.
  if (Nodes[CtxId].Corrs[CorrIdx].Target == InvalidNodeId) {
    NodeId TargetId = getOrCreateNode(Nodes[CtxId].To, Next);
    Nodes[CtxId].Corrs[CorrIdx].Target = TargetId;
    Arena.push(Nodes[TargetId].Preds, CtxId);
  }

  BranchNode &N = Nodes[CtxId];
  Correlation &C = N.Corrs[CorrIdx];
  C.Count.increment();
  if (N.Total != 0xffffffffu)
    ++N.Total;
  ++N.Execs;

  // Keep the inline cache pointed at the heaviest correlation; a simple
  // greedy update suffices since decay re-derives the true maximum.
  if (C.Count.value() >= N.Corrs[N.CacheIdx].Count.value())
    N.CacheIdx = CorrIdx;

  // Start-state delay: count down to "not rare" (section 3.3). Becoming
  // hot only makes the node *eligible*; its state is summarized to the
  // trace cache at the next decay pass (the paper re-checks state "during
  // the decay process" only), so branches executing fewer than a decay
  // interval of times never signal and never enter traces.
  if (N.StartDelayLeft > 0)
    --N.StartDelayLeft;

  // Periodic decay (section 4.1.1).
  if (++N.SinceDecay >= Config.DecayInterval) {
    N.SinceDecay = 0;
    decay(CtxId);
  }

  // Advance the context through the correlation's cached target.
  Ctx = Nodes[CtxId].Corrs[CorrIdx].Target;
  rearm(CtxId);
}

void BranchCorrelationGraph::decay(NodeId Id) {
  ++DecayPasses;
  JTC_RECORD_EVENT(Telem, EventKind::DecayPass, Id);
  BranchNode &N = Nodes[Id];
  uint32_t Total = 0;
  for (uint32_t I = 0; I < N.Corrs.Size; ++I) {
    N.Corrs[I].Count.decay();
    Total += N.Corrs[I].Count.value();
  }
  N.Total = Total;
  evaluate(Id);
}

void BranchCorrelationGraph::deriveState(BranchNode &N) const {
  // Re-derive the maximally correlated successor.
  uint32_t MaxIdx = BranchNode::InvalidIdx;
  uint32_t MaxCount = 0;
  for (uint32_t I = 0; I < N.Corrs.Size; ++I) {
    uint32_t V = N.Corrs[I].Count.value();
    if (MaxIdx == BranchNode::InvalidIdx || V > MaxCount) {
      MaxIdx = I;
      MaxCount = V;
    }
  }
  N.MaxIdx = MaxIdx;

  NodeState State;
  uint32_t Bp = Config.thresholdBasisPoints();
  if (!N.hot()) {
    State = NodeState::NewlyCreated;
  } else if (N.Corrs.Size == 1) {
    State = NodeState::Unique;
  } else if (N.Total > 0 && Bp < 10000 &&
             static_cast<uint64_t>(MaxCount) * 10000 >=
                 static_cast<uint64_t>(Bp) * N.Total) {
    // At the 100% threshold the strong and unique states merge (paper
    // section 5.2): a branch with more than one observed successor is
    // never strong there, even in windows where every competing count
    // happens to have decayed to zero.
    State = NodeState::StronglyCorrelated;
  } else {
    State = NodeState::WeaklyCorrelated;
  }
  N.State = State;
}

void BranchCorrelationGraph::evaluate(NodeId Id) {
  BranchNode &N = Nodes[Id];
  deriveState(N);

  if (!N.hot())
    return;
  // A state change always signals. A change of the maximally correlated
  // successor matters only while it is usable for trace construction,
  // i.e. when the node is (or was) strongly correlated or unique -- a
  // weak node's flapping maximum is of no interest to the trace cache and
  // signalling it would swamp the signal budget (uniform switches flap on
  // nearly every decay).
  BlockId MaxSucc = N.maxSucc();
  if (N.State == N.AckState &&
      (MaxSucc == N.AckMaxSucc || N.State == NodeState::WeaklyCorrelated))
    return;
  N.AckState = N.State;
  N.AckMaxSucc = MaxSucc;
  ++Signals;
  JTC_RECORD_EVENT(Telem, EventKind::ProfilerSignal, Id,
                   static_cast<uint32_t>(N.State));
  if (Sink)
    Sink->onStateChange(Id);
}

std::vector<BcgNodeSnapshot> BranchCorrelationGraph::exportNodes() const {
  std::vector<BcgNodeSnapshot> Out;
  Out.reserve(Nodes.size());
  for (NodeId Id = 0; Id < Nodes.size(); ++Id) {
    const BranchNode &N = node(Id);
    BcgNodeSnapshot S;
    S.From = N.From;
    S.To = N.To;
    S.StartDelayLeft = N.StartDelayLeft;
    S.SinceDecay = N.SinceDecay;
    S.Execs = N.Execs;
    S.Corrs.reserve(N.Corrs.Size);
    for (const Correlation &C : N.correlations())
      S.Corrs.emplace_back(C.Succ, C.Count.value());
    Out.push_back(std::move(S));
  }
  return Out;
}

void BranchCorrelationGraph::importNodes(
    const std::vector<BcgNodeSnapshot> &Snapshot) {
  assert(Nodes.empty() && Ctx == InvalidNodeId &&
         "importNodes requires a fresh graph");
  Nodes.reserve(Snapshot.size());
  Hot.reserve(Snapshot.size());
  for (const BcgNodeSnapshot &S : Snapshot) {
    // A repeated pair keeps its first node, as findNode sees it.
    uint32_t &Slot = PairToNode.slot(pairKey(S.From, S.To));
    if (Slot == KeyTable::Empty)
      Slot = static_cast<NodeId>(Nodes.size());
    BranchNode N;
    N.From = S.From;
    N.To = S.To;
    N.StartDelayLeft = S.StartDelayLeft;
    N.SinceDecay = S.SinceDecay;
    N.Execs = S.Execs;
    uint32_t Total = 0;
    if (!S.Corrs.empty())
      Arena.grow(N.Corrs, static_cast<uint32_t>(S.Corrs.size()));
    for (const auto &[Succ, Count] : S.Corrs) {
      Correlation C;
      C.Succ = Succ;
      C.Count.reset(Count);
      Total += Count;
      Arena.push(N.Corrs, C);
    }
    N.Total = Total;
    Nodes.push_back(N);
    Hot.emplace_back();
  }
  // Resolve correlation targets and predecessor links (the snapshot's
  // node set is closed under "has a correlation", but a target context
  // the donor never entered may legitimately be absent -- it stays
  // lazily resolvable, exactly as after a fresh edge creation). Then
  // re-derive and acknowledge each node's state so seeding emits no
  // signals.
  for (NodeId Id = 0; Id < Nodes.size(); ++Id) {
    BranchNode &N = Nodes[Id];
    for (uint32_t I = 0; I < N.Corrs.Size; ++I) {
      Correlation &C = N.Corrs[I];
      C.Target = findNode(N.To, C.Succ);
      if (C.Target != InvalidNodeId)
        Arena.push(Nodes[C.Target].Preds, Id);
      if (N.Corrs.Size >= IndexedFanout) {
        // Keep the first of repeated successors, as a list scan finds.
        uint32_t &Pos = CorrIndex.slot(pairKey(Id, C.Succ));
        if (Pos == KeyTable::Empty)
          Pos = I;
      }
    }
    deriveState(N);
    N.AckState = N.State;
    N.AckMaxSucc = N.maxSucc();
  }
  for (NodeId Id = 0; Id < Nodes.size(); ++Id)
    rearm(Id);
}

void BranchCorrelationGraph::acknowledge(NodeId Id) {
  foldPending(Id);
  BranchNode &N = Nodes[Id];
  N.AckState = N.State;
  N.AckMaxSucc = N.maxSucc();
}

void BranchCorrelationGraph::dump(std::ostream &OS) const {
  OS << "branch correlation graph: " << Nodes.size() << " nodes\n";
  for (NodeId Id = 0; Id < Nodes.size(); ++Id) {
    const BranchNode &N = node(Id);
    OS << "  node " << Id << " (" << N.From << " -> " << N.To << ") "
       << nodeStateName(N.State) << (N.hot() ? "" : " [cold]")
       << " execs=" << N.Execs << " weight=" << N.Total << "\n";
    for (const Correlation &C : N.correlations())
      OS << "    succ " << C.Succ << " count=" << C.Count.value()
         << " p=" << N.probabilityOf(C.Succ) << "\n";
  }
}
