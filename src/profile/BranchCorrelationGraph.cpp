//===- profile/BranchCorrelationGraph.cpp ---------------------------------===//

#include "profile/BranchCorrelationGraph.h"

#include "telemetry/EventRing.h"

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
  for (const Correlation &C : Corrs)
    if (C.Succ == Succ)
      return static_cast<double>(C.Count.value()) / Total;
  return 0.0;
}

BranchCorrelationGraph::BranchCorrelationGraph(ProfilerConfig Config,
                                               SignalSink *Sink)
    : Config(Config), Sink(Sink) {
  assert(Config.StartStateDelay >= 1 && "delay of 0 would never go hot");
  assert(Config.DecayInterval >= 2 && "degenerate decay interval");
}

NodeId BranchCorrelationGraph::findNode(BlockId X, BlockId Y) const {
  auto It = PairToNode.find(pairKey(X, Y));
  return It == PairToNode.end() ? InvalidNodeId : It->second;
}

NodeId BranchCorrelationGraph::getOrCreateNode(BlockId X, BlockId Y) {
  uint64_t Key = pairKey(X, Y);
  auto It = PairToNode.find(Key);
  if (It != PairToNode.end())
    return It->second;

  auto Id = static_cast<NodeId>(Nodes.size());
  BranchNode N;
  N.From = X;
  N.To = Y;
  N.StartDelayLeft = Config.StartStateDelay;
  Nodes.push_back(std::move(N));
  PairToNode.emplace(Key, Id);
  return Id;
}

void BranchCorrelationGraph::moveContext(NodeId From, BlockId Next) {
  const BranchNode &N = node(From);
  NodeId Target = InvalidNodeId;
  for (const Correlation &C : N.Corrs)
    if (C.Succ == Next) {
      Target = C.Target;
      break;
    }
  Ctx = Target != InvalidNodeId ? Target : getOrCreateNode(N.To, Next);
  Last = Next;
}

void BranchCorrelationGraph::onBlockDispatch(BlockId Next) {
  ++Stats.Hooks;

  // The first block of the program establishes half a pair; the second
  // establishes the first context.
  if (Last == InvalidBlockId) {
    Last = Next;
    return;
  }
  if (Ctx == InvalidNodeId) {
    Ctx = getOrCreateNode(Last, Next);
    Last = Next;
    return;
  }

  // Find (or lazily create) the correlation E for successor Next within
  // the current context. The inline cache is checked first (section
  // 4.1.2); on a miss the list of previously encountered successors is
  // searched; otherwise a new correlation is constructed.
  NodeId CtxId = Ctx;
  uint32_t CorrIdx;
  {
    BranchNode &N = Nodes[CtxId];
    if (!N.Corrs.empty() && N.Corrs[N.CacheIdx].Succ == Next) {
      CorrIdx = N.CacheIdx;
      ++Stats.InlineCacheHits;
    } else {
      ++Stats.ListSearches;
      CorrIdx = BranchNode::InvalidIdx;
      for (uint32_t I = 0; I < N.Corrs.size(); ++I)
        if (N.Corrs[I].Succ == Next) {
          CorrIdx = I;
          break;
        }
      if (CorrIdx == BranchNode::InvalidIdx) {
        CorrIdx = static_cast<uint32_t>(N.Corrs.size());
        Correlation C;
        C.Succ = Next;
        N.Corrs.push_back(C);
      } else if (CorrIdx > 0) {
        // Transpose heuristic: nudge the found correlation one slot
        // toward the front so hot successors of wide nodes (polymorphic
        // sites, big switches) stay cheap to find.
        std::swap(N.Corrs[CorrIdx], N.Corrs[CorrIdx - 1]);
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
    NodeId TargetId = getOrCreateNode(Last, Next);
    Nodes[CtxId].Corrs[CorrIdx].Target = TargetId;
    Nodes[TargetId].Preds.push_back(CtxId);
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
  Last = Next;
}

void BranchCorrelationGraph::decay(NodeId Id) {
  ++Stats.DecayPasses;
  JTC_RECORD_EVENT(Telem, EventKind::DecayPass, Id);
  BranchNode &N = Nodes[Id];
  uint32_t Total = 0;
  for (Correlation &C : N.Corrs) {
    C.Count.decay();
    Total += C.Count.value();
  }
  N.Total = Total;
  evaluate(Id);
}

void BranchCorrelationGraph::deriveState(BranchNode &N) const {
  // Re-derive the maximally correlated successor.
  uint32_t MaxIdx = BranchNode::InvalidIdx;
  uint32_t MaxCount = 0;
  for (uint32_t I = 0; I < N.Corrs.size(); ++I) {
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
  } else if (N.Corrs.size() == 1) {
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
  ++Stats.Signals;
  JTC_RECORD_EVENT(Telem, EventKind::ProfilerSignal, Id,
                   static_cast<uint32_t>(N.State));
  if (Sink)
    Sink->onStateChange(Id);
}

std::vector<BcgNodeSnapshot> BranchCorrelationGraph::exportNodes() const {
  std::vector<BcgNodeSnapshot> Out;
  Out.reserve(Nodes.size());
  for (const BranchNode &N : Nodes) {
    BcgNodeSnapshot S;
    S.From = N.From;
    S.To = N.To;
    S.StartDelayLeft = N.StartDelayLeft;
    S.SinceDecay = N.SinceDecay;
    S.Execs = N.Execs;
    S.Corrs.reserve(N.Corrs.size());
    for (const Correlation &C : N.Corrs)
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
  for (const BcgNodeSnapshot &S : Snapshot) {
    auto Id = static_cast<NodeId>(Nodes.size());
    BranchNode N;
    N.From = S.From;
    N.To = S.To;
    N.StartDelayLeft = S.StartDelayLeft;
    N.SinceDecay = S.SinceDecay;
    N.Execs = S.Execs;
    uint32_t Total = 0;
    N.Corrs.reserve(S.Corrs.size());
    for (const auto &[Succ, Count] : S.Corrs) {
      Correlation C;
      C.Succ = Succ;
      C.Count.reset(Count);
      Total += Count;
      N.Corrs.push_back(C);
    }
    N.Total = Total;
    Nodes.push_back(std::move(N));
    PairToNode.emplace(pairKey(S.From, S.To), Id);
  }
  // Resolve correlation targets and predecessor links (the snapshot's
  // node set is closed under "has a correlation", but a target context
  // the donor never entered may legitimately be absent -- it stays
  // lazily resolvable, exactly as after a fresh edge creation). Then
  // re-derive and acknowledge each node's state so seeding emits no
  // signals.
  for (NodeId Id = 0; Id < Nodes.size(); ++Id) {
    BranchNode &N = Nodes[Id];
    for (Correlation &C : N.Corrs) {
      C.Target = findNode(N.To, C.Succ);
      if (C.Target != InvalidNodeId)
        Nodes[C.Target].Preds.push_back(Id);
    }
    deriveState(N);
    N.AckState = N.State;
    N.AckMaxSucc = N.maxSucc();
  }
}

void BranchCorrelationGraph::acknowledge(NodeId Id) {
  BranchNode &N = Nodes[Id];
  N.AckState = N.State;
  N.AckMaxSucc = N.maxSucc();
}

void BranchCorrelationGraph::dump(std::ostream &OS) const {
  OS << "branch correlation graph: " << Nodes.size() << " nodes\n";
  for (NodeId Id = 0; Id < Nodes.size(); ++Id) {
    const BranchNode &N = Nodes[Id];
    OS << "  node " << Id << " (" << N.From << " -> " << N.To << ") "
       << nodeStateName(N.State) << (N.hot() ? "" : " [cold]")
       << " execs=" << N.Execs << " weight=" << N.Total << "\n";
    for (const Correlation &C : N.Corrs)
      OS << "    succ " << C.Succ << " count=" << C.Count.value()
         << " p=" << N.probabilityOf(C.Succ) << "\n";
  }
}
