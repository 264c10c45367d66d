//===- tests/EagerBcg.h - Reference branch correlation graph ----*- C++ -*-===//
///
/// \file
/// A plain reference implementation of the branch correlation graph's
/// per-hook algorithm: every hook updates the node's counters at once,
/// each node owns its lists, and pairs are looked up in a std::map. It
/// is what BranchCorrelationGraph computes with deferred hits, hot
/// records and an arena, written the obvious way; tests drive both with
/// one block stream and require the same nodes, counters and signals.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_TESTS_EAGERBCG_H
#define JTC_TESTS_EAGERBCG_H

#include "profile/BranchCorrelationGraph.h"

#include <functional>
#include <map>
#include <utility>
#include <vector>

namespace jtc {
namespace testprog {

class EagerBcg {
public:
  struct Corr {
    BlockId Succ = InvalidBlockId;
    SaturatingCounter Count;
    NodeId Target = InvalidNodeId;
  };
  struct Node {
    BlockId From = InvalidBlockId;
    BlockId To = InvalidBlockId;
    NodeState State = NodeState::NewlyCreated;
    NodeState AckState = NodeState::NewlyCreated;
    BlockId AckMaxSucc = InvalidBlockId;
    uint32_t StartDelayLeft = 0;
    uint32_t SinceDecay = 0;
    uint32_t Total = 0;
    uint32_t MaxIdx = None;
    uint32_t CacheIdx = 0;
    uint64_t Execs = 0;
    std::vector<Corr> Corrs;
    std::vector<NodeId> Preds;

    bool hot() const { return StartDelayLeft == 0; }
    BlockId maxSucc() const {
      return MaxIdx == None ? InvalidBlockId : Corrs[MaxIdx].Succ;
    }
    double probabilityOf(BlockId Succ) const {
      if (Total == 0)
        return 0.0;
      for (const Corr &C : Corrs)
        if (C.Succ == Succ)
          return static_cast<double>(C.Count.value()) / Total;
      return 0.0;
    }
  };
  static constexpr uint32_t None = 0xffffffffu;

  explicit EagerBcg(ProfilerConfig Config) : Config(Config) {}

  /// Called with the node id on every signal.
  std::function<void(NodeId)> OnSignal;

  BranchCorrelationGraph::GraphStats Stats;
  std::vector<Node> Nodes;

  void onBlockDispatch(BlockId Next) {
    ++Stats.Hooks;
    if (Last == InvalidBlockId) {
      Last = Next;
      return;
    }
    if (Ctx == InvalidNodeId) {
      Ctx = getOrCreate(Last, Next);
      Last = Next;
      return;
    }
    NodeId Id = Ctx;
    uint32_t Idx;
    {
      Node &N = Nodes[Id];
      if (!N.Corrs.empty() && N.Corrs[N.CacheIdx].Succ == Next) {
        Idx = N.CacheIdx;
        ++Stats.InlineCacheHits;
      } else {
        ++Stats.ListSearches;
        Idx = None;
        for (uint32_t I = 0; I < N.Corrs.size(); ++I)
          if (N.Corrs[I].Succ == Next) {
            Idx = I;
            break;
          }
        if (Idx == None) {
          Idx = static_cast<uint32_t>(N.Corrs.size());
          N.Corrs.push_back({Next, SaturatingCounter(), InvalidNodeId});
        } else if (Idx > 0) {
          std::swap(N.Corrs[Idx], N.Corrs[Idx - 1]);
          auto Fix = [Idx](uint32_t &I) {
            if (I == Idx)
              --I;
            else if (I == Idx - 1)
              ++I;
          };
          Fix(N.CacheIdx);
          if (N.MaxIdx != None)
            Fix(N.MaxIdx);
          --Idx;
        }
      }
    }
    if (Nodes[Id].Corrs[Idx].Target == InvalidNodeId) {
      NodeId T = getOrCreate(Last, Next);
      Nodes[Id].Corrs[Idx].Target = T;
      Nodes[T].Preds.push_back(Id);
    }
    Node &N = Nodes[Id];
    Corr &C = N.Corrs[Idx];
    C.Count.increment();
    if (N.Total != 0xffffffffu)
      ++N.Total;
    ++N.Execs;
    if (C.Count.value() >= N.Corrs[N.CacheIdx].Count.value())
      N.CacheIdx = Idx;
    if (N.StartDelayLeft > 0)
      --N.StartDelayLeft;
    if (++N.SinceDecay >= Config.DecayInterval) {
      N.SinceDecay = 0;
      decay(Id);
    }
    Ctx = Nodes[Id].Corrs[Idx].Target;
    Last = Next;
  }

  void acknowledge(NodeId Id) {
    Node &N = Nodes[Id];
    N.AckState = N.State;
    N.AckMaxSucc = N.maxSucc();
  }

  /// The graph as BranchCorrelationGraph::exportNodes() captures it.
  std::vector<BcgNodeSnapshot> exportNodes() const {
    std::vector<BcgNodeSnapshot> Out;
    for (const Node &N : Nodes) {
      BcgNodeSnapshot S;
      S.From = N.From;
      S.To = N.To;
      S.StartDelayLeft = N.StartDelayLeft;
      S.SinceDecay = N.SinceDecay;
      S.Execs = N.Execs;
      for (const Corr &C : N.Corrs)
        S.Corrs.emplace_back(C.Succ, C.Count.value());
      Out.push_back(std::move(S));
    }
    return Out;
  }

private:
  NodeId getOrCreate(BlockId X, BlockId Y) {
    auto [It, New] = Index.try_emplace({X, Y}, Nodes.size());
    if (New) {
      Node N;
      N.From = X;
      N.To = Y;
      N.StartDelayLeft = Config.StartStateDelay;
      Nodes.push_back(std::move(N));
    }
    return It->second;
  }

  void decay(NodeId Id) {
    ++Stats.DecayPasses;
    Node &N = Nodes[Id];
    uint32_t Total = 0;
    for (Corr &C : N.Corrs) {
      C.Count.decay();
      Total += C.Count.value();
    }
    N.Total = Total;
    evaluate(Id);
  }

  void evaluate(NodeId Id) {
    Node &N = Nodes[Id];
    uint32_t MaxIdx = None, MaxCount = 0;
    for (uint32_t I = 0; I < N.Corrs.size(); ++I)
      if (MaxIdx == None || N.Corrs[I].Count.value() > MaxCount) {
        MaxIdx = I;
        MaxCount = N.Corrs[I].Count.value();
      }
    N.MaxIdx = MaxIdx;
    uint32_t Bp = Config.thresholdBasisPoints();
    if (!N.hot())
      N.State = NodeState::NewlyCreated;
    else if (N.Corrs.size() == 1)
      N.State = NodeState::Unique;
    else if (N.Total > 0 && Bp < 10000 &&
             uint64_t(MaxCount) * 10000 >= uint64_t(Bp) * N.Total)
      N.State = NodeState::StronglyCorrelated;
    else
      N.State = NodeState::WeaklyCorrelated;
    if (!N.hot())
      return;
    BlockId MaxSucc = N.maxSucc();
    if (N.State == N.AckState &&
        (MaxSucc == N.AckMaxSucc || N.State == NodeState::WeaklyCorrelated))
      return;
    N.AckState = N.State;
    N.AckMaxSucc = MaxSucc;
    ++Stats.Signals;
    if (OnSignal)
      OnSignal(Id);
  }

  ProfilerConfig Config;
  std::map<std::pair<BlockId, BlockId>, NodeId> Index;
  NodeId Ctx = InvalidNodeId;
  BlockId Last = InvalidBlockId;
};

} // namespace testprog
} // namespace jtc

#endif // JTC_TESTS_EAGERBCG_H
