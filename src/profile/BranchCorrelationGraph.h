//===- profile/BranchCorrelationGraph.h - The BCG profiler ------*- C++ -*-===//
///
/// \file
/// The branch correlation graph of paper sections 3.5 and 4.1: a depth-one
/// per-address history table over basic-block transitions. Each node N_XY
/// represents an executed block pair (X, Y); each correlation record E_XYZ
/// inside N_XY counts, in a 16-bit saturating counter, how often block Z
/// followed the pair. Correlations decay (shift right) every
/// DecayInterval executions of the node, weighting recent behaviour; at
/// each decay the node's state tag (newly created / weakly / strongly
/// correlated / unique) and its maximally correlated successor are
/// re-derived, and a state-change signal is emitted to the trace cache
/// when either differs from the last acknowledged value.
///
/// The per-dispatch hook follows paper section 4.1.2: an inline cache per
/// branch context predicts the next block; on a miss the correlation list
/// is searched and extended lazily, and each correlation caches the node
/// id of its target context so advancing the context is one load.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_PROFILE_BRANCHCORRELATIONGRAPH_H
#define JTC_PROFILE_BRANCHCORRELATIONGRAPH_H

#include "profile/ProfilerConfig.h"
#include "support/Ids.h"
#include "support/SaturatingCounter.h"

#include <cassert>
#include <cstdint>
#include <ostream>
#include <unordered_map>
#include <vector>

namespace jtc {

class EventRing;

/// The four correlation states of paper section 4.1.1, in descending
/// degree of correlation: Unique > StronglyCorrelated > WeaklyCorrelated >
/// NewlyCreated.
enum class NodeState : uint8_t {
  NewlyCreated,       ///< Start-state delay has not yet expired.
  WeaklyCorrelated,   ///< Best successor below the threshold.
  StronglyCorrelated, ///< Best successor at or above the threshold.
  Unique,             ///< Only one successor has ever been observed.
};

const char *nodeStateName(NodeState S);

/// One correlation record E_XYZ stored inside node N_XY.
struct Correlation {
  BlockId Succ = InvalidBlockId;  ///< Z: the successor block.
  SaturatingCounter Count;        ///< 16-bit decayed execution count.
  NodeId Target = InvalidNodeId;  ///< Node N_YZ, resolved lazily.
};

/// One branch context N_XY.
class BranchNode {
public:
  BlockId from() const { return From; }
  BlockId to() const { return To; }
  NodeState state() const { return State; }

  /// True once the start-state delay has expired ("not rare").
  bool hot() const { return StartDelayLeft == 0; }

  /// Sum of all correlation counts (the node weight).
  uint32_t totalWeight() const { return Total; }

  /// Total executions of this branch, undiminished by decay.
  uint64_t executions() const { return Execs; }

  const std::vector<Correlation> &correlations() const { return Corrs; }

  /// Node ids of contexts with a correlation edge into this node.
  const std::vector<NodeId> &predecessors() const { return Preds; }

  /// Block of the maximally correlated successor as of the last state
  /// evaluation, or InvalidBlockId when none exists yet.
  BlockId maxSucc() const {
    return MaxIdx == InvalidIdx ? InvalidBlockId : Corrs[MaxIdx].Succ;
  }

  /// Target node of the maximally correlated successor, or InvalidNodeId.
  NodeId maxSuccNode() const {
    return MaxIdx == InvalidIdx ? InvalidNodeId : Corrs[MaxIdx].Target;
  }

  /// P(Succ | this pair) from the decayed counters; 0 if never observed
  /// or if the node weight is 0.
  double probabilityOf(BlockId Succ) const;

  /// Probability of the maximally correlated successor.
  double maxProbability() const {
    return MaxIdx == InvalidIdx ? 0.0 : probabilityOf(Corrs[MaxIdx].Succ);
  }

private:
  friend class BranchCorrelationGraph;
  static constexpr uint32_t InvalidIdx = 0xffffffffu;

  BlockId From = InvalidBlockId;
  BlockId To = InvalidBlockId;
  NodeState State = NodeState::NewlyCreated;
  uint32_t StartDelayLeft = 0;
  uint32_t SinceDecay = 0;
  uint32_t Total = 0;
  uint64_t Execs = 0;
  uint32_t MaxIdx = InvalidIdx;   ///< Index into Corrs, cached at evaluation.
  uint32_t CacheIdx = 0;          ///< Inline cache: predicted correlation.
  NodeState AckState = NodeState::NewlyCreated; ///< Last signalled state.
  BlockId AckMaxSucc = InvalidBlockId;          ///< Last signalled max succ.
  std::vector<Correlation> Corrs;
  std::vector<NodeId> Preds;
};

/// Portable snapshot of one branch context, captured by
/// BranchCorrelationGraph::exportNodes() and restored by importNodes().
/// Carries exactly the state a warm-started session needs: the decayed
/// correlation counters, the remaining start-state delay and the decay
/// phase. Correlation targets and predecessor links are re-resolved on
/// import; derived state (tag, max successor) is re-derived.
struct BcgNodeSnapshot {
  BlockId From = InvalidBlockId;
  BlockId To = InvalidBlockId;
  uint32_t StartDelayLeft = 0;
  uint32_t SinceDecay = 0;
  uint64_t Execs = 0;
  /// (successor block, decayed 16-bit count), in correlation-list order.
  std::vector<std::pair<BlockId, uint16_t>> Corrs;
};

/// Receives state-change signals (paper section 4.2); implemented by the
/// trace cache.
class SignalSink {
public:
  virtual ~SignalSink();
  /// Node \p Id's state or maximally correlated successor changed.
  virtual void onStateChange(NodeId Id) = 0;
};

/// The profiler proper.
class BranchCorrelationGraph {
public:
  explicit BranchCorrelationGraph(ProfilerConfig Config,
                                  SignalSink *Sink = nullptr);

  /// Installs the signal receiver (the trace cache). May be null.
  void setSink(SignalSink *S) { Sink = S; }

  /// Attaches the telemetry event ring; signals and decay passes are
  /// recorded into it. Null (the default) disables recording.
  void setTelemetry(EventRing *R) { Telem = R; }

  const ProfilerConfig &config() const { return Config; }

  //===--- Hot path --------------------------------------------------===//

  /// The per-dispatch profiler hook: records that block \p Next was
  /// dispatched after the current context's pair, advances the context,
  /// and runs start-state / decay bookkeeping. May emit signals.
  void onBlockDispatch(BlockId Next);

  /// Sets the context to node \p Id without recording an execution; used
  /// when a trace completes, whose inlined blocks carry no profiling hooks
  /// (the trace holds the node of its last block pair).
  void setContext(NodeId Id) {
    Ctx = Id;
    Last = node(Id).to();
  }

  /// Moves the context from \p From = N(X, Y) to N(Y, Next) without
  /// recording the transition; used when execution diverges from a trace.
  /// Follows From's cached correlation target when Next is a known
  /// successor, and otherwise resolves (lazily creating) N(Y, Next).
  void moveContext(NodeId From, BlockId Next);

  //===--- Introspection (trace builder API) -------------------------===//

  size_t numNodes() const { return Nodes.size(); }

  const BranchNode &node(NodeId Id) const {
    assert(Id < Nodes.size() && "invalid node id");
    return Nodes[Id];
  }

  /// Finds node N_XY, or InvalidNodeId if that pair was never observed.
  NodeId findNode(BlockId X, BlockId Y) const;

  /// Current context node (InvalidNodeId before two blocks have run).
  NodeId currentContext() const { return Ctx; }

  /// Records the node's present (state, max successor) as acknowledged so
  /// the profiler will not re-signal until they change again. Called by
  /// the trace cache for every node it visited while rebuilding, which
  /// prevents signal cascades (paper section 4.2).
  void acknowledge(NodeId Id);

  //===--- Warm handoff ----------------------------------------------===//

  /// Captures every node's counters for seeding another graph over the
  /// same block id space (server-layer profile snapshot).
  std::vector<BcgNodeSnapshot> exportNodes() const;

  /// Restores a node set captured by exportNodes() into this graph, which
  /// must be fresh (no nodes, no recorded context). Each node's state and
  /// max successor are re-derived from the imported counters and
  /// acknowledged immediately, so importing emits no signals -- a seeded
  /// session starts from the donor's steady state, not from a burst of
  /// rebuild work.
  void importNodes(const std::vector<BcgNodeSnapshot> &Snapshot);

  struct GraphStats {
    uint64_t Hooks = 0;           ///< onBlockDispatch calls.
    uint64_t InlineCacheHits = 0; ///< Predictions that matched.
    uint64_t ListSearches = 0;    ///< Misses resolved by list search.
    uint64_t DecayPasses = 0;
    uint64_t Signals = 0;
  };

  const GraphStats &stats() const { return Stats; }

  /// Dumps every node with its state and correlations.
  void dump(std::ostream &OS) const;

private:
  NodeId getOrCreateNode(BlockId X, BlockId Y);

  /// Re-derives (State, MaxIdx) from \p N's counters, without signalling.
  void deriveState(BranchNode &N) const;

  /// deriveState, then emits a signal if the acknowledged (state, max
  /// successor) no longer matches.
  void evaluate(NodeId Id);

  /// Shifts every correlation of \p Id right one bit and re-evaluates.
  void decay(NodeId Id);

  ProfilerConfig Config;
  SignalSink *Sink;
  EventRing *Telem = nullptr;
  std::vector<BranchNode> Nodes;
  std::unordered_map<uint64_t, NodeId> PairToNode;
  NodeId Ctx = InvalidNodeId;
  BlockId Last = InvalidBlockId;
  GraphStats Stats;
};

} // namespace jtc

#endif // JTC_PROFILE_BRANCHCORRELATIONGRAPH_H
