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
/// id of its target context so advancing the context is one load. A wide
/// node's list is searched through a (node, successor) -> position table
/// rather than scanned.
///
/// Layout. Each node is split in two. A 16-byte hot record holds the
/// inline cache (the cached successor and its target node) and a
/// countdown of the hits the node may take before its next decay. The
/// cold BranchNode holds the counters, the state tag and the node's
/// correlation and predecessor lists, which live in one per-graph arena.
/// The hook, inlined into the dispatch loop, reads only the hot record
/// on a hit: it decrements the countdown and advances the context. The k
/// hits a countdown has absorbed are folded into the cold counters
/// (count, weight, executions, decay phase, start-state delay, with the
/// per-hit saturation) before anything reads them: the next miss or
/// decay of the node, node(), acknowledge(), exportNodes() and dump().
/// The countdown is armed so that the hit that triggers a decay always
/// takes the out-of-line path, so deferring changes no observable value.
/// foldAll() at the end of a run leaves nothing pending; const reads of
/// a finished graph then mutate nothing.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_PROFILE_BRANCHCORRELATIONGRAPH_H
#define JTC_PROFILE_BRANCHCORRELATIONGRAPH_H

#include "profile/ProfilerConfig.h"
#include "support/Ids.h"
#include "support/SaturatingCounter.h"

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
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

/// A growable list held in a ListArena: a pointer, a size and a
/// power-of-two capacity (0 while empty).
template <typename T> struct ArenaList {
  T *Data = nullptr;
  uint32_t Size = 0;
  uint32_t Cap = 0;

  std::span<const T> view() const { return {Data, Size}; }
  T &operator[](uint32_t I) { return Data[I]; }
  const T &operator[](uint32_t I) const { return Data[I]; }
};

/// The backing store of every node's correlation and predecessor lists.
/// Lists grow by doubling; a block a list outgrows goes on a free list
/// for its size and is handed to the next list that needs one that big.
/// Memory is carved from fixed-size chunks and released only with the
/// arena, so list pointers stay valid while the graph lives.
class ListArena {
public:
  /// Bytes reserved from the system (chunks plus oversized blocks).
  size_t bytes() const { return Reserved; }

  template <typename T> void push(ArenaList<T> &L, const T &V) {
    if (L.Size == L.Cap)
      grow(L, L.Size + 1);
    L.Data[L.Size++] = V;
  }

  /// Grows \p L to hold at least \p MinCap elements.
  template <typename T> void grow(ArenaList<T> &L, uint32_t MinCap);

  /// Chunk size; a block larger than a quarter of it gets its own.
  static constexpr size_t ChunkBytes = 64 * 1024;

private:
  void *take(size_t Bytes, unsigned Class);
  void give(void *P, unsigned Class);

  std::vector<std::unique_ptr<std::byte[]>> Chunks;
  std::byte *Bump = nullptr;
  size_t Left = 0;
  size_t Reserved = 0;
  /// Intrusive free lists, by element kind (correlation, node id) and
  /// log2 capacity.
  std::array<void *, 64> Free{};
};

/// One branch context N_XY: its cold part. The inline cache and the
/// countdown of deferred hits live in the graph's hot records; every
/// accessor here reads a node whose pending hits were folded in first
/// (BranchCorrelationGraph::node folds before it returns).
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

  std::span<const Correlation> correlations() const { return Corrs.view(); }

  /// Node ids of contexts with a correlation edge into this node.
  std::span<const NodeId> predecessors() const { return Preds.view(); }

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
  NodeState AckState = NodeState::NewlyCreated; ///< Last signalled state.
  BlockId AckMaxSucc = InvalidBlockId;          ///< Last signalled max succ.
  uint32_t StartDelayLeft = 0;
  uint32_t SinceDecay = 0;
  uint32_t Total = 0;
  uint32_t MaxIdx = InvalidIdx;   ///< Index into Corrs, cached at evaluation.
  uint32_t CacheIdx = 0;          ///< Inline cache: predicted correlation.
  uint64_t Execs = 0;
  ArenaList<Correlation> Corrs;
  ArenaList<NodeId> Preds;
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
  /// and runs start-state / decay bookkeeping. May emit signals. An
  /// inline-cache hit with no decay due only counts down the context's
  /// hot record; everything else takes the out-of-line path.
  void onBlockDispatch(BlockId Next) {
    if (Ctx != InvalidNodeId) {
      HotRecord &H = Hot[Ctx];
      if (H.Succ == Next && H.Countdown != 0) {
        --H.Countdown;
        Ctx = H.Target;
        return;
      }
    }
    dispatchSlow(Next);
  }

  /// Sets the context to node \p Id without recording an execution; used
  /// when a trace completes, whose inlined blocks carry no profiling hooks
  /// (the trace holds the node of its last block pair).
  void setContext(NodeId Id) {
    assert(Id < Nodes.size() && "invalid node id");
    Ctx = Id;
  }

  /// Moves the context from \p From = N(X, Y) to N(Y, Next) without
  /// recording the transition; used when execution diverges from a trace.
  /// Follows From's cached correlation target when Next is a known
  /// successor, and otherwise resolves (lazily creating) N(Y, Next).
  void moveContext(NodeId From, BlockId Next);

  /// Folds every node's deferred hits into its counters. Called when a
  /// run ends, so that reading the finished graph mutates nothing.
  void foldAll();

  //===--- Introspection (trace builder API) -------------------------===//

  size_t numNodes() const { return Nodes.size(); }

  /// Node \p Id with its deferred hits folded in.
  const BranchNode &node(NodeId Id) const {
    assert(Id < Nodes.size() && "invalid node id");
    foldPending(Id);
    return Nodes[Id];
  }

  /// Finds node N_XY, or InvalidNodeId if that pair was never observed.
  NodeId findNode(BlockId X, BlockId Y) const {
    static_assert(KeyTable::Empty == InvalidNodeId);
    return PairToNode.find(pairKey(X, Y));
  }

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

  /// The counters. Hooks and InlineCacheHits are derived: a hook is a
  /// cheap hit (folded or still pending) or took the out-of-line path,
  /// and is an inline-cache hit unless it searched the list or was one
  /// of the (at most two) hooks that establish the first context. Costs
  /// a pass over the hot records.
  GraphStats stats() const;

  /// Bytes the correlation and predecessor lists' arena has reserved.
  size_t arenaBytes() const { return Arena.bytes(); }

  /// Dumps every node with its state and correlations.
  void dump(std::ostream &OS) const;

private:
  /// The hot part of a node: its inline cache and the countdown of hits
  /// it may take before the next decay. Hits since the countdown was last
  /// armed (Armed - Countdown) are pending: not yet in the cold counters.
  struct HotRecord {
    /// Successor of the cached correlation, or InvalidBlockId while there
    /// is none or its target node is unresolved (every hook misses).
    BlockId Succ = InvalidBlockId;
    NodeId Target = InvalidNodeId; ///< The cached correlation's target.
    uint32_t Countdown = 0;
    uint32_t Armed = 0;
  };
  static_assert(sizeof(HotRecord) == 16, "one hot record per 16 bytes");

  /// Open-addressed table from a pairKey to a 32-bit value (linear
  /// probing, kept at most half full; no erasure). Maps block pairs to
  /// nodes, and (node, successor) pairs of wide nodes to list positions.
  class KeyTable {
  public:
    static constexpr uint32_t Empty = 0xffffffffu;
    /// The value stored for \p Key, or Empty.
    uint32_t find(uint64_t Key) const;
    /// The value slot for \p Key: its value, or an Empty slot where the
    /// caller stores a new one. Only inserting a key can rehash, so the
    /// slot of an existing key stays valid across lookups of other
    /// existing keys.
    uint32_t &slot(uint64_t Key);

  private:
    struct Entry {
      uint64_t Key = 0;
      uint32_t Value = Empty;
    };
    void rehash(size_t NewSize);

    std::vector<Entry> Entries;
    size_t Used = 0;
    unsigned Shift = 64;
  };

  /// Nodes with at least this many correlations (big switches,
  /// megamorphic returns) find a successor through CorrIndex instead of
  /// scanning the list.
  static constexpr uint32_t IndexedFanout = 8;

  /// Records in CorrIndex that node \p Id's successor at list position
  /// \p Idx sits there.
  void indexCorr(NodeId Id, uint32_t Idx) {
    CorrIndex.slot(pairKey(Id, Nodes[Id].Corrs[Idx].Succ)) = Idx;
  }

  /// Everything but a cheap inline-cache hit: context establishment, a
  /// hit that triggers a decay, a miss (list search, lazy creation).
  void dispatchSlow(BlockId Next);

  NodeId getOrCreateNode(BlockId X, BlockId Y);

  /// Folds node \p Id's pending hits, if any.
  void foldPending(NodeId Id) const {
    const HotRecord &H = Hot[Id];
    if (H.Armed != H.Countdown)
      fold(Id);
  }
  void fold(NodeId Id) const;

  /// Re-derives \p Id's hot record from its (folded) cold part.
  void rearm(NodeId Id);

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
  // Mutable for the fold-before-read contract: a const read may fold a
  // node's pending hits, which changes no observable value.
  mutable std::vector<HotRecord> Hot;
  mutable std::vector<BranchNode> Nodes;
  ListArena Arena;
  KeyTable PairToNode;
  KeyTable CorrIndex; ///< (node, successor) -> list position, wide nodes.
  NodeId Ctx = InvalidNodeId;
  /// The one block seen before the first context exists. Once Ctx is
  /// valid the last block is always Nodes[Ctx].To.
  BlockId Last = InvalidBlockId;
  // Counters; stats() derives the rest.
  uint64_t ListSearches = 0;
  uint64_t DecayPasses = 0;
  uint64_t Signals = 0;
  uint64_t SlowHooks = 0;    ///< Hooks that took dispatchSlow.
  uint64_t ContextHooks = 0; ///< Hooks that established the context.
  mutable uint64_t FoldedHits = 0; ///< Cheap hits folded so far.
};

} // namespace jtc

#endif // JTC_PROFILE_BRANCHCORRELATIONGRAPH_H
