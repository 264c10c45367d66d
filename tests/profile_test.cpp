//===- tests/profile_test.cpp - Branch correlation graph ------------------===//

#include "profile/BranchCorrelationGraph.h"

#include "EagerBcg.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

using namespace jtc;

namespace {

/// Records signalled node ids.
class RecordingSink : public SignalSink {
public:
  void onStateChange(NodeId Id) override { Signals.push_back(Id); }
  std::vector<NodeId> Signals;
};

ProfilerConfig config(uint32_t Delay = 1, double Threshold = 0.97,
                      uint32_t DecayInterval = 256) {
  ProfilerConfig C;
  C.StartStateDelay = Delay;
  C.CompletionThreshold = Threshold;
  C.DecayInterval = DecayInterval;
  return C;
}

/// Feeds the block sequence into the graph.
void feed(BranchCorrelationGraph &G, const std::vector<BlockId> &Stream) {
  for (BlockId B : Stream)
    G.onBlockDispatch(B);
}

/// Feeds \p Pattern repeatedly, \p Times times.
void feedRepeated(BranchCorrelationGraph &G,
                  const std::vector<BlockId> &Pattern, unsigned Times) {
  for (unsigned I = 0; I < Times; ++I)
    feed(G, Pattern);
}

} // namespace

//===----------------------------------------------------------------------===//
// Node and edge construction
//===----------------------------------------------------------------------===//

TEST(BcgTest, NoNodeUntilTwoBlocks) {
  BranchCorrelationGraph G(config());
  G.onBlockDispatch(1);
  EXPECT_EQ(G.numNodes(), 0u);
  G.onBlockDispatch(2);
  EXPECT_EQ(G.numNodes(), 1u);
  EXPECT_NE(G.findNode(1, 2), InvalidNodeId);
}

TEST(BcgTest, NodePerDistinctPair) {
  BranchCorrelationGraph G(config());
  feed(G, {1, 2, 3, 1, 2, 3});
  // Pairs: (1,2) (2,3) (3,1).
  EXPECT_EQ(G.numNodes(), 3u);
  EXPECT_NE(G.findNode(1, 2), InvalidNodeId);
  EXPECT_NE(G.findNode(2, 3), InvalidNodeId);
  EXPECT_NE(G.findNode(3, 1), InvalidNodeId);
  EXPECT_EQ(G.findNode(2, 1), InvalidNodeId);
}

TEST(BcgTest, CorrelationCountsFollowStream) {
  BranchCorrelationGraph G(config());
  // After pair (1,2): 3 then 3 then 4.
  feed(G, {1, 2, 3, 1, 2, 3, 1, 2, 4});
  const BranchNode &N = G.node(G.findNode(1, 2));
  ASSERT_EQ(N.correlations().size(), 2u);
  EXPECT_NEAR(N.probabilityOf(3), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(N.probabilityOf(4), 1.0 / 3.0, 1e-9);
  EXPECT_EQ(N.probabilityOf(99), 0.0);
  EXPECT_EQ(N.totalWeight(), 3u);
}

TEST(BcgTest, ContextAdvancesThroughCorrelationTargets) {
  BranchCorrelationGraph G(config());
  feed(G, {1, 2, 3});
  EXPECT_EQ(G.currentContext(), G.findNode(2, 3));
  G.onBlockDispatch(4);
  EXPECT_EQ(G.currentContext(), G.findNode(3, 4));
}

TEST(BcgTest, PredecessorLinksRecorded) {
  BranchCorrelationGraph G(config());
  feed(G, {1, 2, 3});
  NodeId N12 = G.findNode(1, 2);
  NodeId N23 = G.findNode(2, 3);
  std::span<const NodeId> Preds = G.node(N23).predecessors();
  ASSERT_EQ(Preds.size(), 1u);
  EXPECT_EQ(Preds[0], N12);
}

TEST(BcgTest, InlineCacheHitsOnRepeatedSuccessor) {
  BranchCorrelationGraph G(config());
  feedRepeated(G, {1, 2}, 100);
  const auto &S = G.stats();
  EXPECT_GT(S.InlineCacheHits, 150u) << "steady pattern should mostly hit";
  EXPECT_LT(S.ListSearches, 10u);
}

TEST(BcgTest, ExecutionCountsAreUndecayed) {
  BranchCorrelationGraph G(config());
  feedRepeated(G, {1, 2}, 600); // 1200 dispatches
  NodeId N = G.findNode(1, 2);
  EXPECT_GT(G.node(N).executions(), 500u);
}

//===----------------------------------------------------------------------===//
// Start-state delay
//===----------------------------------------------------------------------===//

TEST(BcgTest, DelayGatesHotness) {
  BranchCorrelationGraph G(config(/*Delay=*/64));
  feedRepeated(G, {1, 2}, 30); // node (1,2) executes ~30 times, (2,1) ~29
  EXPECT_FALSE(G.node(G.findNode(1, 2)).hot());
  feedRepeated(G, {1, 2}, 40);
  EXPECT_TRUE(G.node(G.findNode(1, 2)).hot());
}

TEST(BcgTest, DelayOfOneIsHotAfterFirstExecution) {
  BranchCorrelationGraph G(config(/*Delay=*/1));
  feed(G, {1, 2, 1});
  EXPECT_TRUE(G.node(G.findNode(1, 2)).hot());
}

TEST(BcgTest, ColdNodesStayNewlyCreated) {
  BranchCorrelationGraph G(config(/*Delay=*/4096));
  feedRepeated(G, {1, 2}, 600); // past several decays but below the delay
  const BranchNode &N = G.node(G.findNode(1, 2));
  EXPECT_FALSE(N.hot());
  EXPECT_EQ(N.state(), NodeState::NewlyCreated);
}

//===----------------------------------------------------------------------===//
// Decay and state evaluation
//===----------------------------------------------------------------------===//

TEST(BcgTest, DecayHalvesCounters) {
  BranchCorrelationGraph G(config(1, 0.97, /*DecayInterval=*/256));
  feedRepeated(G, {1, 2}, 300);
  const BranchNode &N = G.node(G.findNode(1, 2));
  // Without decay the weight would be ~600; one decay pass caps it.
  EXPECT_LT(N.totalWeight(), 450u);
  EXPECT_GT(G.stats().DecayPasses, 0u);
}

TEST(BcgTest, StateNotEvaluatedBeforeFirstDecay) {
  // The paper re-derives state only "during the decay process": a hot
  // node that has not yet reached a decay boundary stays NewlyCreated and
  // emits no signal.
  RecordingSink Sink;
  BranchCorrelationGraph G(config(/*Delay=*/1), &Sink);
  feedRepeated(G, {1, 2}, 100); // 200 dispatches, below one interval
  EXPECT_EQ(G.node(G.findNode(1, 2)).state(), NodeState::NewlyCreated);
  EXPECT_TRUE(Sink.Signals.empty());
}

TEST(BcgTest, SingleSuccessorBecomesUnique) {
  RecordingSink Sink;
  BranchCorrelationGraph G(config(/*Delay=*/1), &Sink);
  feedRepeated(G, {1, 2}, 300);
  const BranchNode &N = G.node(G.findNode(1, 2));
  EXPECT_EQ(N.state(), NodeState::Unique);
  EXPECT_EQ(N.maxSucc(), 1u) << "after (1,2) the stream always returns to 1";
}

TEST(BcgTest, BiasedBranchBecomesStronglyCorrelated) {
  BranchCorrelationGraph G(config(/*Delay=*/1, /*Threshold=*/0.97));
  // Pattern: (1,2)->3 heavily, ->4 once per 100.
  for (unsigned I = 0; I < 3000; ++I) {
    G.onBlockDispatch(1);
    G.onBlockDispatch(2);
    G.onBlockDispatch(I % 100 == 0 ? 4 : 3);
  }
  const BranchNode &N = G.node(G.findNode(1, 2));
  EXPECT_EQ(N.state(), NodeState::StronglyCorrelated);
  EXPECT_EQ(N.maxSucc(), 3u);
  EXPECT_GT(N.maxProbability(), 0.97);
}

TEST(BcgTest, UnbiasedBranchBecomesWeaklyCorrelated) {
  BranchCorrelationGraph G(config(/*Delay=*/1));
  for (unsigned I = 0; I < 2000; ++I) {
    G.onBlockDispatch(1);
    G.onBlockDispatch(2);
    G.onBlockDispatch(I % 2 ? 3 : 4);
  }
  const BranchNode &N = G.node(G.findNode(1, 2));
  EXPECT_EQ(N.state(), NodeState::WeaklyCorrelated);
}

TEST(BcgTest, HundredPercentThresholdRejectsAnyMiss) {
  BranchCorrelationGraph G(config(/*Delay=*/1, /*Threshold=*/1.0,
                                  /*DecayInterval=*/64));
  for (unsigned I = 0; I < 640; ++I) {
    G.onBlockDispatch(1);
    G.onBlockDispatch(2);
    G.onBlockDispatch(I % 16 == 0 ? 4 : 3); // misses survive decay
  }
  const BranchNode &N = G.node(G.findNode(1, 2));
  EXPECT_EQ(N.state(), NodeState::WeaklyCorrelated)
      << "nothing below exactly 100% may be strong at threshold 1.0";
}

TEST(BcgTest, DecayAdaptsToPhaseChange) {
  BranchCorrelationGraph G(config(/*Delay=*/1, 0.97, /*DecayInterval=*/64));
  // Phase 1: (1,2) -> 3 exclusively.
  for (unsigned I = 0; I < 1000; ++I) {
    G.onBlockDispatch(1);
    G.onBlockDispatch(2);
    G.onBlockDispatch(3);
  }
  EXPECT_EQ(G.node(G.findNode(1, 2)).maxSucc(), 3u);
  // Phase 2: (1,2) -> 4 exclusively; decay must flip the maximum.
  for (unsigned I = 0; I < 1000; ++I) {
    G.onBlockDispatch(1);
    G.onBlockDispatch(2);
    G.onBlockDispatch(4);
  }
  EXPECT_EQ(G.node(G.findNode(1, 2)).maxSucc(), 4u)
      << "recent behaviour outweighs history";
}

//===----------------------------------------------------------------------===//
// Signals
//===----------------------------------------------------------------------===//

TEST(BcgTest, FirstEvaluationSignalsOnce) {
  RecordingSink Sink;
  BranchCorrelationGraph G(config(/*Delay=*/1, 0.97, /*DecayInterval=*/64),
                           &Sink);
  feedRepeated(G, {1, 2}, 200);
  NodeId N = G.findNode(1, 2);
  unsigned Count = 0;
  for (NodeId S : Sink.Signals)
    Count += S == N;
  EXPECT_EQ(Count, 1u) << "a stable node signals exactly once";
}

TEST(BcgTest, WeakNodeMaxFlapsAreSuppressed) {
  RecordingSink Sink;
  BranchCorrelationGraph G(config(/*Delay=*/1, 0.97, /*DecayInterval=*/64),
                           &Sink);
  // Alternate successors so the maximum keeps flapping while the state
  // stays weakly correlated.
  for (unsigned I = 0; I < 4000; ++I) {
    G.onBlockDispatch(1);
    G.onBlockDispatch(2);
    G.onBlockDispatch(3 + (I / 3) % 2);
  }
  NodeId N = G.findNode(1, 2);
  unsigned Count = 0;
  for (NodeId S : Sink.Signals)
    Count += S == N;
  EXPECT_LE(Count, 2u) << "weak max-successor churn must not signal";
}

TEST(BcgTest, StrongMaxChangeSignals) {
  RecordingSink Sink;
  BranchCorrelationGraph G(config(/*Delay=*/1, 0.9, /*DecayInterval=*/64),
                           &Sink);
  for (unsigned I = 0; I < 1500; ++I) {
    G.onBlockDispatch(1);
    G.onBlockDispatch(2);
    G.onBlockDispatch(3);
  }
  size_t Before = Sink.Signals.size();
  for (unsigned I = 0; I < 1500; ++I) {
    G.onBlockDispatch(1);
    G.onBlockDispatch(2);
    G.onBlockDispatch(4);
  }
  EXPECT_GT(Sink.Signals.size(), Before)
      << "a strong branch retargeting must signal the trace cache";
}

TEST(BcgTest, AcknowledgeSuppressesResignal) {
  RecordingSink Sink;
  BranchCorrelationGraph G(config(/*Delay=*/1, 0.97, /*DecayInterval=*/64),
                           &Sink);
  feedRepeated(G, {1, 2}, 200);
  NodeId N = G.findNode(1, 2);
  G.acknowledge(N);
  size_t Before = Sink.Signals.size();
  feedRepeated(G, {1, 2}, 2000); // many decays, no behaviour change
  size_t After = 0;
  for (size_t I = Before; I < Sink.Signals.size(); ++I)
    After += Sink.Signals[I] == N;
  EXPECT_EQ(After, 0u);
}

//===----------------------------------------------------------------------===//
// Context control
//===----------------------------------------------------------------------===//

TEST(BcgTest, SetContextMovesWithoutCounting) {
  BranchCorrelationGraph G(config());
  feed(G, {5, 6, 9});
  NodeId N = G.findNode(5, 6);
  ASSERT_NE(N, InvalidNodeId);
  uint64_t Execs = G.node(N).executions();
  G.setContext(N);
  EXPECT_EQ(G.currentContext(), N);
  EXPECT_EQ(G.node(N).executions(), Execs);
  // The next dispatch is attributed to the set pair.
  G.onBlockDispatch(7);
  EXPECT_EQ(G.node(N).executions(), Execs + 1);
  EXPECT_GT(G.node(N).probabilityOf(7), 0.0);
}

TEST(BcgTest, MoveContextFollowsASuccessorWithoutCounting) {
  BranchCorrelationGraph G(config());
  feed(G, {1, 2, 3});
  NodeId N12 = G.findNode(1, 2);
  NodeId N23 = G.findNode(2, 3);
  uint64_t Execs = G.node(N12).executions();
  // A known successor follows the correlation's cached target.
  G.moveContext(N12, 3);
  EXPECT_EQ(G.currentContext(), N23);
  EXPECT_EQ(G.node(N12).executions(), Execs);
  // An unseen successor resolves (creating) N(2, 8), still uncounted.
  size_t Nodes = G.numNodes();
  G.moveContext(N12, 8);
  NodeId N28 = G.findNode(2, 8);
  ASSERT_NE(N28, InvalidNodeId);
  EXPECT_EQ(G.currentContext(), N28);
  EXPECT_EQ(G.numNodes(), Nodes + 1);
  EXPECT_EQ(G.node(N12).correlations().size(), 1u)
      << "moving the context records no correlation";
  EXPECT_EQ(G.node(N28).executions(), 0u);
  // The next dispatch is attributed to the new pair.
  G.onBlockDispatch(4);
  EXPECT_NEAR(G.node(N28).probabilityOf(4), 1.0, 1e-9);
}

TEST(BcgTest, WideFanoutStillFindsAllSuccessors) {
  // Exercises the list search and the transpose heuristic with dozens of
  // successors behind one context.
  BranchCorrelationGraph G(config(/*Delay=*/1, 0.97, /*DecayInterval=*/64));
  for (unsigned Round = 0; Round < 50; ++Round)
    for (BlockId Succ = 10; Succ < 42; ++Succ) {
      G.onBlockDispatch(1);
      G.onBlockDispatch(2);
      G.onBlockDispatch(Succ);
    }
  const BranchNode &N = G.node(G.findNode(1, 2));
  EXPECT_EQ(N.correlations().size(), 32u);
  double Sum = 0;
  for (const Correlation &C : N.correlations())
    Sum += N.probabilityOf(C.Succ);
  EXPECT_NEAR(Sum, 1.0, 1e-9) << "probabilities over successors sum to 1";
}

TEST(BcgTest, DumpMentionsNodesAndStates) {
  BranchCorrelationGraph G(config(/*Delay=*/1, 0.97, /*DecayInterval=*/64));
  feedRepeated(G, {1, 2}, 200);
  std::ostringstream OS;
  G.dump(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("(1 -> 2)"), std::string::npos);
  EXPECT_NE(Out.find("unique"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Deferred hits against the eager reference
//===----------------------------------------------------------------------===//

namespace {

/// What a signal handler sees: the signalled node, the counters, and for
/// every node what the trace builder reads (hotness, executions, state,
/// max successor, each successor in list order with its probability).
using SignalLog = std::vector<std::string>;

std::string statsText(const BranchCorrelationGraph::GraphStats &S) {
  return std::to_string(S.Hooks) + "/" + std::to_string(S.InlineCacheHits) +
         "/" + std::to_string(S.ListSearches) + "/" +
         std::to_string(S.DecayPasses) + "/" + std::to_string(S.Signals);
}

template <typename NodeT>
void appendNode(std::string &Out, const NodeT &N,
                const std::vector<BlockId> &Succs) {
  Out += " " + std::to_string(N.hot()) + ":" + std::to_string(N.executions()) +
         ":" + nodeStateName(N.state()) + ":" + std::to_string(N.maxSucc());
  for (BlockId S : Succs)
    Out += ":" + std::to_string(S) + "=" + std::to_string(N.probabilityOf(S));
}

/// Reads every node of the graph under test on each signal, then
/// acknowledges the signalled node and its predecessors, as a trace
/// cache's rebuild does.
class ReadingSink : public SignalSink {
public:
  BranchCorrelationGraph *G = nullptr;
  SignalLog Log;
  void onStateChange(NodeId Id) override {
    std::string Line = std::to_string(Id) + " " + statsText(G->stats());
    for (NodeId I = 0; I < G->numNodes(); ++I) {
      const BranchNode &N = G->node(I);
      std::vector<BlockId> Succs;
      for (const Correlation &C : N.correlations())
        Succs.push_back(C.Succ);
      appendNode(Line, N, Succs);
    }
    Log.push_back(std::move(Line));
    std::vector<NodeId> Preds(G->node(Id).predecessors().begin(),
                              G->node(Id).predecessors().end());
    G->acknowledge(Id);
    for (NodeId P : Preds)
      G->acknowledge(P);
  }
};

/// The reference's view, in the same form.
void readReference(testprog::EagerBcg &R, NodeId Id, SignalLog &Log) {
  BranchCorrelationGraph::GraphStats S = R.Stats;
  std::string Line = std::to_string(Id) + " " + statsText(S);
  for (const testprog::EagerBcg::Node &N : R.Nodes) {
    std::vector<BlockId> Succs;
    for (const testprog::EagerBcg::Corr &C : N.Corrs)
      Succs.push_back(C.Succ);
    struct View {
      const testprog::EagerBcg::Node &N;
      bool hot() const { return N.hot(); }
      uint64_t executions() const { return N.Execs; }
      NodeState state() const { return N.State; }
      BlockId maxSucc() const { return N.maxSucc(); }
      double probabilityOf(BlockId B) const { return N.probabilityOf(B); }
    };
    appendNode(Line, View{N}, Succs);
  }
  Log.push_back(std::move(Line));
  R.acknowledge(Id);
  for (NodeId P : R.Nodes[Id].Preds)
    R.acknowledge(P);
}

bool sameSnapshots(const std::vector<BcgNodeSnapshot> &A,
                   const std::vector<BcgNodeSnapshot> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].From != B[I].From || A[I].To != B[I].To ||
        A[I].StartDelayLeft != B[I].StartDelayLeft ||
        A[I].SinceDecay != B[I].SinceDecay || A[I].Execs != B[I].Execs ||
        A[I].Corrs != B[I].Corrs)
      return false;
  return true;
}

/// A random walk over a small control-flow graph: every block has one to
/// eight successors, mostly with one dominant one, and the successor sets
/// and weights are redrawn at each phase change.
std::vector<BlockId> randomStream(uint64_t Seed, size_t Len) {
  constexpr uint32_t NumBlocks = 24;
  Prng R(Seed);
  std::vector<std::vector<BlockId>> Succs(NumBlocks);
  std::vector<std::vector<uint32_t>> Weights(NumBlocks);
  auto Rephase = [&] {
    for (uint32_t B = 0; B < NumBlocks; ++B) {
      uint32_t Fanout = 1 + static_cast<uint32_t>(R.nextBelow(8));
      Succs[B].clear();
      Weights[B].clear();
      bool Biased = R.nextBelow(4) != 0;
      for (uint32_t I = 0; I < Fanout; ++I) {
        Succs[B].push_back(static_cast<BlockId>(R.nextBelow(NumBlocks)));
        Weights[B].push_back(Biased ? (I == 0 ? 2000 : 1 + R.nextBelow(20))
                                    : 1 + R.nextBelow(100));
      }
    }
  };
  Rephase();
  std::vector<BlockId> Out;
  BlockId B = 0;
  for (size_t I = 0; I < Len; ++I) {
    Out.push_back(B);
    if ((I + 1) % (Len / 5) == 0)
      Rephase();
    uint64_t Sum = 0;
    for (uint32_t W : Weights[B])
      Sum += W;
    uint64_t Pick = R.nextBelow(Sum);
    size_t K = 0;
    while (Pick >= Weights[B][K])
      Pick -= Weights[B][K++];
    B = Succs[B][K];
  }
  return Out;
}

/// Runs \p Stream through the graph and the reference and requires the
/// same signals, the same reads at every signal, and the same final
/// nodes and counters.
void expectMatchesReference(const ProfilerConfig &PC,
                            const std::vector<BlockId> &Stream) {
  ReadingSink Sink;
  BranchCorrelationGraph G(PC, &Sink);
  Sink.G = &G;
  testprog::EagerBcg Ref(PC);
  SignalLog RefLog;
  Ref.OnSignal = [&](NodeId Id) { readReference(Ref, Id, RefLog); };
  for (BlockId B : Stream) {
    G.onBlockDispatch(B);
    Ref.onBlockDispatch(B);
  }
  ASSERT_EQ(Sink.Log.size(), RefLog.size());
  for (size_t I = 0; I < RefLog.size(); ++I)
    ASSERT_EQ(Sink.Log[I], RefLog[I]) << "signal " << I;
  EXPECT_EQ(statsText(G.stats()), statsText(Ref.Stats));
  EXPECT_TRUE(sameSnapshots(G.exportNodes(), Ref.exportNodes()));
}

} // namespace

TEST(BcgTest, MatchesEagerReferenceOnRandomStreams) {
  uint64_t Seed = 1;
  for (uint32_t Delay : {1u, 3u, 64u})
    for (uint32_t Decay : {2u, 4u, 256u})
      for (double Threshold : {0.97, 1.0}) {
        SCOPED_TRACE("delay " + std::to_string(Delay) + " decay " +
                     std::to_string(Decay) + " threshold " +
                     std::to_string(Threshold));
        expectMatchesReference(config(Delay, Threshold, Decay),
                               randomStream(Seed++, 20000));
      }

  // Saturation: with decay out of reach, (1, 2) takes 75000 hits on
  // successor 1, more than its 16-bit counter holds, before a miss folds
  // them in; the weight keeps counting past the saturated counter.
  SCOPED_TRACE("saturation");
  std::vector<BlockId> Stream;
  for (int I = 0; I < 75000; ++I) {
    Stream.push_back(1);
    Stream.push_back(2);
  }
  for (int I = 0; I < 1000; ++I)
    for (BlockId B : {1u, 2u, 3u, 1u, 2u})
      Stream.push_back(B);
  expectMatchesReference(config(1, 0.97, 1u << 20), Stream);
  BranchCorrelationGraph G(config(1, 0.97, 1u << 20));
  feed(G, Stream);
  const BranchNode &N = G.node(G.findNode(1, 2));
  for (const Correlation &C : N.correlations()) {
    if (C.Succ == 1) {
      EXPECT_EQ(C.Count.value(), SaturatingCounter::Max);
    }
  }
  EXPECT_GT(N.totalWeight(), SaturatingCounter::Max);
}
