//===- tests/profile_test.cpp - Branch correlation graph ------------------===//

#include "profile/BranchCorrelationGraph.h"

#include <gtest/gtest.h>

#include <sstream>
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
  const std::vector<NodeId> &Preds = G.node(N23).predecessors();
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
