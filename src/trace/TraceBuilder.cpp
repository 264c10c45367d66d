//===- trace/TraceBuilder.cpp ---------------------------------------------===//

#include "trace/TraceBuilder.h"

#include <unordered_map>
#include <unordered_set>

using namespace jtc;

bool TraceBuilder::extendable(const BranchNode &N) const {
  return N.hot() && (N.state() == NodeState::StronglyCorrelated ||
                     N.state() == NodeState::Unique);
}

std::vector<NodeId> TraceBuilder::findEntryPoints(NodeId Changed) const {
  std::vector<NodeId> Entries;
  std::unordered_set<NodeId> Visited;
  std::vector<NodeId> Stack;
  Stack.push_back(Changed);

  while (!Stack.empty() && Visited.size() < Config.MaxBacktrackVisits &&
         Entries.size() < Config.MaxEntryPoints) {
    NodeId Cur = Stack.back();
    Stack.pop_back();
    if (!Visited.insert(Cur).second)
      continue;

    // A predecessor funnels into Cur when it is strongly correlated (or
    // unique) and its maximally correlated successor is Cur: executing it
    // makes executing Cur likely.
    bool AnyPred = false;
    for (NodeId P : Graph->node(Cur).predecessors()) {
      const BranchNode &PN = Graph->node(P);
      if (!extendable(PN) || PN.maxSuccNode() != Cur)
        continue;
      AnyPred = true;
      if (!Visited.count(P))
        Stack.push_back(P);
    }
    if (!AnyPred)
      Entries.push_back(Cur);
  }

  // Pure cycles have no terminal element; fall back to the changed node
  // itself so the loop still gets (re)built.
  if (Entries.empty())
    Entries.push_back(Changed);
  return Entries;
}

TraceBuilder::Path TraceBuilder::walkPath(NodeId Entry) const {
  Path P;
  std::unordered_map<NodeId, size_t> IndexOf;
  NodeId Cur = Entry;

  while (Cur != InvalidNodeId && P.Nodes.size() < Config.MaxPathNodes) {
    auto It = IndexOf.find(Cur);
    if (It != IndexOf.end()) {
      P.EndsInLoop = true;
      P.LoopStart = It->second;
      break;
    }
    IndexOf.emplace(Cur, P.Nodes.size());
    P.Nodes.push_back(Cur);

    // A weakly correlated (or still-cold) branch ends the path; the node
    // itself is included since only its successor is uncertain.
    const BranchNode &N = Graph->node(Cur);
    if (!extendable(N))
      break;
    Cur = N.maxSuccNode();
  }
  return P;
}

std::vector<TraceCandidate>
TraceBuilder::cut(const std::vector<NodeId> &Nodes) const {
  std::vector<TraceCandidate> Out;
  if (Nodes.empty())
    return Out;

  // Edge probability between consecutive path nodes N_{XY} and N_{YZ}:
  // the correlation of Z within N_{XY}, i.e. P(Z | X, Y).
  auto edgeProb = [&](size_t K) {
    const BranchNode &N = Graph->node(Nodes[K]);
    return N.probabilityOf(Graph->node(Nodes[K + 1]).to());
  };

  // Small tolerance so a product of probabilities equal to the threshold
  // is not rejected by floating-point rounding.
  const double Floor = Config.CompletionThreshold - 1e-12;

  size_t I = 0;
  while (I < Nodes.size()) {
    double Product = 1.0;
    size_t J = I;
    while (J + 1 < Nodes.size() &&
           (J - I + 2) <= Config.MaxTraceBlocks) {
      double P = edgeProb(J);
      if (Product * P < Floor)
        break;
      Product *= P;
      ++J;
    }

    size_t NumBlocks = J - I + 1;
    if (NumBlocks < Config.MinTraceBlocks) {
      // The pair at I cannot anchor a trace; move on.
      ++I;
      continue;
    }

    TraceCandidate C;
    C.Contexts.assign(Nodes.begin() + static_cast<ptrdiff_t>(I),
                      Nodes.begin() + static_cast<ptrdiff_t>(J + 1));
    C.Completion = Product;
    Out.push_back(std::move(C));
    I = J + 1;
  }
  return Out;
}

TraceBuilder::BuildResult TraceBuilder::build(NodeId Changed) const {
  BuildResult R;
  std::vector<NodeId> Entries = findEntryPoints(Changed);

  for (NodeId Entry : Entries) {
    Path P = walkPath(Entry);
    R.Visited.insert(R.Visited.end(), P.Nodes.begin(), P.Nodes.end());

    if (P.EndsInLoop) {
      // Process the loop first (paper section 4.2): unroll it once so the
      // trace carries two iterations of the body, then cut the straight
      // prefix that leads into it.
      std::vector<NodeId> Loop(P.Nodes.begin() +
                                   static_cast<ptrdiff_t>(P.LoopStart),
                               P.Nodes.end());
      std::vector<NodeId> Unrolled = Loop;
      Unrolled.insert(Unrolled.end(), Loop.begin(), Loop.end());
      for (TraceCandidate &C : cut(Unrolled))
        R.Candidates.push_back(std::move(C));

      std::vector<NodeId> Prefix(P.Nodes.begin(),
                                 P.Nodes.begin() +
                                     static_cast<ptrdiff_t>(P.LoopStart));
      for (TraceCandidate &C : cut(Prefix))
        R.Candidates.push_back(std::move(C));
    } else {
      for (TraceCandidate &C : cut(P.Nodes))
        R.Candidates.push_back(std::move(C));
    }
  }
  return R;
}
