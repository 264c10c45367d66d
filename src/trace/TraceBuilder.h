//===- trace/TraceBuilder.h - Trace construction algorithm ------*- C++ -*-===//
///
/// \file
/// The trace construction pipeline of paper section 4.2, run in response
/// to a profiler state-change signal:
///
///   1. findEntryPoints(): backtrack from the changed node along incoming
///      strongly correlated edges to every branch context likely to reach
///      it; the terminal elements are the candidate trace entry points.
///   2. walkPath(): from each entry point follow the path of maximum
///      likelihood until it reaches a weakly correlated (or cold) branch
///      or a node already on the path (a loop).
///   3. cut(): if the path ends in a loop, unroll the loop once and emit
///      it first; then cut node paths greedily into block sequences whose
///      cumulative completion probability stays at or above the
///      completion threshold.
///
/// The builder is a pure function of the branch correlation graph; the
/// TraceCache owns installation, hash-consing and replacement.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_TRACE_TRACEBUILDER_H
#define JTC_TRACE_TRACEBUILDER_H

#include "profile/BranchCorrelationGraph.h"
#include "trace/TraceConfig.h"

#include <vector>

namespace jtc {

/// A not-yet-installed trace produced by the builder: the node path it was
/// cut from, N(P, B0), N(B0, B1), ... (see Trace::Contexts).
struct TraceCandidate {
  std::vector<NodeId> Contexts;
  double Completion = 1.0;
};

class TraceBuilder {
public:
  TraceBuilder(const BranchCorrelationGraph &Graph, TraceConfig Config)
      : Graph(&Graph), Config(Config) {}

  /// Result of one build pass: the candidates to install and every node
  /// examined (which the cache acknowledges to stop signal cascades).
  struct BuildResult {
    std::vector<TraceCandidate> Candidates;
    std::vector<NodeId> Visited;
  };

  /// Runs the full pipeline for a state change on \p Changed.
  BuildResult build(NodeId Changed) const;

  /// Step 1: candidate entry points for traces affected by \p Changed.
  /// Always returns at least \p Changed itself when nothing backtracks.
  std::vector<NodeId> findEntryPoints(NodeId Changed) const;

  /// Step 2 result: a node path, with loop information when the walk
  /// closed a cycle. When EndsInLoop, Nodes[LoopStart..] form the loop
  /// body (the successor of Nodes.back() is Nodes[LoopStart]).
  struct Path {
    std::vector<NodeId> Nodes;
    bool EndsInLoop = false;
    size_t LoopStart = 0;
  };

  /// Step 2: follow the maximum-likelihood path from \p Entry.
  Path walkPath(NodeId Entry) const;

  /// Step 3: cut a node path into candidates meeting the threshold. A
  /// slice N_{X0 X1}, N_{X1 X2}, ... of the path is the trace entered at
  /// (X0 -> X1) over blocks X1, X2, ...; the probability charged between
  /// consecutive nodes is the correlation of the later pair's block given
  /// the earlier pair.
  std::vector<TraceCandidate> cut(const std::vector<NodeId> &Nodes) const;

private:
  /// True when traces may flow *through* this node (strong or unique and
  /// past its start delay).
  bool extendable(const BranchNode &N) const;

  const BranchCorrelationGraph *Graph;
  TraceConfig Config;
};

} // namespace jtc

#endif // JTC_TRACE_TRACEBUILDER_H
