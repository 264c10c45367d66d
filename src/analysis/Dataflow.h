//===- analysis/Dataflow.h - Iterative worklist solver ----------*- C++ -*-===//
///
/// \file
/// A small generic fixpoint engine over a MethodCfg. An analysis supplies
/// its state type and three operations; the solver owns scheduling:
/// blocks are processed from a worklist prioritized by reverse post-order
/// (post-order for backward problems), which visits loop bodies before
/// re-examining their heads and typically reaches the fixpoint in a
/// handful of passes.
///
/// The analysis concept:
///
///   struct MyAnalysis {
///     using State = ...;                       // copyable
///     static constexpr bool Forward = true;    // direction
///     State boundary();                        // entry (or exit) state
///     State initial();                         // bottom for other blocks
///     void transfer(uint32_t Block, State &S); // apply block's effect
///     // Join From into Into; return true when Into changed. Widen is
///     // set once a block has been re-joined often enough that infinite
///     // ascending chains (ranges) must be cut off.
///     bool join(State &Into, const State &From, bool Widen);
///     // Optional; when present the solver calls it per edge instead of
///     // propagating the post-transfer state verbatim. Returning nullopt
///     // prunes the edge -- this is how constant conditions make branch
///     // arms unreachable.
///     std::optional<State> edgeState(uint32_t From, uint32_t To,
///                                    const State &AfterTransfer);
///   };
///
/// solve() returns the per-block input states (state at block entry for
/// forward problems, at block exit for backward ones); callers re-run the
/// transfer locally when they need per-instruction facts.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_ANALYSIS_DATAFLOW_H
#define JTC_ANALYSIS_DATAFLOW_H

#include "analysis/Cfg.h"

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

namespace jtc {
namespace analysis {

/// Number of times a block may be re-joined before joins start widening.
inline constexpr uint32_t WidenAfterJoins = 4;

template <typename Analysis>
std::vector<typename Analysis::State> solve(const MethodCfg &Cfg,
                                            Analysis &A) {
  const uint32_t N = Cfg.numBlocks();
  std::vector<typename Analysis::State> In;
  In.reserve(N);
  for (uint32_t B = 0; B < N; ++B)
    In.push_back(A.initial());

  // Priority for backward problems is reverse RPO; unreachable blocks
  // (UINT32_MAX priority) sort last either way and are only processed if
  // an edge actually reaches them.
  auto priority = [&](uint32_t B) {
    uint32_t P = Cfg.rpoIndex(B);
    if (!Analysis::Forward && P != UINT32_MAX)
      P = static_cast<uint32_t>(Cfg.rpo().size()) - 1 - P;
    return P;
  };

  std::set<std::pair<uint32_t, uint32_t>> Worklist; // (priority, block)
  std::vector<uint32_t> JoinCount(N, 0);

  auto enqueue = [&](uint32_t B) { Worklist.insert({priority(B), B}); };

  if constexpr (Analysis::Forward) {
    typename Analysis::State Boundary = A.boundary();
    A.join(In[0], Boundary, false);
    enqueue(0);
  } else {
    // Backward: every block whose terminator leaves the method (or that
    // has no successors at all) gets the boundary state. Every block is
    // enqueued once regardless: backward problems have no reachability
    // pruning, and seeding only the exits deadlocks when an exit's state
    // is empty -- the join into its predecessors changes nothing, so the
    // rest of the graph would never be processed and its uses never seen.
    typename Analysis::State Boundary = A.boundary();
    for (uint32_t B = 0; B < N; ++B) {
      if (Cfg.block(B).Succs.empty())
        A.join(In[B], Boundary, false);
      enqueue(B);
    }
  }

  while (!Worklist.empty()) {
    uint32_t B = Worklist.begin()->second;
    Worklist.erase(Worklist.begin());

    typename Analysis::State S = In[B];
    A.transfer(B, S);

    std::span<const uint32_t> Next =
        Analysis::Forward ? Cfg.block(B).Succs : Cfg.block(B).Preds;
    for (uint32_t T : Next) {
      bool Widen = ++JoinCount[T] > WidenAfterJoins * (1 + Next.size());
      if constexpr (requires { A.edgeState(B, T, S); }) {
        std::optional<typename Analysis::State> Edge = A.edgeState(B, T, S);
        if (!Edge)
          continue;
        if (A.join(In[T], *Edge, Widen))
          enqueue(T);
      } else {
        if (A.join(In[T], S, Widen))
          enqueue(T);
      }
    }
  }
  return In;
}

} // namespace analysis
} // namespace jtc

#endif // JTC_ANALYSIS_DATAFLOW_H
