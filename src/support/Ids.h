//===- support/Ids.h - Shared identifier types ------------------*- C++ -*-===//
///
/// \file
/// Basic-block and branch-context identifiers and block-pair keys. The
/// profiler and trace cache operate purely on the dynamic stream of
/// BlockIds, so the types live here rather than in the interpreter to
/// keep those libraries independent of interpreter internals.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_SUPPORT_IDS_H
#define JTC_SUPPORT_IDS_H

#include <cstdint>

namespace jtc {

/// Identifies one basic block, unique across the whole prepared module.
using BlockId = uint32_t;

/// Sentinel for "no block".
constexpr BlockId InvalidBlockId = 0xffffffffu;

/// Identifies a node (branch context N_XY) of the branch correlation graph.
using NodeId = uint32_t;
constexpr NodeId InvalidNodeId = 0xffffffffu;

/// Packs an ordered block pair (X, Y) -- the paper's branch (X -> Y) --
/// into one hashable key.
inline uint64_t pairKey(BlockId X, BlockId Y) {
  return (static_cast<uint64_t>(X) << 32) | Y;
}

} // namespace jtc

#endif // JTC_SUPPORT_IDS_H
