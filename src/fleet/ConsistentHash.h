//===- fleet/ConsistentHash.h - Session-to-shard routing --------*- C++ -*-===//
///
/// \file
/// Consistent-hash ring with virtual nodes, the supervisor's routing
/// function from session key to shard. Consistency is what makes warm
/// profiles stick: a session key always lands on the same shard while
/// membership is stable, so that shard's BCG / trace state keeps
/// absorbing the same traffic, and when a shard leaves (crash) or
/// returns (restart) only the keys on its arcs move -- every other
/// session stays where its profile already lives. Virtual nodes smooth
/// the load split so two shards do not end up owning wildly unequal
/// arcs of the key space.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_FLEET_CONSISTENTHASH_H
#define JTC_FLEET_CONSISTENTHASH_H

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace jtc {
namespace fleet {

/// FNV-1a over \p Key with murmur3's fmix64 finalizer, the ring's point
/// hash for keys and virtual nodes alike (stable across processes, unlike
/// std::hash).
uint64_t ringHash(const std::string &Key);

class HashRing {
public:
  /// \p VNodes points per node; more points, smoother balance.
  explicit HashRing(unsigned VNodes = 64) : VNodes(VNodes < 1 ? 1 : VNodes) {}

  /// Adds \p Node (idempotent).
  void add(uint32_t Node);

  /// Removes \p Node (idempotent). Keys on its arcs redistribute to the
  /// clockwise successors; all other keys keep their owner.
  void remove(uint32_t Node);

  bool contains(uint32_t Node) const { return Members.count(Node) != 0; }
  size_t size() const { return Members.size(); }

  /// Owner of \p Key: the first ring point clockwise from hash(Key).
  /// False when the ring is empty.
  bool route(const std::string &Key, uint32_t &Node) const;

private:
  unsigned VNodes;
  std::map<uint64_t, uint32_t> Ring; ///< Point hash -> node.
  std::set<uint32_t> Members;
};

} // namespace fleet
} // namespace jtc

#endif // JTC_FLEET_CONSISTENTHASH_H
