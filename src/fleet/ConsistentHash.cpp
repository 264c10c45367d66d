//===- fleet/ConsistentHash.cpp -------------------------------------------===//

#include "fleet/ConsistentHash.h"

#include <cstdio>

using namespace jtc;
using namespace jtc::fleet;

uint64_t fleet::ringHash(const std::string &Key) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Key) {
    H ^= C;
    H *= 1099511628211ull;
  }
  // FNV-1a alone leaves keys that differ in their last characters (the
  // "session-N" family) a small multiple of the prime apart: one narrow
  // arc of the ring. murmur3's fmix64 spreads every input bit over the
  // whole word.
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdull;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ull;
  H ^= H >> 33;
  return H;
}

void HashRing::add(uint32_t Node) {
  if (!Members.insert(Node).second)
    return;
  char Point[64];
  for (unsigned V = 0; V < VNodes; ++V) {
    std::snprintf(Point, sizeof(Point), "node-%u#%u", Node, V);
    // A (astronomically unlikely) point collision keeps the incumbent;
    // remove() erases only points it owns, so the ring stays coherent.
    Ring.emplace(ringHash(Point), Node);
  }
}

void HashRing::remove(uint32_t Node) {
  if (Members.erase(Node) == 0)
    return;
  for (auto It = Ring.begin(); It != Ring.end();) {
    if (It->second == Node)
      It = Ring.erase(It);
    else
      ++It;
  }
}

bool HashRing::route(const std::string &Key, uint32_t &Node) const {
  if (Ring.empty())
    return false;
  auto It = Ring.lower_bound(ringHash(Key));
  if (It == Ring.end())
    It = Ring.begin(); // Wrap: the ring is circular.
  Node = It->second;
  return true;
}
