//===- analysis/TraceProofs.cpp -------------------------------------------===//

#include "analysis/TraceProofs.h"

#include "analysis/Analysis.h"

using namespace jtc;
using namespace jtc::analysis;

namespace {

/// First arena chunk; later chunks grow geometrically. A default javac
/// or soot session's few thousand shapes fill a few chunks.
constexpr size_t InitialArenaBytes = 128 * 1024;

// A published part, copied into the arena and back out.
TraceVerdict load(const TraceVerdict &V) { return V; }
std::vector<TraceMemFact> load(const std::pmr::vector<TraceMemFact> &F) {
  return {F.begin(), F.end()};
}
TraceVerdict store(const TraceVerdict &V, std::pmr::memory_resource *) {
  return V;
}
std::pmr::vector<TraceMemFact> store(const std::vector<TraceMemFact> &F,
                                     std::pmr::memory_resource *Mem) {
  return {F.begin(), F.end(), Mem};
}

} // namespace

TraceProofMemo::TraceProofMemo(size_t Cap)
    : Cap(Cap), Arena(InitialArenaBytes, pageResource()) {}

size_t TraceProofMemo::KeyHash::operator()(const Key &K) const {
  // FNV-1a over the fingerprint and the block ids.
  uint64_t H = 1469598103934665603ull ^ K.Config;
  for (uint32_t B : K.Blocks) {
    H ^= B;
    H *= 1099511628211ull;
  }
  return static_cast<size_t>(H);
}

template <typename T, typename Stored>
std::optional<T>
TraceProofMemo::find(const Key &K, std::optional<Stored> Entry::*Part) const {
  std::lock_guard<std::mutex> G(Lock);
  auto It = Entries.find(K);
  if (It == Entries.end() || !(It->second.*Part))
    return std::nullopt;
  return load(*(It->second.*Part));
}

template <typename T, typename Stored>
T TraceProofMemo::lookup(const TraceShape &S,
                         std::optional<Stored> Entry::*Part,
                         const std::function<T()> &Compute,
                         bool &Reused) const {
  Key K = keyOf(S);
  if (std::optional<T> Held = find<T>(K, Part)) {
    Reused = true;
    return std::move(*Held);
  }
  // Proved outside the lock, so sessions proving different shapes do not
  // wait on each other. Two that race on one shape compute equal values;
  // the first to publish wins.
  Reused = false;
  T Value = Compute();
  std::lock_guard<std::mutex> G(Lock);
  ++Computed;
  auto It = Entries.find(K);
  if (It == Entries.end()) {
    if (Entries.size() >= Cap)
      return Value;
    It = Entries
             .emplace(Key{K.Config, {K.Blocks.begin(), K.Blocks.end(), &Arena}},
                      Entry())
             .first;
  }
  std::optional<Stored> &Slot = It->second.*Part;
  if (!Slot)
    Slot = store(Value, &Arena);
  return Value;
}

TraceVerdict
TraceProofMemo::verdict(const TraceShape &S,
                        const std::function<TraceVerdict()> &Compute,
                        bool &Reused) const {
  return lookup(S, &Entry::Verdict, Compute, Reused);
}

std::vector<TraceMemFact> TraceProofMemo::memFacts(
    const TraceShape &S,
    const std::function<std::vector<TraceMemFact>()> &Compute,
    bool &Reused) const {
  return lookup(S, &Entry::MemFacts, Compute, Reused);
}

std::optional<TraceVerdict>
TraceProofMemo::findVerdict(const TraceShape &S) const {
  return find<TraceVerdict>(keyOf(S), &Entry::Verdict);
}

std::optional<std::vector<TraceMemFact>>
TraceProofMemo::findMemFacts(const TraceShape &S) const {
  return find<std::vector<TraceMemFact>>(keyOf(S), &Entry::MemFacts);
}

TraceProofMemo::Held TraceProofMemo::held(const TraceShape &S) const {
  Key K = keyOf(S);
  std::lock_guard<std::mutex> G(Lock);
  auto It = Entries.find(K);
  if (It == Entries.end())
    return {};
  return {It->second.Verdict.has_value(), It->second.MemFacts.has_value()};
}

uint64_t TraceProofMemo::proofsComputed() const {
  std::lock_guard<std::mutex> G(Lock);
  return Computed;
}

size_t TraceProofMemo::shapesHeld() const {
  std::lock_guard<std::mutex> G(Lock);
  return Entries.size();
}
