//===- analysis/TraceProofs.h - Per-module memo of trace proofs -*- C++ -*-===//
///
/// \file
/// What promotion-time checking concludes about a trace depends only
/// on the module, the trace's block sequence and the optimizer
/// configuration: the translation validator's verdict re-runs the
/// optimizer over the linearized blocks and proves the result, and the
/// alias analysis' check-elision facts walk the same blocks over the
/// module's static facts. Nothing a session does can change either. So
/// the module keeps one memo of them (PreparedModule::proofs()), keyed by
/// the trace's *shape* -- block sequence plus a fingerprint of every
/// optimizer setting -- and each shape is proved once per module, however
/// many sessions promote it.
///
/// The entries are analysis-layer values (the validator's reason is an
/// opaque code), so the module layer owning the memo depends on neither
/// the trace cache nor the validator. The memo holds at most MaxShapes
/// shapes; past that, a shape is proved on every request and not kept.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_ANALYSIS_TRACEPROOFS_H
#define JTC_ANALYSIS_TRACEPROOFS_H

#include "analysis/Alias.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory_resource>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace jtc {
namespace analysis {

/// The translation validator's verdict on one trace shape: the fields of
/// validate::Result, with the validate::Reason as its code.
struct TraceVerdict {
  bool Ok = true;
  uint32_t ReasonCode = 0;
  uint32_t SegmentIndex = 0;
  std::string Detail;

  bool operator==(const TraceVerdict &) const = default;
};

/// A trace shape: the module-relative block ids of a trace, and a
/// fingerprint of the optimizer configuration it is proved under.
struct TraceShape {
  const std::vector<uint32_t> &Blocks;
  uint64_t ConfigFingerprint = 0;
};

/// Thread-safe, content-keyed memo of trace verdicts and check-elision
/// facts. Entries are published first-wins and never change afterwards.
/// They live in an arena of whole pages the memo owns (like the module's
/// static facts, see pageResource()), which it maps when the first entry
/// is published.
class TraceProofMemo {
public:
  /// Shapes retained per module. A default javac or soot session builds
  /// about 2000 traces.
  static constexpr size_t MaxShapes = 4096;

  explicit TraceProofMemo(size_t Cap = MaxShapes);
  TraceProofMemo(const TraceProofMemo &) = delete;
  TraceProofMemo &operator=(const TraceProofMemo &) = delete;

  /// The verdict on \p S. \p Compute proves it when the memo has none;
  /// \p Reused tells whether the memo answered.
  TraceVerdict verdict(const TraceShape &S,
                       const std::function<TraceVerdict()> &Compute,
                       bool &Reused) const;

  /// The check-elision facts for \p S, computed by \p Compute when the
  /// memo has none.
  std::vector<TraceMemFact>
  memFacts(const TraceShape &S,
           const std::function<std::vector<TraceMemFact>()> &Compute,
           bool &Reused) const;

  /// What the memo holds for \p S, computing nothing: for audits that
  /// must not fill the memo themselves.
  std::optional<TraceVerdict> findVerdict(const TraceShape &S) const;
  std::optional<std::vector<TraceMemFact>>
  findMemFacts(const TraceShape &S) const;

  /// Which parts of \p S's entry the memo holds, copying neither: what
  /// verdict() and memFacts() would answer without computing.
  struct Held {
    bool Verdict = false;
    bool MemFacts = false;
  };
  Held held(const TraceShape &S) const;

  /// Verdicts and fact lists computed through the memo so far, kept or
  /// not.
  uint64_t proofsComputed() const;
  /// Shapes the memo holds.
  size_t shapesHeld() const;

private:
  struct Key {
    uint64_t Config = 0;
    std::pmr::vector<uint32_t> Blocks;
    bool operator==(const Key &) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const;
  };
  struct Entry {
    /// Detail is empty, so held inline, for every accepted verdict.
    std::optional<TraceVerdict> Verdict;
    std::optional<std::pmr::vector<TraceMemFact>> MemFacts;
  };

  static Key keyOf(const TraceShape &S) {
    return {S.ConfigFingerprint, {S.Blocks.begin(), S.Blocks.end()}};
  }

  /// The held value of one entry part, stored as Stored.
  template <typename T, typename Stored>
  std::optional<T> find(const Key &K, std::optional<Stored> Entry::*Part) const;

  /// The shared lookup-or-compute of one entry part.
  template <typename T, typename Stored>
  T lookup(const TraceShape &S, std::optional<Stored> Entry::*Part,
           const std::function<T()> &Compute, bool &Reused) const;

  const size_t Cap;
  /// Guards everything below.
  mutable std::mutex Lock;
  mutable std::pmr::monotonic_buffer_resource Arena;
  mutable std::pmr::unordered_map<Key, Entry, KeyHash> Entries{&Arena};
  mutable uint64_t Computed = 0;
};

} // namespace analysis
} // namespace jtc

#endif // JTC_ANALYSIS_TRACEPROOFS_H
