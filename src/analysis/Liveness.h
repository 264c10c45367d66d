//===- analysis/Liveness.h - Backward liveness of locals --------*- C++ -*-===//
///
/// \file
/// Classic backward may-liveness of method locals: a local is live at a
/// program point when some path from that point reads it before writing
/// it. Only Iload/Istore/Iinc touch locals in this instruction set
/// (calls communicate through the operand stack), so the transfer
/// function is tiny. The trace optimizer uses the per-pc live-in sets to
/// avoid materializing dead locals at side exits, and the lint pass uses
/// them to flag dead stores.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_ANALYSIS_LIVENESS_H
#define JTC_ANALYSIS_LIVENESS_H

#include "analysis/Cfg.h"

#include <cstdint>
#include <memory_resource>
#include <vector>

namespace jtc {
namespace analysis {

/// A set of local indices as a bitset. Locals 0-63 live inline, so a set
/// over a method of up to 64 locals (every workload method) allocates
/// nothing; larger methods keep the rest in overflow words.
class LocalSet {
public:
  LocalSet() = default;
  explicit LocalSet(uint32_t NumLocals) : High(overflowWords(NumLocals), 0) {}

  void set(uint32_t L) { word(L) |= bit(L); }
  void clear(uint32_t L) { word(L) &= ~bit(L); }
  bool test(uint32_t L) const {
    if (L < 64)
      return Low & bit(L);
    return L / 64 - 1 < High.size() && (High[L / 64 - 1] & bit(L));
  }

  /// Into |= From; returns true when anything changed.
  bool unionWith(const LocalSet &From) {
    if (High.size() < From.High.size())
      High.resize(From.High.size(), 0);
    bool Changed = (Low | From.Low) != Low;
    Low |= From.Low;
    for (uint32_t W = 0; W < From.High.size(); ++W) {
      uint64_t Next = High[W] | From.High[W];
      Changed |= Next != High[W];
      High[W] = Next;
    }
    return Changed;
  }

  uint32_t count() const {
    auto N = static_cast<uint32_t>(__builtin_popcountll(Low));
    for (uint64_t W : High)
      N += static_cast<uint32_t>(__builtin_popcountll(W));
    return N;
  }

  bool operator==(const LocalSet &O) const = default;

private:
  friend class LivenessFacts;

  static uint32_t overflowWords(uint32_t NumLocals) {
    return NumLocals > 64 ? (NumLocals - 1) / 64 : 0;
  }
  static uint64_t bit(uint32_t L) { return uint64_t{1} << (L % 64); }
  uint64_t &word(uint32_t L) { return L < 64 ? Low : High[L / 64 - 1]; }

  uint64_t Low = 0;           ///< Locals 0-63.
  std::vector<uint64_t> High; ///< Locals 64 and up, 64 per word.
};

/// Per-pc live-in sets for one method, stored as one flat word table.
class LivenessFacts {
public:
  /// The table is allocated from \p Mem.
  static LivenessFacts
  compute(const MethodCfg &Cfg,
          std::pmr::memory_resource *Mem = std::pmr::get_default_resource());

  /// Locals live immediately before the instruction at \p Pc. A \p Pc of
  /// Code.size() (a fallthrough exit) yields the empty set.
  LocalSet liveIn(uint32_t Pc) const;

  bool isLiveIn(uint32_t Pc, uint32_t Local) const {
    size_t W = size_t{Pc} * WordsPerPc + Local / 64;
    return Local < NumLocals && W < Words.size() &&
           (Words[W] & LocalSet::bit(Local));
  }

private:
  LivenessFacts(uint32_t NumPcs, uint32_t NumLocals,
                std::pmr::memory_resource *Mem)
      : NumLocals(NumLocals),
        WordsPerPc(1 + LocalSet::overflowWords(NumLocals)),
        Words(size_t{NumPcs} * WordsPerPc, 0, Mem) {}

  uint32_t NumLocals;
  uint32_t WordsPerPc;
  /// Pc-major: a set's inline word, then its overflow words.
  std::pmr::vector<uint64_t> Words;
};

} // namespace analysis
} // namespace jtc

#endif // JTC_ANALYSIS_LIVENESS_H
