//===- fuzz/Minimizer.h - Greedy failing-case reduction ---------*- C++ -*-===//
///
/// \file
/// Delta-debugging for oracle failures. Given a module and a predicate
/// that re-runs the failing check, the minimizer greedily shrinks the
/// module while the failure reproduces: whole non-entry methods are
/// stubbed out, contiguous instruction ranges are deleted (with branch
/// and switch targets remapped across the cut), methods no other method
/// calls any more are dropped, and constants are zeroed. Every candidate is gated through the static verifier before
/// the predicate runs, so the reduction never leaves the space of valid
/// programs and the final module is a valid, small reproducer.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_FUZZ_MINIMIZER_H
#define JTC_FUZZ_MINIMIZER_H

#include "bytecode/Program.h"

#include <cstdint>
#include <functional>

namespace jtc {
namespace fuzz {

struct MinimizerStats {
  uint64_t CandidatesTried = 0;    ///< Valid candidates handed to the predicate.
  uint64_t CandidatesAccepted = 0; ///< Candidates that still failed.
  unsigned Rounds = 0;             ///< Full pass rounds executed.
};

/// Shrinks \p M while \p StillFails holds. \p StillFails must return true
/// for \p M itself (the unreduced failure); it is only ever called with
/// verifier-valid modules. Runs full rounds of all reduction passes until
/// a round makes no progress or \p MaxRounds is reached, and returns the
/// smallest failing module found.
Module minimizeModule(const Module &M,
                      const std::function<bool(const Module &)> &StillFails,
                      unsigned MaxRounds = 8, MinimizerStats *Stats = nullptr);

/// Total instruction count over all methods (the minimizer's size metric).
uint64_t moduleSize(const Module &M);

} // namespace fuzz
} // namespace jtc

#endif // JTC_FUZZ_MINIMIZER_H
