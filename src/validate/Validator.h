//===- validate/Validator.h - Trace translation validation ------*- C++ -*-===//
///
/// \file
/// A translation validator for the trace optimizer, in the
/// CompCert-style "verify each translation, not the translator" mold:
/// instead of trusting TraceOptimizer, every optimized segment is proved
/// equivalent to its source segment when the native tier promotes the
/// trace. No tier runs the optimized form, so a trace whose proof fails
/// still compiles and dispatches unchanged: the rejection only withholds
/// its check elision (and --validate=strict aborts).
///
/// The proof is an abstract bisimulation over the two straight-line
/// instruction sequences. Both are evaluated symbolically into a shared
/// hash-consed expression DAG (so syntactically different but
/// semantically equal computations converge to the same node id), an
/// ordered list of observable effects (prints, heap operations,
/// possibly-trapping divisions), and a journal of guard observations.
/// The refinement relation then requires, under the trace's guard
/// assumptions (entry constants + passed guards):
///
///  - every source guard is either matched by an optimized guard over
///    the same condition values with identical exit metadata, or is
///    *justified*: its condition is implied by entry facts (constant
///    operands that evaluate to the recorded direction) or dominated by
///    an equivalent earlier check that already passed;
///  - at every matched side exit, the optimized machine state restores
///    the source state -- all live root-frame locals (dead-at-exit
///    locals may diverge only when the guard carries liveness facts),
///    an identical operand stack, and no observable effect reordered
///    across the exit;
///  - final locals, final stack and the full effect list agree.
///
/// Failures carry a typed Reason so tests can assert *why* a deliberate
/// miscompile (opt/OptConfig.h's UnsoundPass hook) was rejected, and so
/// rejection telemetry is aggregable by cause.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_VALIDATE_VALIDATOR_H
#define JTC_VALIDATE_VALIDATOR_H

#include "opt/TraceOptimizer.h"
#include "support/TypedError.h"

#include <cstdint>
#include <string>

namespace jtc {

namespace analysis {
class ModuleAnalysis;
}

namespace validate {

/// Why a segment pair failed validation. Order is part of the public
/// surface: reason codes are persisted in telemetry events and corpus
/// fixtures, so new reasons go at the end.
enum class Reason : uint8_t {
  None = 0,             ///< Accepted.
  ShapeMismatch,        ///< Frame metadata (locals, scratch, entry facts) differs.
  Unsupported,          ///< The symbolic evaluator cannot model the segment.
  GuardDropped,         ///< A source guard vanished without justification.
  GuardExtra,           ///< The optimized form checks a guard the source never did.
  GuardOperandMismatch, ///< Matched guard tests different condition values.
  GuardExitMismatch,    ///< Matched guard's exit pc / liveness metadata differs.
  SideExitLocalMismatch,  ///< A live local is wrong at a side exit.
  SideExitStackMismatch,  ///< The operand stack is wrong at a side exit.
  SideExitEffectMismatch, ///< An effect moved across a side exit.
  EffectMismatch,         ///< Observable effect lists disagree.
  FinalLocalMismatch,     ///< A local's final value differs.
  FinalStackMismatch,     ///< The final operand stack differs.
  MemLoadUnjustified,  ///< A heap load vanished without a proof that its
                       ///< value and checks were already established.
  MemStoreUnjustified, ///< A heap store vanished (or appeared) without a
                       ///< dead-store proof, or final heaps diverge.
  MemSinkUnjustified,  ///< A heap store crossed a side exit without a
                       ///< proof the exit path cannot observe the cell.
};

inline constexpr unsigned NumReasons =
    static_cast<unsigned>(Reason::MemSinkUnjustified) + 1;

/// Stable kebab-case name (telemetry, --json, corpus fixtures).
const char *reasonName(Reason R);

/// The TypedError domain for validation rejections ("validate").
const ErrorDomain &reasonDomain();

/// The verdict for one segment pair or a whole trace.
struct Result {
  bool Ok = true;
  Reason Why = Reason::None;
  /// Index of the failing segment within the trace (0 for single-segment
  /// validation).
  uint32_t SegmentIndex = 0;
  /// Human-readable specifics (local index, guard position, ...).
  std::string Detail;

  static Result pass() { return Result(); }
  static Result fail(Reason Why, std::string Detail) {
    Result R;
    R.Ok = false;
    R.Why = Why;
    R.Detail = std::move(Detail);
    return R;
  }

  /// This verdict as the repo-uniform TypedError (success when Ok).
  TypedError typed() const {
    if (Ok)
      return TypedError();
    return TypedError(reasonDomain(), static_cast<uint32_t>(Why), Detail);
  }
};

/// Proves \p Opt a sound refinement of \p Src under the segment's entry
/// assumptions. Both segments are evaluated from the same fully symbolic
/// initial state, so acceptance means equivalence for *every* initial
/// (locals, stack, heap) -- the validator never needs to trust the
/// optimizer's reasoning, only re-check its conclusion.
///
/// Heap accesses evaluate against a symbolic heap (a chain of store
/// frames over an opaque initial heap, with same-cell collapse and
/// commuting of provably distinct frames), so a redundant load the
/// optimizer forwarded converges to the same value id as the source's
/// load. Omitted load effects must be justified by an earlier access to
/// the same address or a trap-freedom proof; omitted or sunk stores must
/// be proven dead (overwritten, or targeting an allocation the exit
/// path / segment end provably cannot observe). \p M supplies class
/// field counts for those trap-freedom proofs; without it the memory
/// justifications that need one are rejected. Reference reasoning
/// assumes type-verified input (an allocation's reference cannot be
/// forged from arithmetic), which the bytecode verifier guarantees.
Result validateSegment(const LinearSegment &Src, const LinearSegment &Opt,
                       const Module *M = nullptr);

/// Convenience for the trace-install path: linearizes \p T, optimizes
/// each segment under \p Config, and validates every pair. The first
/// failing segment decides the verdict (SegmentIndex tells which).
/// \p Facts must be the analysis the optimizer itself would use --
/// validation re-runs the optimizer, it does not take its output on
/// faith.
Result validateTrace(const PreparedModule &PM, const Trace &T,
                     const OptConfig &Config = OptConfig(),
                     const analysis::ModuleAnalysis *Facts = nullptr);

} // namespace validate
} // namespace jtc

#endif // JTC_VALIDATE_VALIDATOR_H
