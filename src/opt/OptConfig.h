//===- opt/OptConfig.h - Optimizer pass configuration -----------*- C++ -*-===//
///
/// \file
/// Per-pass toggles for the trace optimizer, plus a test-only unsound
/// mutation hook.
///
/// The toggles exist for two consumers: the ablation benchmarks (measure
/// each pass alone and stacked) and the translation validator's accept
/// coverage (every pass combination must validate cleanly). The
/// UnsoundPass hook is the validator's own false-negative test: it makes
/// the optimizer deliberately miscompile in one of four distinct ways,
/// and tests/validate_test.cpp asserts each mutation class is rejected
/// with its typed reason. The hook must never be enabled outside tests.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_OPT_OPTCONFIG_H
#define JTC_OPT_OPTCONFIG_H

#include <cstdint>
#include <initializer_list>

namespace jtc {

/// Test-only deliberate miscompilations. Each fires at most once per
/// segment so a single typed validator rejection can be asserted.
enum class UnsoundPass : uint8_t {
  None = 0,
  /// Drop the first surviving guard (its operands are popped so the
  /// stack stays balanced; only the side exit vanishes).
  DropGuard,
  /// Skip the first deferred-store flush owed at a guard, leaving the
  /// local stale at that side exit; the store still lands later.
  ReorderStorePastExit,
  /// Offset the first binary constant-fold result by one.
  WrongConstant,
  /// Discard the first deferred store owed at an exit flush outright:
  /// the local's final value is simply lost.
  KillLiveOnExit,
  /// When dead-store elimination overwrites a pending heap store, emit
  /// the dead store again *after* its overwrite, resurrecting the stale
  /// value as the cell's final content.
  ResurrectDeadStore,
  /// Eliminate the first heap load the alias analysis did *not* justify,
  /// substituting a fabricated value as if the cell were known.
  AliasConfusedLoad,
};

inline const char *unsoundPassName(UnsoundPass P) {
  switch (P) {
  case UnsoundPass::None:
    return "none";
  case UnsoundPass::DropGuard:
    return "drop-guard";
  case UnsoundPass::ReorderStorePastExit:
    return "reorder-store-past-exit";
  case UnsoundPass::WrongConstant:
    return "wrong-constant";
  case UnsoundPass::KillLiveOnExit:
    return "kill-live-on-exit";
  case UnsoundPass::ResurrectDeadStore:
    return "resurrect-dead-store";
  case UnsoundPass::AliasConfusedLoad:
    return "alias-confused-load";
  }
  return "none";
}

/// Which optimizer passes run over a segment. The deferred-entry stack
/// cache itself (constants and loads pushed lazily) is the optimizer's
/// substrate and is always on; the toggles gate the transformations
/// layered on top of it.
struct OptConfig {
  /// Fold constant unary/binary arithmetic and Iinc chains.
  bool FoldConstants = true;
  /// Forward known local values (constants, copies) through Iload.
  bool ForwardLoads = true;
  /// Defer Istore until an exit point, cancelling dead stores.
  bool DeferStores = true;
  /// Drop guards whose operands are statically known to agree with the
  /// recorded direction.
  bool EliminateGuards = true;
  /// Honor per-guard liveness: locals dead at a side exit's resume pc may
  /// keep a stale value there.
  bool LivenessAtExits = true;
  /// Eliminate heap loads whose cell value is already known (a dominating
  /// load or store to the same field/element on the trace path).
  bool ElimRedundantLoads = true;
  /// Eliminate heap stores that are dead: overwritten before any exit or
  /// possible aliasing read, or targeting a non-escaping allocation whose
  /// reference provably dies inside the segment.
  bool ElimDeadStores = true;
  /// Let a pending store to a non-escaping allocation sink past side
  /// exits that provably cannot reach the allocation.
  bool SinkStores = true;
  /// Test-only deliberate miscompilation (see UnsoundPass).
  UnsoundPass Mutate = UnsoundPass::None;

  bool stock() const {
    return FoldConstants && ForwardLoads && DeferStores && EliminateGuards &&
           LivenessAtExits && ElimRedundantLoads && ElimDeadStores &&
           SinkStores && Mutate == UnsoundPass::None;
  }

  /// Every field packed into one word: equal fingerprints mean equal
  /// configurations, which optimize (and so validate) every trace alike.
  uint64_t fingerprint() const {
    uint64_t F = 0;
    for (bool On : {FoldConstants, ForwardLoads, DeferStores, EliminateGuards,
                    LivenessAtExits, ElimRedundantLoads, ElimDeadStores,
                    SinkStores})
      F = F << 1 | On;
    return F << 8 | static_cast<uint8_t>(Mutate);
  }
};
static_assert(sizeof(OptConfig) == 9,
              "a new OptConfig field must be packed into fingerprint()");

} // namespace jtc

#endif // JTC_OPT_OPTCONFIG_H
