//===- analysis/Analysis.h - Umbrella + per-module bundle -------*- C++ -*-===//
///
/// \file
/// Convenience entry point: ModuleAnalysis owns the CFG, value facts and
/// liveness of a module's methods, each computed on first use, plus the
/// call-graph effect summaries. Requires a module that already passed
/// the structural + height verifier pass (see bytecode/Verifier.h);
/// building analyses over malformed code is undefined.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_ANALYSIS_ANALYSIS_H
#define JTC_ANALYSIS_ANALYSIS_H

#include "analysis/Alias.h"
#include "analysis/Cfg.h"
#include "analysis/Dataflow.h"
#include "analysis/Lint.h"
#include "analysis/Liveness.h"
#include "analysis/Summaries.h"
#include "analysis/TypeCheck.h"
#include "analysis/Value.h"
#include "analysis/ValueAnalysis.h"

#include <atomic>
#include <memory>
#include <memory_resource>
#include <mutex>

namespace jtc {
namespace analysis {

/// Whole pages mapped straight from the kernel (the process heap where
/// mmap is unavailable): the upstream of the per-module arenas, so what a
/// module retains never sits between a session's short-lived heap
/// allocations, and an arena chunk's untouched tail costs no resident
/// memory.
std::pmr::memory_resource *pageResource();

/// All facts for one method. Owns the CFG the fact objects point into.
struct MethodAnalysis {
  /// Every table is allocated from \p Mem.
  MethodAnalysis(const Module &M, uint32_t MethodId,
                 std::pmr::memory_resource *Mem)
      : Cfg(M, MethodId, Mem), Values(MethodValueFacts::compute(Cfg, Mem)),
        Liveness(LivenessFacts::compute(Cfg, Mem)) {}

  MethodCfg Cfg;
  MethodValueFacts Values;
  LivenessFacts Liveness;
};

/// Facts for the methods of one module, each computed on first use and
/// immutable afterwards, so one instance can serve every session over the
/// module (PreparedModule owns it) and sessions that touch a few methods
/// pay for those alone. Safe to query from any number of threads.
class ModuleAnalysis {
public:
  /// Computes nothing yet. \p M must outlive the analysis and must be
  /// structurally verified.
  explicit ModuleAnalysis(const Module &M) : ModuleAnalysis(M, false) {}
  ~ModuleAnalysis();
  ModuleAnalysis(const ModuleAnalysis &) = delete;
  ModuleAnalysis &operator=(const ModuleAnalysis &) = delete;

  /// Facts for every method of \p M and the effect summaries, computed
  /// now.
  static ModuleAnalysis compute(const Module &M) {
    return ModuleAnalysis(M, true);
  }

  /// The facts of method \p Id, computed on the first call. Null for
  /// (malformed) empty methods.
  const MethodAnalysis *method(uint32_t Id) const {
    const MethodAnalysis *MA = PerMethod[Id].load(std::memory_order_acquire);
    return MA ? MA : computeMethod(Id);
  }
  uint32_t numMethods() const {
    return static_cast<uint32_t>(Mod->Methods.size());
  }
  /// How many methods' facts have been computed so far.
  uint32_t methodsComputed() const;

  /// The call-graph effect summaries, computed on the first call.
  const ModuleSummaries &summaries() const;

private:
  /// \p Eager touches every method and the summaries.
  ModuleAnalysis(const Module &M, bool Eager);

  const MethodAnalysis *computeMethod(uint32_t Id) const;

  const Module *Mod;
  /// Published once per method, under Lock, with release order.
  std::unique_ptr<std::atomic<const MethodAnalysis *>[]> PerMethod;
  /// Serializes computation; guards Arena and Computed.
  mutable std::mutex Lock;
  /// Holds every computed method's facts, so the retained tables sit in
  /// chunks the module owns instead of between short-lived allocations
  /// on the process heap.
  mutable std::pmr::monotonic_buffer_resource Arena;
  mutable uint32_t Computed = 0;
  mutable std::once_flag SummariesOnce;
  mutable ModuleSummaries Effects;
};

} // namespace analysis
} // namespace jtc

#endif // JTC_ANALYSIS_ANALYSIS_H
