//===- analysis/Alias.h - Field-sensitive alias & escape facts --*- C++ -*-===//
///
/// \file
/// Field-sensitive alias and escape analysis over allocation sites, and
/// the trace-level memory facts it licenses.
///
/// Two consumers share this module:
///
///  * `analyzeMethodEscapes` runs an allocation-site points-to pass over
///    one method: every New/NewArray is a site, locals and stack slots
///    carry may-point-to bitsets, and each site is classified on the
///    {NoEscape, ArgEscape, GlobalEscape} lattice. Call sites are seeded
///    from the per-call-site `ModuleSummaries::callSite` facts: passing a
///    site to a callee that may write the heap is a global escape, to any
///    other callee an argument escape.
///
///  * `analyzeTraceMemory` walks a trace's block sequence with the value
///    analysis' per-instruction frame states and decides, per heap
///    access, which dynamic checks are provably redundant on the trace
///    path: a definitely-non-null receiver of a known shape needs no
///    liveness/class check (`ElideLevel::NullOnly` keeps only the bounds
///    check; `ElideLevel::Full` drops every check). Virtual-call receivers
///    are non-null by dispatch (the call would have trapped), a
///    trace-local fact the static analysis cannot see.
///
/// `analyzeModuleAliasing` bundles both into the per-module statistics
/// and unsupported-pattern diagnostics surfaced by `jtc-analyze`.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_ANALYSIS_ALIAS_H
#define JTC_ANALYSIS_ALIAS_H

#include "analysis/Cfg.h"
#include "analysis/Summaries.h"
#include "analysis/ValueAnalysis.h"
#include "bytecode/OpSemantics.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace jtc {
namespace analysis {

/// Where an allocation may become visible outside its allocating frame.
enum class EscapeClass : uint8_t {
  NoEscape,     ///< Never leaves the frame: dead at every return.
  ArgEscape,    ///< Reaches a callee or the caller (returned), heap-free.
  GlobalEscape, ///< Stored into the heap or passed to a heap-writing callee.
};

const char *escapeClassName(EscapeClass E);

/// One New/NewArray instruction and its escape classification.
struct AllocSite {
  uint32_t Pc = 0;
  bool IsArray = false;
  EscapeClass Escape = EscapeClass::NoEscape;
};

/// Escape results for one method.
struct MethodEscapeFacts {
  std::vector<AllocSite> Sites;
  /// More than 64 sites: the untracked tail is conservatively
  /// GlobalEscape and excluded from points-to tracking.
  bool Overflowed = false;
};

/// Allocation-site points-to + escape pass for one method. \p Values must
/// belong to \p Cfg.
MethodEscapeFacts analyzeMethodEscapes(const MethodCfg &Cfg,
                                       const MethodValueFacts &Values,
                                       const ModuleSummaries &Summaries);

/// One elidable heap access inside a trace, addressed by the trace's
/// block index and the instruction's pc in its method.
struct TraceMemFact {
  uint32_t BlockIndex = 0;
  uint32_t Pc = 0;
  ElideLevel Elide = ElideLevel::NullOnly; ///< NullOnly or Full.

  bool operator==(const TraceMemFact &) const = default;
};

/// Aggregate counters for heap-access classification; the non-elidable
/// buckets name the unsupported pattern that blocked the proof.
struct AliasStats {
  uint64_t MemOps = 0;        ///< Heap accesses examined.
  uint64_t ElidedNull = 0;    ///< Liveness/class check elidable.
  uint64_t ElidedFull = 0;    ///< All checks elidable.
  uint64_t MayNullBase = 0;   ///< Blocked: base may be null.
  uint64_t UnknownBase = 0;   ///< Blocked: base shape unknown (top/any).
  uint64_t AllocSites = 0;
  uint64_t NoEscape = 0;
  uint64_t ArgEscape = 0;
  uint64_t GlobalEscape = 0;
};

/// One block of a trace, decoupled from the profile layer's block table.
struct TraceBlockSpan {
  uint32_t MethodId = 0;
  uint32_t StartPc = 0;
  uint32_t EndPc = 0;
};

/// Provider of per-method value facts (null when the method has none).
using ValueFactsFn = std::function<const MethodValueFacts *(uint32_t)>;

/// Walks \p Blocks as the trace executes them (tracking the frame stack
/// across the calls and returns that separate blocks) and returns every
/// heap access whose checks the analysis can prove redundant, ordered by
/// position. \p Stats, when given, accumulates classification counters.
std::vector<TraceMemFact> analyzeTraceMemory(const Module &M,
                                             const ValueFactsFn &Facts,
                                             const std::vector<TraceBlockSpan> &Blocks,
                                             AliasStats *Stats = nullptr);

/// Per-module report for jtc-analyze.
struct ModuleAliasReport {
  AliasStats Stats;
  /// Human-readable unsupported-pattern diagnostics (capped).
  std::vector<std::string> Diagnostics;
  /// Per-method escape facts, indexed by method id.
  std::vector<MethodEscapeFacts> Escapes;
};

ModuleAliasReport analyzeModuleAliasing(const Module &M,
                                        const ValueFactsFn &Facts,
                                        const ModuleSummaries &Summaries);

} // namespace analysis
} // namespace jtc

#endif // JTC_ANALYSIS_ALIAS_H
