//===- tests/SessionStats.h - Comparing two sessions' VmStats ---*- C++ -*-===//
///
/// \file
/// Tests that run several sessions over one PreparedModule compare their
/// statistics counter by counter. JitCodeReused is left out: it counts
/// the native code (and the proofs it carries) earlier sessions over the
/// module left behind, so a repeat session differs there by design. So are the JIT's frame-op counters, which split native calls
/// and returns by how they ran, not what they did. Sessions that must
/// prove and elide run on the JIT tier, the only one that does.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_TESTS_SESSIONSTATS_H
#define JTC_TESTS_SESSIONSTATS_H

#include "vm/VmOptions.h"
#include "vm/VmStats.h"

#include <string>

namespace jtc {
namespace testprog {

/// The keys of the raw counters on which \p A and \p B differ, space-
/// separated; empty when the sessions agree.
inline std::string statsDiff(const VmStats &A, const VmStats &B) {
  std::string Diff;
  for (const VmStats::FieldInfo &F : VmStats::fields())
    if (F.Counter && F.Counter != &VmStats::JitCodeReused &&
        F.Counter != &VmStats::JitFrameOpsInline &&
        F.Counter != &VmStats::JitFrameOpsHelper &&
        A.*F.Counter != B.*F.Counter)
      Diff += std::string(Diff.empty() ? "" : " ") + F.Key;
  return Diff;
}

/// \p O on the JIT tier, promoting every trace on its first dispatch:
/// promotion is where a trace is validated and annotated, so this
/// proves every dispatched trace, and maximizes native coverage in
/// short runs.
inline VmOptions promoteAll(VmOptions O = VmOptions()) {
  return O.backend(backend::BackendKind::Jit).jitPromoteAfter(0);
}

} // namespace testprog
} // namespace jtc

#endif // JTC_TESTS_SESSIONSTATS_H
