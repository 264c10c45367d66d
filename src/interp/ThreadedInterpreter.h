//===- interp/ThreadedInterpreter.h - Plain and profiled runs ---*- C++ -*-===//
///
/// \file
/// The wall-clock engine of the paper's Tables VI and VII: the
/// direct-threaded-inlining interpreter run to completion, either plain or
/// with the branch-correlation-graph hook executed at every block
/// dispatch. Both are thin loops over the VM's one block executor
/// (BlockStepper over the module's pre-decoded code) through
/// runBlocksWithHook -- a no-op hook for the plain run, the BCG hook for
/// the profiled one -- so the two differ in exactly the hook, and time
/// the same code TraceVM dispatches through.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_INTERP_THREADEDINTERPRETER_H
#define JTC_INTERP_THREADEDINTERPRETER_H

#include "interp/PreparedModule.h"
#include "interp/RunResult.h"
#include "profile/BranchCorrelationGraph.h"
#include "runtime/Trap.h"

#include <cstdint>
#include <vector>

namespace jtc {

/// Outcome of a threaded run.
struct ThreadedResult {
  RunStatus Status = RunStatus::Finished;
  TrapKind Trap = TrapKind::None;
  uint64_t Instructions = 0;    ///< Instructions executed.
  uint64_t BlockDispatches = 0; ///< Block entries, as in the Fig. 2 model.
  std::vector<int64_t> Output;  ///< Iprint values, in order.
};

/// Runs a prepared module on a fresh machine per call.
class ThreadedProgram {
public:
  /// The PreparedModule must outlive this object.
  explicit ThreadedProgram(const PreparedModule &PM) : PM(&PM) {}

  /// Runs to completion with no profiling.
  ThreadedResult run(uint64_t MaxInstructions = ~0ull) const;

  /// Runs with the branch-correlation-graph hook executed at every block
  /// dispatch (the paper's Table VI configuration).
  ThreadedResult runProfiled(BranchCorrelationGraph &Graph,
                             uint64_t MaxInstructions = ~0ull) const;

  /// Decoded code size in slots (includes synthetic dispatch slots).
  size_t codeSize() const { return PM->codeSize(); }

private:
  const PreparedModule *PM;
};

} // namespace jtc

#endif // JTC_INTERP_THREADEDINTERPRETER_H
