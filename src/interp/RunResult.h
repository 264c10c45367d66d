//===- interp/RunResult.h - Interpreter run outcomes ------------*- C++ -*-===//
///
/// \file
/// The result record shared by both dispatch models: how a run ended and
/// the dispatch/instruction counts the experiments consume.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_INTERP_RUNRESULT_H
#define JTC_INTERP_RUNRESULT_H

#include "runtime/Trap.h"

#include <cstdint>

namespace jtc {

/// Why a run stopped.
enum class RunStatus : uint8_t {
  Finished,        ///< Entry method returned or Halt executed.
  Trapped,         ///< A runtime trap fired; see RunResult::Trap.
  BudgetExhausted, ///< The instruction budget ran out.
};

/// The status's name as every tool prints it: "finished", "trapped" or
/// "budget-exhausted".
constexpr const char *runStatusName(RunStatus S) {
  switch (S) {
  case RunStatus::Finished:
    return "finished";
  case RunStatus::Trapped:
    return "trapped";
  case RunStatus::BudgetExhausted:
    return "budget-exhausted";
  }
  return "unknown";
}

struct RunResult {
  RunStatus Status = RunStatus::Finished;
  TrapKind Trap = TrapKind::None;
  uint64_t Instructions = 0; ///< Instructions executed.
  uint64_t Dispatches = 0;   ///< Dispatches the model performed.
};

} // namespace jtc

#endif // JTC_INTERP_RUNRESULT_H
