//===- backend/InterpreterBackend.h - Block-stepping trace tier -*- C++ -*-===//
///
/// \file
/// The baseline TraceBackend: runs a dispatched trace by block-stepping
/// it through the block executor (BlockStepper::step), exactly as the
/// plain dispatch loop runs non-trace blocks. Every other backend is measured against this tier
/// -- it is the differential-fuzzing oracle and the transparent fallback
/// for anything the JIT cannot (or should not yet) compile.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_BACKEND_INTERPRETERBACKEND_H
#define JTC_BACKEND_INTERPRETERBACKEND_H

#include "backend/TraceBackend.h"

namespace jtc {
namespace backend {

class InterpreterBackend : public TraceBackend {
public:
  const char *name() const override { return "interp"; }

  TraceRunResult run(const Trace &T, TraceRunContext &Ctx) override;
};

/// Block-steps one dispatched trace to its end (completion, divergence,
/// trap, program end, or budget cut). The mechanism behind
/// InterpreterBackend::run and the JIT's delegation path -- both tiers
/// share one definition of "run a trace by interpretation".
TraceRunResult stepTrace(const Trace &T, TraceRunContext &Ctx);

} // namespace backend
} // namespace jtc

#endif // JTC_BACKEND_INTERPRETERBACKEND_H
