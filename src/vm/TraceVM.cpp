//===- vm/TraceVM.cpp -----------------------------------------------------===//

#include "vm/TraceVM.h"

#include <algorithm>
#include <cassert>

using namespace jtc;

TraceVM::TraceVM(const PreparedModule &PM, VmOptions Options)
    : PM(&PM), Options(Options), Mach(PM.module()), Stepper(PM, Mach),
      Engine(PM, this->Options) {
  // Auto resolves here: Jit when the host can run template code. Jit on
  // an unsupported host still gets a native tier, which records a
  // HostUnsupported fallback per promotion and never runs a trace.
  backend::BackendKind Kind = this->Options.backend();
  backend::BackendConfig Config = this->Options.backendConfig();
  if (Kind == backend::BackendKind::Auto)
    Kind = backend::jitSupportedHost() && !Config.SimulateUnsupportedHost
               ? backend::BackendKind::Jit
               : backend::BackendKind::Interp;
  if (Kind == backend::BackendKind::Jit)
    Jit = std::make_unique<backend::JitBackend>(PM, Config);
#ifdef JTC_TELEMETRY
  if (this->Options.telemetry()) {
    Ring = EventRing(this->Options.telemetryCapacity(),
                     &Engine.stats().BlocksExecuted);
    Telem = &Ring;
    Engine.setTelemetry(&Ring);
    if (Jit)
      Jit->setTelemetry(&Ring);
    Sampler = PhaseSampler<VmStats>(this->Options.sampleInterval());
  }
#endif
}

void TraceVM::importSeed(const VmSeed &Seed) {
  assert(!Ran && "importSeed must precede run()");
  Engine.importSeed(Seed);
}

RunResult TraceVM::run() {
  // Single-shot contract: executing again over the dirty machine, graph
  // and cache state would silently produce garbage, so a reuse surfaces
  // as a distinct trap (and an assertion failure in checked builds).
  if (Ran) {
    assert(!Ran && "TraceVM::run is single-shot; construct a fresh VM");
    RunResult R;
    R.Status = RunStatus::Trapped;
    R.Trap = TrapKind::VmReuse;
    return R;
  }
  Ran = true;

  RunResult R;
  Stepper.start();
  BlockId Cur = Stepper.currentBlock();

  Engine.begin(Cur);
  if (Sink)
    Sink->onRunStart(Cur);

  VmStats &Stats = Engine.stats();
  const uint64_t Budget = Options.maxInstructions();
  while (true) {
    BlockStepper::StepStatus S = Stepper.step(); // executes Cur
    Engine.executed(Cur);
#ifdef JTC_TELEMETRY
    if (Sampler.enabled() && Stats.BlocksExecuted >= Sampler.nextSampleAt())
      Sampler.sample(Stats.BlocksExecuted, currentStats());
#endif

    if (S != BlockStepper::StepStatus::Continue) {
      Engine.endRun();
      R.Status = S == BlockStepper::StepStatus::Finished ? RunStatus::Finished
                                                         : RunStatus::Trapped;
      break;
    }
    if (Stepper.instructions() >= Budget) {
      Engine.endRun();
      R.Status = RunStatus::BudgetExhausted;
      break;
    }

    BlockId Next = Stepper.currentBlock();
    if (Sink)
      Sink->onTransition(Cur, Next);
    // A transition that enters a trace runs it whole; the transition that
    // ends one run may enter the next trace.
    const Trace *T = Engine.transition(Cur, Next);
    while (T) {
      uint32_t Committed = 0;
      TraceRunResult TR = runTrace(*T, Committed);
      // A native run ends on a block boundary the budget may fall on.
      if (!TR.endsSession() && Stepper.instructions() >= Budget)
        TR.End = TraceRunEnd::BudgetExhausted;
      T = Engine.commitRun(TR, Committed, Sink);
      if (TR.endsSession()) {
        R.Status = TR.End == TraceRunEnd::Finished  ? RunStatus::Finished
                   : TR.End == TraceRunEnd::Trapped ? RunStatus::Trapped
                                                    : RunStatus::BudgetExhausted;
        goto done;
      }
    }
    Cur = Stepper.currentBlock();
  }

done:
  R.Trap = Mach.trap();
  Stats = currentStats();
  R.Instructions = Stats.Instructions;
  R.Dispatches = Stats.totalDispatches();
  if (Sink)
    Sink->onRunEnd(R, Stats);
  return R;
}

TraceRunResult TraceVM::runTrace(const Trace &T, uint32_t &Committed) {
  if (Jit) {
    // The loop only dispatches with budget left, so the subtraction cannot
    // underflow.
    if (std::optional<TraceRunResult> TR = Jit->run(
            T, Stepper, Options.maxInstructions() - Stepper.instructions())) {
      // A sample on the last block may complete the trace and free it, so
      // T is only read before that.
      ranTraceBlocks(T, 0, TR->BlocksRun, Committed);
      Stepper.resumeAt(TR->NextBlock);
      return *TR;
    }
  }
  return stepTrace(T, Committed);
}

TraceRunResult TraceVM::stepTrace(const Trace &T, uint32_t &Committed) {
  const std::span<const BlockId> Blocks(T.Blocks);
  const uint32_t Len = static_cast<uint32_t>(Blocks.size());
  const uint64_t Budget = Options.maxInstructions();
  uint32_t I = 0; // trace blocks run
  while (true) {
    // A due phase sample bounds the run at its block, so the sample reads
    // the instruction count there; the run then carries on from it.
    uint32_t Stop = Len;
#ifdef JTC_TELEMETRY
    if (Sampler.enabled())
      Stop = static_cast<uint32_t>(
          std::min<uint64_t>(Len, I + Sampler.nextSampleAt() -
                                      Engine.stats().BlocksExecuted));
#endif
    const uint32_t From = I;
    const BlockStepper::TraceStep S =
        Stepper.runTrace(Blocks.subspan(I, Stop - I), Budget);
    I += S.BlocksRun;
    const BlockId Next = Stepper.currentBlock();
    if (S.Status == BlockStepper::StepStatus::Continue &&
        Stepper.instructions() < Budget && I < Len && Next == Blocks[I]) {
      ranTraceBlocks(T, From, I, Committed); // stopped at the sample only
      continue;
    }

    TraceRunResult TR;
    TR.BlocksRun = I;
    TR.LastBlock = Blocks[I - 1];
    if (S.Status != BlockStepper::StepStatus::Continue)
      TR.End = S.Status == BlockStepper::StepStatus::Finished
                   ? TraceRunEnd::Finished
                   : TraceRunEnd::Trapped;
    else if (Stepper.instructions() >= Budget)
      TR.End = TraceRunEnd::BudgetExhausted;
    else
      TR.End = I == Len ? TraceRunEnd::Completed : TraceRunEnd::Diverged;
    if (!TR.endsSession())
      TR.NextBlock = Next;
    // A sample on the trace's last block completes the trace and may free
    // it: nothing after this reads T.
    ranTraceBlocks(T, From, I, Committed);
    return TR;
  }
}

void TraceVM::ranTraceBlocks(const Trace &T, uint32_t From, uint32_t To,
                             [[maybe_unused]] uint32_t &Committed) {
  VmStats &Stats = Engine.stats();
#ifdef JTC_TELEMETRY
  const bool SampleDue = Sampler.enabled() &&
                         Stats.BlocksExecuted + (To - From) >=
                             Sampler.nextSampleAt();
#else
  constexpr bool SampleDue = false;
#endif
  if (!Sink && !SampleDue) [[likely]] {
    Stats.BlocksExecuted += To - From;
    return;
  }
  [[maybe_unused]] const uint64_t Generation =
      Engine.traceCache().generation();
  for (uint32_t I = From + 1; I <= To; ++I) {
    assert(Engine.traceCache().generation() == Generation &&
           "trace cache mutated inside a run");
    if (Sink && I > 1)
      Sink->onTransition(T.Blocks[I - 2], T.Blocks[I - 1]);
    ++Stats.BlocksExecuted;
#ifdef JTC_TELEMETRY
    if (Sampler.enabled() && Stats.BlocksExecuted >= Sampler.nextSampleAt())
      sampleInTrace(I, Committed);
#endif
  }
}

void TraceVM::sampleInTrace(uint32_t I, uint32_t &Committed) {
  Engine.executedInTrace(Committed, I);
  Committed = I;
  Sampler.sample(Engine.stats().BlocksExecuted, currentStats());
}

VmStats TraceVM::currentStats() const {
  VmStats S = Engine.snapshotStats(Stepper.instructions());
  S.EventsDropped = Ring.dropped();
  if (Jit) {
    const backend::BackendStats &BS = Jit->stats();
    S.TracesJitCompiled = BS.TracesCompiled;
    S.TraceCompileFallbacks = BS.CompileFallbacks;
    S.TraceDispatchesJit = BS.CompiledDispatches;
    S.JitCodeBytes = BS.CodeBytes;
    S.JitCodeInstrs = BS.CodeInstrs;
    S.JitCodeReused = BS.CodeReused;
    S.JitFrameOpsInline = BS.FrameOpsInline;
    S.JitFrameOpsHelper = BS.FrameOpsHelper;
    S.TracesValidated = BS.TracesValidated;
    S.TraceValidationRejects = BS.ValidationRejects;
    S.MemElisionSites = BS.MemElisionSites;
    S.MemChecksElided = BS.ChecksElided;
  }
  // Every trace entry runs exactly once, natively or block-stepped.
  S.TraceDispatchesInterp = S.TraceDispatches - S.TraceDispatchesJit;
  return S;
}
