//===- vm/VmOptions.h - VM configuration builder ----------------*- C++ -*-===//
///
/// \file
/// The single source of truth for configuring a TraceVM. Parameters that
/// several subsystems consume -- most importantly the completion
/// threshold, which the profiler uses as its strong-correlation bound and
/// the trace cache as its construction / retirement bound -- are stored
/// exactly once here, and the ProfilerConfig / TraceConfig
/// sub-configurations are derived in one place (profilerConfig() /
/// traceConfig()), so they can never silently diverge.
///
/// Setters return *this, so embedders configure fluently:
///
///   TraceVM VM(PM, VmOptions().completionThreshold(0.95).startStateDelay(1));
///
/// A default-constructed VmOptions reproduces the paper's recommended
/// operating point (threshold 0.97, delay 64, decay 256).
///
//===----------------------------------------------------------------------===//

#ifndef JTC_VM_VMOPTIONS_H
#define JTC_VM_VMOPTIONS_H

#include "backend/BackendKind.h"
#include "opt/OptConfig.h"
#include "profile/ProfilerConfig.h"
#include "trace/TraceConfig.h"

#include <cstdint>
#include <cstdlib>
#include <string>

namespace jtc {

/// The backend a default-constructed VmOptions selects. Normally Interp
/// (the JIT is opt-in via --backend), but the JTC_BACKEND environment
/// variable overrides it so CI can force a tier across an entire test
/// suite without threading a flag through every harness.
inline backend::BackendKind defaultBackendKind() {
  static const backend::BackendKind Kind = [] {
    backend::BackendKind K = backend::BackendKind::Interp;
    if (const char *Env = std::getenv("JTC_BACKEND"))
      (void)backend::parseBackendKind(Env, K);
    return K;
  }();
  return Kind;
}

class VmOptions {
public:
  VmOptions() = default;

  //===--- Fluent setters ----------------------------------------------===//

  /// Trace completion threshold; also the strong-correlation threshold.
  /// The paper sweeps {1.00, 0.99, 0.98, 0.97, 0.95} and recommends 0.97.
  VmOptions &completionThreshold(double V) {
    Threshold = V;
    return *this;
  }

  /// Start-state delay in branch executions (paper sweeps 1/64/4096).
  VmOptions &startStateDelay(uint32_t V) {
    Delay = V;
    return *this;
  }

  /// Branch executions between decay passes.
  VmOptions &decayInterval(uint32_t V) {
    Decay = V;
    return *this;
  }

  /// Trace construction cap: maximum blocks per trace.
  VmOptions &maxTraceBlocks(uint32_t V) {
    TraceBlocks = V;
    return *this;
  }

  /// Master switches, used by the overhead experiments: profiling off
  /// yields the plain block interpreter; traces off yields the profiled
  /// interpreter without trace dispatch.
  VmOptions &profiling(bool On) {
    Profiling = On;
    return *this;
  }
  VmOptions &traces(bool On) {
    Traces = On;
    return *this;
  }

  /// Stop after this many executed instructions (safety and workload
  /// scaling).
  VmOptions &maxInstructions(uint64_t N) {
    Budget = N;
    return *this;
  }

  /// Telemetry (no effect when compiled out with -DJTC_TELEMETRY=OFF).
  /// When enabled, trace lifecycle events, profiler signals and decay
  /// passes are recorded into a fixed-capacity ring, stamped with
  /// BlocksExecuted as a logical clock. When disabled (the default) the
  /// hot dispatch path pays one predictable null-pointer branch per
  /// instrumentation site.
  VmOptions &telemetry(bool On) {
    Telemetry = On;
    return *this;
  }
  VmOptions &telemetryCapacity(uint32_t N) {
    TelemetryCap = N;
    return *this;
  }

  /// Phase sampling: snapshot VmStats deltas every this many executed
  /// blocks (0 = off). Requires telemetry(true).
  VmOptions &sampleInterval(uint64_t N) {
    Sampling = N;
    return *this;
  }

  /// Branch-trace capture: blocks between sync packets in an encoded
  /// .btc stream. Smaller intervals make streams more seekable and more
  /// loss-tolerant at a small size cost; 0 disables sync packets (the
  /// stream is then only decodable from the start).
  VmOptions &btraceSyncInterval(uint32_t N) {
    BtraceSync = N;
    return *this;
  }

  /// Deliberate trace-cache bug injection (fuzzer self-tests only; see
  /// trace/TraceConfig.h). Always None in real configurations.
  VmOptions &cacheFault(CacheFault F) {
    Fault = F;
    return *this;
  }

  /// Durable-profile hooks, honoured by the persist layer (the VM itself
  /// never touches the filesystem): load a .jtcp snapshot into the
  /// session before it runs / save one after it finishes. Empty = off.
  VmOptions &loadProfilePath(std::string Path) {
    LoadProfile = std::move(Path);
    return *this;
  }
  VmOptions &saveProfilePath(std::string Path) {
    SaveProfile = std::move(Path);
    return *this;
  }

  /// Translation validation of every trace the native tier promotes
  /// (--backend=jit/auto; the interp tier validates nothing). On by
  /// default: it runs off the dispatch path, once per trace shape and
  /// module (PreparedModule::proofs()), and gates the check elision
  /// below.
  VmOptions &validate(ValidateMode M) {
    Validate = M;
    return *this;
  }

  /// Alias-analysis check elision: when the native tier promotes a trace
  /// that validation did not reject, its code skips the heap accesses'
  /// null/class/bounds checks that are provably redundant on the trace
  /// path. The interp tier runs every check. On by default; the analysis
  /// runs once per trace shape and module, off the dispatch path, and
  /// elision never changes behaviour (the skipped checks are proven to
  /// pass), so digests are unaffected.
  VmOptions &memElide(bool On) {
    MemElide = On;
    return *this;
  }

  /// Optimizer pass selection, threaded through to validation (the
  /// validator re-optimizes under the same configuration it checks).
  /// Also carries the test-only UnsoundPass mutation hook, which lets
  /// the mutation tests drive a deliberate miscompile through the whole
  /// VM and watch the validator catch it.
  VmOptions &optConfig(const OptConfig &C) {
    Opt = C;
    return *this;
  }

  /// Trace execution backend: interp (portable reference tier), jit
  /// (x86-64 template JIT; a trace without native code is block-stepped
  /// as on interp), or auto (jit when the host supports it, else
  /// interp; resolved when the TraceVM is constructed).
  // (jtc::backend is spelled in full below: the member function named
  // `backend` hides the namespace inside this class's scope.)
  VmOptions &backend(jtc::backend::BackendKind K) {
    Backend = K;
    return *this;
  }

  /// How many completed executions promote a trace to native code
  /// (--backend=jit/auto only). 0 compiles on first dispatch.
  VmOptions &jitPromoteAfter(uint32_t N) {
    JitPromote = N;
    return *this;
  }

  /// Test/CI hook: pretend the host cannot run the JIT, so
  /// --backend=auto's graceful-fallback path is exercisable on any
  /// machine, including x86-64 ones.
  VmOptions &simulateUnsupportedHost(bool On) {
    SimUnsupported = On;
    return *this;
  }

  //===--- Getters -----------------------------------------------------===//

  double completionThreshold() const { return Threshold; }
  uint32_t startStateDelay() const { return Delay; }
  uint32_t decayInterval() const { return Decay; }
  uint32_t maxTraceBlocks() const { return TraceBlocks; }
  bool profiling() const { return Profiling; }
  bool traces() const { return Traces; }
  uint64_t maxInstructions() const { return Budget; }
  bool telemetry() const { return Telemetry; }
  uint32_t telemetryCapacity() const { return TelemetryCap; }
  uint64_t sampleInterval() const { return Sampling; }
  uint32_t btraceSyncInterval() const { return BtraceSync; }
  CacheFault cacheFault() const { return Fault; }
  const std::string &loadProfilePath() const { return LoadProfile; }
  const std::string &saveProfilePath() const { return SaveProfile; }
  ValidateMode validate() const { return Validate; }
  bool memElide() const { return MemElide; }
  const OptConfig &optConfig() const { return Opt; }
  jtc::backend::BackendKind backend() const { return Backend; }
  uint32_t jitPromoteAfter() const { return JitPromote; }
  bool simulateUnsupportedHost() const { return SimUnsupported; }

  //===--- Derived sub-configurations ----------------------------------===//
  //
  // The only place the profiler and trace-cache views of the shared
  // parameters are produced.

  ProfilerConfig profilerConfig() const {
    ProfilerConfig P;
    P.StartStateDelay = Delay;
    P.DecayInterval = Decay;
    P.CompletionThreshold = Threshold;
    return P;
  }

  TraceConfig traceConfig() const {
    TraceConfig T;
    T.CompletionThreshold = Threshold;
    T.MaxTraceBlocks = TraceBlocks;
    T.Fault = Fault;
    return T;
  }

  jtc::backend::BackendConfig backendConfig() const {
    jtc::backend::BackendConfig B;
    B.JitPromoteAfter = JitPromote;
    B.SimulateUnsupportedHost = SimUnsupported;
    B.Validate = Validate;
    B.MemElide = MemElide;
    B.Opt = Opt;
    return B;
  }

private:
  double Threshold = 0.97;
  uint32_t Delay = 64;
  uint32_t Decay = 256;
  uint32_t TraceBlocks = 64;
  bool Profiling = true;
  bool Traces = true;
  uint64_t Budget = ~0ull;
  bool Telemetry = false;
  uint32_t TelemetryCap = 1u << 16;
  uint64_t Sampling = 0;
  uint32_t BtraceSync = 4096;
  CacheFault Fault = CacheFault::None;
  std::string LoadProfile;
  std::string SaveProfile;
  ValidateMode Validate = ValidateMode::On;
  bool MemElide = true;
  OptConfig Opt;
  jtc::backend::BackendKind Backend = defaultBackendKind();
  uint32_t JitPromote = 2;
  bool SimUnsupported = false;
};

} // namespace jtc

#endif // JTC_VM_VMOPTIONS_H
