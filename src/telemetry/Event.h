//===- telemetry/Event.h - Trace lifecycle events ---------------*- C++ -*-===//
///
/// \file
/// The POD event vocabulary of the telemetry subsystem. Every adaptive
/// action the system takes -- a trace being constructed, dispatched,
/// completed, exited early, replaced, retired or invalidated, a profiler
/// state-change signal, a decay pass -- is recordable as one fixed-size
/// Event stamped with the VM's logical clock (VmStats::BlocksExecuted),
/// so a run's adaptive behaviour can be replayed and visualized after the
/// fact. This is the observability layer the paper's whole evaluation
/// implicitly relies on: Tables I-V are aggregates over exactly these
/// events.
///
/// Telemetry is compiled out entirely when the JTC_TELEMETRY CMake option
/// is OFF; the instrumentation sites use JTC_RECORD_EVENT (EventRing.h),
/// which expands to nothing in that configuration. When compiled in but
/// disabled at runtime, each site costs one predictable null-pointer
/// branch.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_TELEMETRY_EVENT_H
#define JTC_TELEMETRY_EVENT_H

#include <cstdint>

namespace jtc {

#ifdef JTC_TELEMETRY
/// True when the telemetry instrumentation is compiled in
/// (-DJTC_TELEMETRY=ON, the default).
inline constexpr bool TelemetryCompiledIn = true;
#else
inline constexpr bool TelemetryCompiledIn = false;
#endif

/// What happened. The Id/Arg payload of the Event depends on the kind;
/// see each enumerator.
enum class EventKind : uint8_t {
  TraceConstructed,  ///< Id = trace, Arg = length in blocks.
  TraceReused,       ///< Hash-cons hit: Id = trace, Arg = length.
  TraceReplaced,     ///< Id = killed trace, Arg = the replacing trace.
  TraceInvalidated,  ///< Stale fragment: Id = killed, Arg = fresh trace.
  TraceRetired,      ///< Poor completion: Id = trace, Arg = observed
                     ///< completion in basis points (0..10000).
  TraceDispatched,   ///< Entry-pair hit: Id = trace.
  TraceCompleted,    ///< Ran to the last block: Id = trace, Arg = length.
  TraceEarlyExit,    ///< Divergence: Id = trace, Arg = blocks executed.
  ProfilerSignal,    ///< Id = BCG node, Arg = new NodeState.
  DecayPass,         ///< Id = BCG node whose counters were halved.
  SnapshotSaved,     ///< Durable .jtcp written: Id = traces, Arg = nodes.
  SnapshotLoaded,    ///< Durable .jtcp installed: Id = traces, Arg = nodes.
  SnapshotRejected,  ///< Load refused: Arg = PersistErrorKind.
  BtraceStarted,     ///< Branch-trace capture began: Arg = sync interval.
  BtraceFlushed,     ///< Encoder buffer flushed: Arg = bytes written.
  BtraceDropped,     ///< Capture abandoned (sink write failed): Arg =
                     ///< bytes lost in the unflushed buffer.
  TraceValidated,    ///< Promotion-time translation validation
                     ///< accepted: Id = trace, Arg = length in blocks.
  TraceValidationRejected, ///< Validation proof failed (the trace compiles
                           ///< without check elision): Id = trace, Arg =
                           ///< validate::Reason code.
  TraceCompiled,         ///< Backend promoted a trace to native code:
                         ///< Id = trace, Arg = code bytes emitted.
  TraceCompileFallback,  ///< Promotion failed; the trace stays on the
                         ///< interpreter tier: Id = trace, Arg =
                         ///< backend::CompileFallback code.
  ConnAccepted,          ///< Fleet front-end accepted a connection:
                         ///< Id = connection id.
  ConnClosed,            ///< Connection ended (either side): Id = conn.
  RequestRejectedBackpressure, ///< Admission control refused a session:
                               ///< Id = shard, Arg = queue depth.
  ShardRestarted,        ///< Supervisor respawned a crashed shard:
                         ///< Id = shard, Arg = restart count.
  AggregateMerged,       ///< Fleet profile aggregate rebuilt: Id =
                         ///< traces kept, Arg = snapshots merged.
};

inline constexpr unsigned NumEventKinds =
    static_cast<unsigned>(EventKind::AggregateMerged) + 1;

/// Stable machine-readable name ("trace-constructed", "decay-pass", ...).
const char *eventKindName(EventKind K);

/// One recorded occurrence. Trivially copyable plain data.
struct Event {
  uint64_t Clock = 0; ///< VmStats::BlocksExecuted at record time.
  uint32_t Id = 0;    ///< TraceId or NodeId, per EventKind.
  uint32_t Arg = 0;   ///< Kind-specific payload (see EventKind).
  EventKind Kind = EventKind::TraceConstructed;

  bool isTraceLifecycle() const { return Kind < EventKind::ProfilerSignal; }
};

} // namespace jtc

#endif // JTC_TELEMETRY_EVENT_H
