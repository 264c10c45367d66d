//===- telemetry/Export.h - Event and time-series exporters -----*- C++ -*-===//
///
/// \file
/// Serializers for the telemetry data:
///
///  - writeEventsJsonl: one compact JSON object per event, one per line --
///    the grep/jq-friendly dump.
///  - writeChromeTrace: the Chrome trace_event format (load the file in
///    Perfetto / chrome://tracing). Each trace's lifetime is an async
///    "b"/"e" span keyed by its trace id, with dispatches, completions
///    and early exits as instants on that span; profiler signals and
///    decay passes are thread instants; phase-sampler deltas become
///    counter ("C") tracks, one per stats field, with an event only where
///    the field's value changes. Timestamps are the logical clock (blocks
///    executed), not microseconds.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_TELEMETRY_EXPORT_H
#define JTC_TELEMETRY_EXPORT_H

#include "support/Json.h"
#include "telemetry/EventRing.h"
#include "telemetry/PhaseSampler.h"

#include <optional>
#include <ostream>
#include <vector>

namespace jtc {

/// One JSON object per retained event, oldest first, one per line:
///   {"clock":1234,"kind":"trace-constructed","id":3,"arg":9}
void writeEventsJsonl(std::ostream &OS, const EventRing &Ring);

namespace telemetry_detail {
/// Emits the header fields of the trace document (inside an open object).
void writeChromeHeader(JsonWriter &W, const EventRing &Ring);
/// Emits every retained event (inside an open traceEvents array).
void writeChromeEvents(JsonWriter &W, const EventRing &Ring);
/// Emits one counter-track event (inside an open traceEvents array).
void writeCounterEvent(JsonWriter &W, const char *Series, uint64_t Clock,
                       double Value);
} // namespace telemetry_detail

/// Chrome trace of the event ring alone.
void writeChromeTrace(std::ostream &OS, const EventRing &Ring);

/// Chrome trace of the event ring plus one counter track per stats field
/// of the phase sampler (per-interval deltas and per-interval derived
/// rates), each written at the first sample and then only at the samples
/// where it changes. StatsT follows the VmStats::fields() protocol.
template <typename StatsT>
void writeChromeTrace(std::ostream &OS, const EventRing &Ring,
                      const PhaseSampler<StatsT> &Sampler) {
  JsonWriter W(OS);
  W.beginObject();
  telemetry_detail::writeChromeHeader(W, Ring);
  W.key("traceEvents").beginArray();
  telemetry_detail::writeChromeEvents(W, Ring);
  // A counter track holds its value until its next event, so each field
  // is written at the first sample and then only where its value changes.
  const auto &Fields = StatsT::fields();
  std::vector<std::optional<double>> Last(Fields.size());
  for (size_t I = 0; I < Sampler.samples().size(); ++I) {
    const uint64_t Clock = Sampler.samples()[I].Clock;
    const StatsT Delta = Sampler.delta(I);
    for (size_t K = 0; K < Fields.size(); ++K) {
      const auto &F = Fields[K];
      double V;
      if (F.Counter)
        V = static_cast<double>(Delta.*(F.Counter));
      else if (F.Derived)
        V = (Delta.*(F.Derived))();
      else if (F.DerivedCount)
        V = static_cast<double>((Delta.*(F.DerivedCount))());
      else
        continue;
      if (Last[K] == V)
        continue;
      Last[K] = V;
      telemetry_detail::writeCounterEvent(W, F.Key, Clock, V);
    }
  }
  W.endArray();
  W.endObject();
  OS << "\n";
}

} // namespace jtc

#endif // JTC_TELEMETRY_EXPORT_H
