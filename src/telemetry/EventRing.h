//===- telemetry/EventRing.h - Fixed-capacity event buffer ------*- C++ -*-===//
///
/// \file
/// A fixed-capacity ring buffer of telemetry Events. The capacity is
/// allocated once up front, so recording never allocates: at capacity the
/// oldest event is overwritten and counted as dropped. Events are stamped
/// with a logical clock read through a pointer (the VM passes
/// &VmStats::BlocksExecuted), which keeps the ring independent of the VM
/// layering while still giving every event the paper's natural time axis.
///
/// The instrumentation sites in the profiler, trace cache and VM go
/// through the JTC_RECORD_EVENT macro below: compiled out entirely when
/// the JTC_TELEMETRY CMake option is OFF, and a single predictable
/// null-pointer test when telemetry is compiled in but disabled at
/// runtime.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_TELEMETRY_EVENTRING_H
#define JTC_TELEMETRY_EVENTRING_H

#include "telemetry/Event.h"

#include <cstddef>
#include <vector>

namespace jtc {

class EventRing {
public:
  /// A default-constructed ring is disabled: record() is a no-op.
  EventRing() = default;

  /// \p Capacity events are retained (older ones are overwritten);
  /// \p Clock, when non-null, stamps each recorded event.
  explicit EventRing(size_t Capacity, const uint64_t *Clock = nullptr)
      : Buf(Capacity), Clock(Clock) {}

  bool enabled() const { return !Buf.empty(); }
  size_t capacity() const { return Buf.size(); }

  /// Events currently retained (<= capacity).
  size_t size() const {
    return Total < Buf.size() ? static_cast<size_t>(Total) : Buf.size();
  }

  /// Every event ever recorded, including overwritten ones.
  uint64_t totalRecorded() const { return Total; }

  /// Events lost to overwriting.
  uint64_t dropped() const { return Total - size(); }

  /// Records one event stamped with the current logical clock.
  void record(EventKind K, uint32_t Id, uint32_t Arg = 0) {
    recordAt(Clock ? *Clock : 0, K, Id, Arg);
  }

  /// Records one event with an explicit clock (tests, replays).
  void recordAt(uint64_t At, EventKind K, uint32_t Id, uint32_t Arg = 0) {
    if (Buf.empty())
      return;
    Event &E = Buf[Next];
    E.Clock = At;
    E.Id = Id;
    E.Arg = Arg;
    E.Kind = K;
    if (++Next == Buf.size())
      Next = 0;
    ++Total;
  }

  /// The \p I-th oldest retained event (0 = oldest surviving).
  const Event &event(size_t I) const {
    // Once the ring is full, the oldest event is the next overwritten.
    size_t Slot = (Total < Buf.size() ? 0 : Next) + I;
    return Buf[Slot < Buf.size() ? Slot : Slot - Buf.size()];
  }

  /// Visits retained events oldest to newest.
  template <typename Fn> void forEach(Fn &&F) const {
    for (size_t I = 0, N = size(); I < N; ++I)
      F(event(I));
  }

  /// Retained events oldest to newest, as a fresh vector.
  std::vector<Event> snapshot() const {
    std::vector<Event> Out;
    Out.reserve(size());
    forEach([&Out](const Event &E) { Out.push_back(E); });
    return Out;
  }

  /// Forgets all retained events (capacity and clock are kept).
  void clear() { Total = Next = 0; }

private:
  std::vector<Event> Buf;
  const uint64_t *Clock = nullptr;
  uint64_t Total = 0;
  size_t Next = 0; ///< The slot the next event is written to.
};

/// Instrumentation-site wrapper: \p RingPtr is an EventRing*, null when
/// telemetry is disabled at runtime. Expands to nothing when telemetry is
/// compiled out.
#ifdef JTC_TELEMETRY
#define JTC_RECORD_EVENT(RingPtr, ...)                                         \
  do {                                                                         \
    if (RingPtr)                                                               \
      (RingPtr)->record(__VA_ARGS__);                                          \
  } while (0)
#else
#define JTC_RECORD_EVENT(RingPtr, ...)                                         \
  do {                                                                         \
  } while (0)
#endif

} // namespace jtc

#endif // JTC_TELEMETRY_EVENTRING_H
