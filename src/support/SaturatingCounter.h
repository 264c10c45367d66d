//===- support/SaturatingCounter.h - 16-bit saturating counters -*- C++ -*-===//
///
/// \file
/// The paper stores branch correlations in 16-bit counters that saturate on
/// increment and are halved (shifted right one bit) by the periodic decay
/// pass (paper section 4.1.1). This header provides that counter.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_SUPPORT_SATURATINGCOUNTER_H
#define JTC_SUPPORT_SATURATINGCOUNTER_H

#include <cstdint>
#include <limits>

namespace jtc {

/// A 16-bit counter that sticks at its maximum instead of wrapping.
class SaturatingCounter {
public:
  static constexpr uint16_t Max = std::numeric_limits<uint16_t>::max();

  SaturatingCounter() = default;
  explicit SaturatingCounter(uint16_t Initial) : Count(Initial) {}

  uint16_t value() const { return Count; }

  /// Adds one, saturating at Max.
  void increment() {
    if (Count != Max)
      ++Count;
  }

  /// Adds \p K, saturating at Max: the same as \p K increments.
  void add(uint32_t K) {
    const uint32_t Room = Max - Count;
    Count = static_cast<uint16_t>(K >= Room ? Max : Count + K);
  }

  /// Halves the counter (the decay step: one right shift).
  void decay() { Count = static_cast<uint16_t>(Count >> 1); }

  void reset(uint16_t V = 0) { Count = V; }

  bool operator==(const SaturatingCounter &O) const = default;

private:
  uint16_t Count = 0;
};

} // namespace jtc

#endif // JTC_SUPPORT_SATURATINGCOUNTER_H
