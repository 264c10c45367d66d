//===- telemetry/PhaseSampler.h - Stats time-series sampling ----*- C++ -*-===//
///
/// \file
/// Periodic snapshots of a counter-bearing stats struct, making program
/// phases visible: warmup (trace construction, signal bursts) vs. steady
/// state (near-pure trace dispatch) show up as changing per-interval
/// deltas. The sampler is a template over the stats type so the telemetry
/// library does not depend on the VM layer above it; the VM instantiates
/// PhaseSampler<VmStats>.
///
/// The stats type must expose a static fields() table whose entries carry
/// a nullable `Counter` pointer-to-member (VmStats::fields() is the model;
/// non-counter entries are ignored). Each sample stores one cumulative
/// snapshot; delta(I) derives a sample's per-interval counter changes
/// from it and the previous sample where they are read. Derived-metric
/// methods evaluated on a delta yield per-interval rates (e.g. coverage
/// within the window).
///
//===----------------------------------------------------------------------===//

#ifndef JTC_TELEMETRY_PHASESAMPLER_H
#define JTC_TELEMETRY_PHASESAMPLER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace jtc {

template <typename StatsT> struct PhaseSample {
  uint64_t Clock = 0;     ///< Logical clock (blocks executed) at the sample.
  StatsT Cumulative{};    ///< Snapshot at the sample point.
};

template <typename StatsT> class PhaseSampler {
public:
  /// A default-constructed (or interval-0) sampler is disabled.
  PhaseSampler() = default;
  explicit PhaseSampler(uint64_t Interval)
      : Interval(Interval), NextAt(Interval) {}

  bool enabled() const { return Interval != 0; }
  uint64_t interval() const { return Interval; }

  /// The clock value at (or past) which the next sample is due; the VM
  /// compares BlocksExecuted against this once per block.
  uint64_t nextSampleAt() const { return NextAt; }

  /// Takes one sample. \p Cur must be a complete snapshot (the VM
  /// assembles one with live profiler/cache counters folded in).
  void sample(uint64_t Clock, const StatsT &Cur) {
    Samples.push_back({Clock, Cur});
    NextAt = Clock + Interval;
  }

  const std::vector<PhaseSample<StatsT>> &samples() const { return Samples; }
  bool empty() const { return Samples.empty(); }

  /// Sample \p I's counter changes since sample I-1 (since the all-zero
  /// start for the first); every non-counter field is sample I's own.
  StatsT delta(size_t I) const {
    const StatsT &Cur = Samples[I].Cumulative;
    StatsT D = Cur;
    if (I == 0)
      return D;
    const StatsT &Prev = Samples[I - 1].Cumulative;
    for (const auto &F : StatsT::fields())
      if (F.Counter)
        D.*(F.Counter) = Cur.*(F.Counter) - Prev.*(F.Counter);
    return D;
  }

private:
  uint64_t Interval = 0;
  uint64_t NextAt = 0;
  std::vector<PhaseSample<StatsT>> Samples;
};

} // namespace jtc

#endif // JTC_TELEMETRY_PHASESAMPLER_H
