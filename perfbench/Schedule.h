//===- perfbench/Schedule.h - Seeded request order --------------*- C++ -*-===//
///
/// \file
/// The only input the benchmark derives from --seed: the order in which a
/// workload's programs run. Batch workloads run rounds, each a fresh
/// permutation of their programs; serve-short concatenates the same
/// permutations into its request-kind stream, so every kind gets an equal
/// share of requests and only the order varies with the seed.
///
/// The generator is SplitMix64 rather than a standard-library engine plus
/// std::shuffle, whose outputs may differ between library versions: one
/// seed must name one sequence wherever the benchmark is built.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SCHEDULE_H
#define PERFBENCH_SCHEDULE_H

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

namespace perfbench {

/// Seeded stream of permutations of {0, ..., N-1}.
class PermutationStream {
public:
  PermutationStream(uint64_t Seed, unsigned N) : State(Seed), N(N) {}

  /// The next round: a uniformly drawn permutation (Fisher-Yates).
  std::vector<unsigned> nextRound() {
    std::vector<unsigned> Order(N);
    std::iota(Order.begin(), Order.end(), 0u);
    for (unsigned I = N; I > 1; --I) {
      unsigned J = static_cast<unsigned>(next() % I);
      std::swap(Order[I - 1], Order[J]);
    }
    return Order;
  }

private:
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }

  uint64_t State;
  unsigned N;
};

/// Request kinds for a flat stream (serve-short): the rounds of a
/// PermutationStream, one element at a time.
class KindStream {
public:
  KindStream(uint64_t Seed, unsigned N) : Rounds(Seed, N) {}

  unsigned next() {
    if (Pos == Current.size()) {
      Current = Rounds.nextRound();
      Pos = 0;
    }
    return Current[Pos++];
  }

private:
  PermutationStream Rounds;
  std::vector<unsigned> Current;
  std::size_t Pos = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SCHEDULE_H
