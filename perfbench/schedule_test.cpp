//===- perfbench/schedule_test.cpp - Seeded schedule reproducibility ------===//
///
/// Checks the benchmark's seeding contract: one seed reproduces its
/// sequence exactly, two seeds give different sequences, every batch round
/// is a permutation, and a serve kind stream gives every kind an equal
/// share. Exits non-zero on the first failed check.
///
/// Run: ctest --test-dir <perfbench build dir>
///
//===----------------------------------------------------------------------===//

#include "Schedule.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  if (!Ok) {
    std::fprintf(stderr, "FAIL: %s\n", What);
    ++Failures;
  }
}

std::vector<std::vector<unsigned>> rounds(uint64_t Seed, unsigned N,
                                          unsigned Count) {
  PermutationStream S(Seed, N);
  std::vector<std::vector<unsigned>> Out;
  for (unsigned I = 0; I < Count; ++I)
    Out.push_back(S.nextRound());
  return Out;
}

std::vector<unsigned> kinds(uint64_t Seed, unsigned N, unsigned Count) {
  KindStream S(Seed, N);
  std::vector<unsigned> Out;
  for (unsigned I = 0; I < Count; ++I)
    Out.push_back(S.next());
  return Out;
}

} // namespace

int main() {
  check(rounds(7, 4, 64) == rounds(7, 4, 64), "same seed, same batch rounds");
  check(rounds(7, 4, 64) != rounds(8, 4, 64),
        "different seeds, different batch rounds");
  check(kinds(7, 6, 600) == kinds(7, 6, 600), "same seed, same request kinds");
  check(kinds(7, 6, 600) != kinds(8, 6, 600),
        "different seeds, different request kinds");
  // Two programs: both orders must occur within a few rounds.
  auto Two = rounds(7, 2, 32);
  check(std::count(Two.begin(), Two.end(), std::vector<unsigned>{0, 1}) > 0 &&
            std::count(Two.begin(), Two.end(), std::vector<unsigned>{1, 0}) > 0,
        "two-program rounds take both orders");

  for (const std::vector<unsigned> &R : rounds(11, 6, 100)) {
    std::vector<unsigned> Sorted = R;
    std::sort(Sorted.begin(), Sorted.end());
    check(Sorted == std::vector<unsigned>{0, 1, 2, 3, 4, 5},
          "every round is a permutation");
  }
  std::vector<unsigned> K = kinds(11, 6, 600);
  for (unsigned Kind = 0; Kind < 6; ++Kind)
    check(std::count(K.begin(), K.end(), Kind) == 100,
          "every kind gets an equal share of whole rounds");

  if (Failures == 0)
    std::puts("schedule_test: all checks passed");
  return Failures == 0 ? 0 : 1;
}
