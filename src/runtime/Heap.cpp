//===- runtime/Heap.cpp ---------------------------------------------------===//

#include "runtime/Heap.h"

#include <cassert>
#include <cstddef>

using namespace jtc;

int64_t Heap::allocObject(uint32_t ClassId, uint32_t NumFields) {
  assert(ClassId != ArrayClass && "ArrayClass id is reserved for arrays");
  if (Cells.size() >= MaxCells)
    return Null;
  Cell C;
  C.ClassId = ClassId;
  C.Slots.assign(NumFields, 0);
  Cells.push_back(std::move(C));
  return static_cast<int64_t>(Cells.size());
}

int64_t Heap::allocArray(int64_t Len) {
  assert(Len >= 0 && "caller must trap negative lengths");
  if (Cells.size() >= MaxCells)
    return Null;
  Cell C;
  C.ClassId = ArrayClass;
  C.Slots.assign(static_cast<size_t>(Len), 0);
  Cells.push_back(std::move(C));
  return static_cast<int64_t>(Cells.size());
}

uint64_t jtc::heapDigest(const Heap &H) {
  uint64_t D = 14695981039346656037ull;
  auto Mix = [&D](uint64_t V) { D = (D ^ V) * 1099511628211ull; };
  Mix(H.size());
  // References are dense handles 1..size and cells are never freed, so
  // this walks every cell in allocation order.
  for (size_t Ref = 1; Ref <= H.size(); ++Ref) {
    Mix(H.classOf(Ref));
    size_t N = H.slotCount(Ref);
    Mix(N);
    for (size_t I = 0; I < N; ++I)
      Mix(static_cast<uint64_t>(H.load(Ref, I)));
  }
  return D;
}
