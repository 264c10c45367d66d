//===- runtime/Heap.h - Objects and integer arrays ---------------*- C++ -*-===//
///
/// \file
/// A simple non-moving heap holding class instances and integer arrays.
/// References are opaque nonzero int64 handles (0 is null); there is no
/// collector -- workload programs allocate a bounded working set, and the
/// heap enforces a configurable cell budget to trap runaway allocation.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_RUNTIME_HEAP_H
#define JTC_RUNTIME_HEAP_H

#include "bytecode/OpSemantics.h"
#include "runtime/Trap.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace jtc {

/// The heap. Object cells remember their class id (for virtual dispatch);
/// array cells use the reserved ArrayClass id.
class Heap {
public:
  /// Class id stored in array cells.
  static constexpr uint32_t ArrayClass = 0xffffffffu;
  /// The null reference.
  static constexpr int64_t Null = 0;

  explicit Heap(size_t MaxCells = 1u << 22) : MaxCells(MaxCells) {}

  /// Allocates an instance of \p ClassId with \p NumFields zeroed fields.
  /// Returns Null when the cell budget is exhausted.
  int64_t allocObject(uint32_t ClassId, uint32_t NumFields);

  /// Allocates a zeroed integer array of length \p Len (>= 0). Returns
  /// Null when the cell budget is exhausted.
  int64_t allocArray(int64_t Len);

  /// True iff \p Ref is a live non-null reference.
  bool isLive(int64_t Ref) const {
    return Ref > 0 && static_cast<size_t>(Ref) <= Cells.size();
  }

  /// Class id of the cell behind \p Ref (ArrayClass for arrays). \p Ref
  /// must be live.
  uint32_t classOf(int64_t Ref) const { return cell(Ref).ClassId; }

  /// Number of fields / array length. \p Ref must be live.
  size_t slotCount(int64_t Ref) const { return cell(Ref).Slots.size(); }

  // The dynamic checks of the heap accesses, one per access shape. Each
  // returns the trap the access raises, or TrapKind::None when it may
  // proceed; \p L skips the checks a trace proved redundant. The block
  // executor and the JIT helpers run these; Machine::execOne spells the
  // same checks out as the oracle.

  /// iaload/iastore of element \p Idx of array \p Ref.
  TrapKind checkElement(int64_t Ref, int64_t Idx, ElideLevel L) const {
    if (L == ElideLevel::None && (!isLive(Ref) || classOf(Ref) != ArrayClass))
      return TrapKind::NullReference;
    if (L != ElideLevel::Full &&
        (Idx < 0 || static_cast<size_t>(Idx) >= slotCount(Ref)))
      return TrapKind::ArrayBounds;
    return TrapKind::None;
  }

  /// getfield/putfield of field \p Slot of object \p Ref.
  TrapKind checkField(int64_t Ref, size_t Slot, ElideLevel L) const {
    if (L == ElideLevel::None && (!isLive(Ref) || classOf(Ref) == ArrayClass))
      return TrapKind::NullReference;
    if (L != ElideLevel::Full && Slot >= slotCount(Ref))
      return TrapKind::FieldBounds;
    return TrapKind::None;
  }

  /// arraylength of \p Ref: a liveness/class check only, so any elision
  /// skips it.
  TrapKind checkArrayLength(int64_t Ref, ElideLevel L) const {
    if (L == ElideLevel::None && (!isLive(Ref) || classOf(Ref) != ArrayClass))
      return TrapKind::NullReference;
    return TrapKind::None;
  }

  /// Raw slot access. \p Ref must be live, \p Idx in range.
  int64_t load(int64_t Ref, size_t Idx) const {
    const Cell &C = cell(Ref);
    assert(Idx < C.Slots.size() && "slot index out of range");
    return C.Slots[Idx];
  }
  void store(int64_t Ref, size_t Idx, int64_t Value) {
    Cell &C = cell(Ref);
    assert(Idx < C.Slots.size() && "slot index out of range");
    C.Slots[Idx] = Value;
  }

  /// Cells allocated so far.
  size_t size() const { return Cells.size(); }

  /// Drops every cell (used by Machine::reset()).
  void clear() { Cells.clear(); }

private:
  struct Cell {
    uint32_t ClassId = 0;
    std::vector<int64_t> Slots;
  };

  const Cell &cell(int64_t Ref) const {
    assert(isLive(Ref) && "dereference of dead or null reference");
    return Cells[static_cast<size_t>(Ref) - 1];
  }
  Cell &cell(int64_t Ref) {
    assert(isLive(Ref) && "dereference of dead or null reference");
    return Cells[static_cast<size_t>(Ref) - 1];
  }

  std::vector<Cell> Cells;
  size_t MaxCells;
};

/// Order-sensitive FNV-1a digest of the whole heap: cell count, then each
/// cell's class id and slots in allocation order. Two digests are equal
/// iff the heaps are observably identical, so engines and sessions can be
/// compared without shipping heap contents around.
uint64_t heapDigest(const Heap &H);

} // namespace jtc

#endif // JTC_RUNTIME_HEAP_H
