//===- analysis/Value.h - Abstract value lattice ----------------*- C++ -*-===//
///
/// \file
/// The abstract value domain shared by the typed and constant/range
/// analyses: a product of a type component and, for integers, a constant
/// range. The VM's runtime values are untyped int64 slots (references are
/// opaque nonzero handles, 0 is null), so the lattice models what can be
/// proved statically about a slot:
///
///   Bot                      -- unreachable / no value
///   Int [Lo, Hi]             -- definitely an integer the program computed
///                               (constants, arithmetic results); [0,0] is
///                               the constant zero, which doubles as null
///   Ref {classes, array?, null?} -- definitely a reference produced by an
///                               allocation (or null when MayBeNull)
///   Conflict                 -- join of incompatible definite facts
///                               (e.g. a nonzero integer and a reference);
///                               using such a value in a type-demanding
///                               position is a verification error
///   Top                      -- unknown (method arguments, heap loads)
///
/// The join is sound for may-analysis: every dynamic value a program can
/// observe at a point is described by the static value there. The
/// constant zero joins into references as "may be null" because 0 *is*
/// the null reference.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_ANALYSIS_VALUE_H
#define JTC_ANALYSIS_VALUE_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

namespace jtc {
namespace analysis {

/// A may-set of class ids, with array cells tracked separately. Class ids
/// at or above 64 collapse into the Any overflow bit; modules that large
/// simply get coarser receiver facts.
class ClassSet {
public:
  static constexpr uint32_t MaxTracked = 64;

  void insert(uint32_t ClassId) {
    if (ClassId >= MaxTracked)
      Any = true;
    else
      Bits |= uint64_t{1} << ClassId;
  }

  bool any() const { return Any; }
  bool empty() const { return !Any && Bits == 0; }

  /// True when \p ClassId may be in the set.
  bool mayContain(uint32_t ClassId) const {
    return Any || (ClassId < MaxTracked && (Bits & (uint64_t{1} << ClassId)));
  }

  /// Visits every tracked id; only meaningful when !any().
  template <typename Fn> void forEach(Fn &&F) const {
    for (uint32_t C = 0; C < MaxTracked; ++C)
      if (Bits & (uint64_t{1} << C))
        F(C);
  }

  void merge(const ClassSet &O) {
    Bits |= O.Bits;
    Any |= O.Any;
  }

  bool operator==(const ClassSet &O) const = default;

private:
  uint64_t Bits = 0;
  bool Any = false;
};

struct AbstractValue {
  enum class Kind : uint8_t { Bot, Int, Ref, Conflict, Top };

  static constexpr int64_t MinInt = std::numeric_limits<int64_t>::min();
  static constexpr int64_t MaxInt = std::numeric_limits<int64_t>::max();

  Kind K = Kind::Bot;
  /// Kind::Ref (beside K, so a value packs into 40 bytes).
  bool MayBeArray = false;
  bool MayBeNull = false;
  /// Kind::Int: inclusive range of possible values.
  int64_t Lo = 0;
  int64_t Hi = 0;
  /// Kind::Ref: which allocations may flow here.
  ClassSet Classes;

  static AbstractValue bot() { return {}; }
  static AbstractValue top() {
    AbstractValue V;
    V.K = Kind::Top;
    return V;
  }
  static AbstractValue conflict() {
    AbstractValue V;
    V.K = Kind::Conflict;
    return V;
  }
  static AbstractValue intRange(int64_t Lo, int64_t Hi) {
    AbstractValue V;
    V.K = Kind::Int;
    V.Lo = Lo;
    V.Hi = Hi;
    return V;
  }
  static AbstractValue intConst(int64_t C) { return intRange(C, C); }
  static AbstractValue intAny() { return intRange(MinInt, MaxInt); }
  static AbstractValue objectRef(uint32_t ClassId) {
    AbstractValue V;
    V.K = Kind::Ref;
    V.Classes.insert(ClassId);
    return V;
  }
  static AbstractValue arrayRef() {
    AbstractValue V;
    V.K = Kind::Ref;
    V.MayBeArray = true;
    return V;
  }
  /// A reference about which nothing further is known (any class, array
  /// or null) -- the result of a declared-ref call.
  static AbstractValue anyRef() {
    AbstractValue V;
    V.K = Kind::Ref;
    V.Classes = ClassSet();
    V.MayBeArray = true;
    V.MayBeNull = true;
    AnyClasses(V.Classes);
    return V;
  }

  bool isBot() const { return K == Kind::Bot; }
  bool isTop() const { return K == Kind::Top; }
  bool isInt() const { return K == Kind::Int; }
  bool isRef() const { return K == Kind::Ref; }
  bool isConflict() const { return K == Kind::Conflict; }
  bool isConst() const { return isInt() && Lo == Hi; }
  /// The constant zero, i.e. the null reference spelled as an integer.
  bool isZero() const { return isConst() && Lo == 0; }
  /// A reference that is provably never null.
  bool isNonNullRef() const { return isRef() && !MayBeNull; }

  /// Least upper bound. Returns true when *this changed (for fixpoint
  /// detection). \p Widen replaces growing ranges with the full range so
  /// loops converge.
  bool join(const AbstractValue &O, bool Widen = false) {
    if (O.K == Kind::Bot)
      return false;
    if (K == Kind::Bot) {
      *this = O;
      return true;
    }
    if (K == Kind::Top)
      return false;
    if (O.K == Kind::Top) {
      *this = top();
      return true;
    }
    if (K == Kind::Conflict)
      return false;
    if (O.K == Kind::Conflict) {
      *this = conflict();
      return true;
    }
    if (K == Kind::Int && O.K == Kind::Int) {
      int64_t NLo = std::min(Lo, O.Lo), NHi = std::max(Hi, O.Hi);
      if (Widen && (NLo < Lo || NHi > Hi)) {
        if (NLo < Lo)
          NLo = MinInt;
        if (NHi > Hi)
          NHi = MaxInt;
      }
      bool Changed = NLo != Lo || NHi != Hi;
      Lo = NLo;
      Hi = NHi;
      return Changed;
    }
    if (K == Kind::Ref && O.K == Kind::Ref) {
      AbstractValue Before = *this;
      Classes.merge(O.Classes);
      MayBeArray |= O.MayBeArray;
      MayBeNull |= O.MayBeNull;
      return !(*this == Before);
    }
    // Int vs Ref: the constant zero is the null reference, so it folds
    // into the reference as nullability; any other integer conflicts.
    if (K == Kind::Ref && O.isZero()) {
      if (MayBeNull)
        return false;
      MayBeNull = true;
      return true;
    }
    if (isZero() && O.K == Kind::Ref) {
      AbstractValue V = O;
      V.MayBeNull = true;
      *this = V;
      return true;
    }
    *this = conflict();
    return true;
  }

  bool operator==(const AbstractValue &O) const = default;

  /// Short diagnostic rendering, e.g. "int[0,63]", "ref{2}", "top".
  std::string str() const;

private:
  static void AnyClasses(ClassSet &S) {
    S.insert(MaxTrackedSentinel);
  }
  static constexpr uint32_t MaxTrackedSentinel = ClassSet::MaxTracked;
};

} // namespace analysis
} // namespace jtc

#endif // JTC_ANALYSIS_VALUE_H
