//===- bytecode/Program.h - Methods, classes, modules -----------*- C++ -*-===//
///
/// \file
/// The static program model: a Module owns Methods (pre-decoded code),
/// Classes (field counts plus a vtable), and virtual-call SlotInfo
/// signatures shared by all classes. This plays the role of a loaded and
/// prepared set of Java class files in the original SableVM setting.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_BYTECODE_PROGRAM_H
#define JTC_BYTECODE_PROGRAM_H

#include "bytecode/Instruction.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jtc {

/// Sentinel for "no method" (e.g. an unimplemented vtable entry).
constexpr uint32_t InvalidMethod = 0xffffffffu;

/// Jump table backing a Tableswitch instruction.
///
/// A selector S maps to Targets[S - Low] when S is within
/// [Low, Low + Targets.size()), otherwise to DefaultTarget. Targets are
/// instruction indices in the owning method.
struct SwitchTable {
  int32_t Low = 0;
  std::vector<uint32_t> Targets;
  uint32_t DefaultTarget = 0;
};

/// Declared type of a value-returning method's result. The instruction set
/// carries no argument types (locals are untyped int64 slots), but return
/// types are declared so the typed verifier can reject a method that
/// returns a reference where callers were promised an integer. `Int` is
/// the default and what the textual form's historic `returns=int` means;
/// `ref` is spelled explicitly.
enum class TypeTag : uint8_t { Int, Ref };

/// Most locals a method may declare (the verifier enforces it). As with
/// the JVM's u2 max_locals, a local index always fits in 16 bits, which
/// keeps the block executor's decoded slots at 8 bytes.
constexpr uint32_t MaxMethodLocals = 65535;

/// One method: a name, a signature, and pre-decoded code.
///
/// For virtual methods the receiver reference is argument 0, so NumArgs
/// includes it. Locals [0, NumArgs) are initialized from the operand stack
/// at call time; the rest start as zero.
struct Method {
  std::string Name;
  uint32_t NumArgs = 0;
  uint32_t NumLocals = 0;
  bool ReturnsValue = false;
  /// Declared result type; meaningful only when ReturnsValue.
  TypeTag RetType = TypeTag::Int;
  std::vector<Instruction> Code;
  std::vector<SwitchTable> SwitchTables;
};

/// Signature of a virtual-call slot. Every class's vtable entry for a slot
/// must match its ArgCount (including the receiver) and ReturnsValue.
struct SlotInfo {
  std::string Name;
  uint32_t ArgCount = 1;
  bool ReturnsValue = false;
  /// Declared result type; meaningful only when ReturnsValue. Every
  /// implementation's RetType must agree with the slot's.
  TypeTag RetType = TypeTag::Int;
};

/// One class: instance field count and a vtable with one entry per module
/// slot (InvalidMethod where the class does not implement the slot).
struct Class {
  std::string Name;
  uint32_t NumFields = 0;
  std::vector<uint32_t> Vtable;
};

/// A complete program.
struct Module {
  std::vector<Method> Methods;
  std::vector<Class> Classes;
  std::vector<SlotInfo> Slots;
  uint32_t EntryMethod = 0;

  const Method &method(uint32_t Idx) const { return Methods[Idx]; }
  const Class &klass(uint32_t Idx) const { return Classes[Idx]; }
};

} // namespace jtc

#endif // JTC_BYTECODE_PROGRAM_H
