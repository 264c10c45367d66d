//===- backend/X64Emitter.h - Minimal x86-64 instruction emitter -*- C++ -*-===//
///
/// \file
/// Just enough of an x86-64 assembler for the template JIT: 64-bit moves,
/// ALU ops with register or [base+disp] operands, division, shifts,
/// compare-and-branch with rel32 fixups, and indirect calls. Emission is
/// plain byte appending into a std::vector (position-independent except
/// for movabs-materialized helper addresses), so the emitter builds and
/// runs on any host; only *executing* the bytes requires an x86-64
/// machine (see jitSupportedHost()).
///
/// Encoding notes: every instruction here is REX.W-prefixed (64-bit
/// operand size), except the few dword moves that read and write the
/// 32-bit fields of a frame record. Memory operands are [base + disp] only -- the template
/// code addresses everything off four pinned callee-saved registers (see
/// JitBackend.h for the register convention), none of which are rsp/r12,
/// so no SIB bytes are needed; r13/rbp bases force a disp8 of zero per
/// the ModRM rules.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_BACKEND_X64EMITTER_H
#define JTC_BACKEND_X64EMITTER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace jtc {
namespace backend {

/// x86-64 general-purpose registers, hardware numbering.
enum class Reg : uint8_t {
  Rax = 0,
  Rcx = 1,
  Rdx = 2,
  Rbx = 3,
  Rsp = 4,
  Rbp = 5,
  Rsi = 6,
  Rdi = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

/// Condition codes (the low nibble of the 0F 8x / 9x opcodes).
enum class Cond : uint8_t {
  Eq = 0x4,  ///< ZF (je)
  Ne = 0x5,  ///< !ZF (jne)
  Lt = 0xC,  ///< SF != OF (jl, signed)
  Ge = 0xD,  ///< SF == OF (jge, signed)
  Le = 0xE,  ///< ZF || SF != OF (jle, signed)
  Gt = 0xF,  ///< !ZF && SF == OF (jg, signed)
  Ab = 0x7,  ///< !CF && !ZF (ja, unsigned)
};

inline Cond negate(Cond C) {
  // Condition codes pair up: cc ^ 1 is the logical negation.
  return static_cast<Cond>(static_cast<uint8_t>(C) ^ 1);
}

/// Appends encoded instructions to an owned byte buffer. Forward jump
/// targets are handled with fixups: jcc()/jmp() return the offset of
/// their rel32 field, patched later with patchRel32().
class X64Emitter {
public:
  const std::vector<uint8_t> &code() const { return Code; }
  size_t size() const { return Code.size(); }

  // -- 64-bit moves -------------------------------------------------------
  void movRR(Reg Dst, Reg Src);              ///< mov Dst, Src
  void movRI(Reg Dst, int64_t Imm);          ///< mov Dst, Imm (movabs if needed)
  void movRM(Reg Dst, Reg Base, int32_t Disp); ///< mov Dst, [Base+Disp]
  void movMR(Reg Base, int32_t Disp, Reg Src); ///< mov [Base+Disp], Src
  /// mov qword [Base+Disp], Imm (sign-extended imm32).
  void movMI32(Reg Base, int32_t Disp, int32_t Imm);
  /// lea Dst, [Base+Disp]
  void leaRM(Reg Dst, Reg Base, int32_t Disp);

  // -- 32-bit moves (the frame record's id fields) ------------------------
  /// mov Dst32, dword [Base+Disp] (zero-extends into Dst).
  void movR32M(Reg Dst, Reg Base, int32_t Disp);
  /// mov dword [Base+Disp], Src32
  void movM32R(Reg Base, int32_t Disp, Reg Src);
  /// mov dword [Base+Disp], Imm
  void movM32I(Reg Base, int32_t Disp, uint32_t Imm);

  // -- ALU ----------------------------------------------------------------
  void addRR(Reg Dst, Reg Src);
  void subRR(Reg Dst, Reg Src);
  void andRR(Reg Dst, Reg Src);
  void orRR(Reg Dst, Reg Src);
  void xorRR(Reg Dst, Reg Src);
  void cmpRR(Reg A, Reg B); ///< cmp A, B
  void imulRR(Reg Dst, Reg Src);
  void addRM(Reg Dst, Reg Base, int32_t Disp);
  void subRM(Reg Dst, Reg Base, int32_t Disp);
  void andRM(Reg Dst, Reg Base, int32_t Disp);
  void orRM(Reg Dst, Reg Base, int32_t Disp);
  void xorRM(Reg Dst, Reg Base, int32_t Disp);
  void cmpRM(Reg A, Reg Base, int32_t Disp);
  void imulRM(Reg Dst, Reg Base, int32_t Disp);
  void addRI(Reg Dst, int32_t Imm); ///< add Dst, imm (sign-extended)
  void subRI(Reg Dst, int32_t Imm);
  void cmpRI(Reg A, int32_t Imm);
  void testRR(Reg A, Reg B); ///< test A, B
  void negR(Reg R);          ///< neg R
  void cqo();                ///< sign-extend rax into rdx:rax
  void idivR(Reg Divisor);   ///< signed divide rdx:rax by Divisor
  void shlCl(Reg R);         ///< shl R, cl (count masked to 63 by hardware)
  void shrCl(Reg R);         ///< shr R, cl
  void sarCl(Reg R);         ///< sar R, cl

  // -- control ------------------------------------------------------------
  /// jcc rel32 with a zero displacement; returns the rel32 field offset.
  size_t jcc(Cond C);
  /// jmp rel32 with a zero displacement; returns the rel32 field offset.
  size_t jmp();
  /// Points the rel32 at \p FixupOff to \p Target (a code offset).
  void patchRel32(size_t FixupOff, size_t Target);
  /// Binds a fixup to the current position.
  void bind(size_t FixupOff) { patchRel32(FixupOff, Code.size()); }
  void callR(Reg R); ///< call R
  void pushR(Reg R);
  void popR(Reg R);
  void ret();

private:
  void byte(uint8_t B) { Code.push_back(B); }
  void imm32(int32_t V);
  void imm64(int64_t V);
  void rex(Reg RegOp, Reg RmOp);
  /// The REX prefix of a 32-bit operation, when it needs one (an
  /// extended register).
  void rex32(Reg RegOp, Reg RmOp);
  /// ModRM (+ optional SIB/disp) for reg `RegOp`, memory [Base+Disp].
  void modrmMem(Reg RegOp, Reg Base, int32_t Disp);
  void modrmReg(Reg RegOp, Reg RmOp);
  /// REX.W <Op> /r with a register rm operand.
  void aluRR(uint8_t Op, Reg RegOp, Reg RmOp);
  /// REX.W <Op> /r with a memory rm operand.
  void aluRM(uint8_t Op, Reg RegOp, Reg Base, int32_t Disp);
  /// REX.W 83 /Ext ib or 81 /Ext id (ALU with a sign-extended immediate).
  void aluRI(uint8_t Ext, Reg RmOp, int32_t Imm);

  std::vector<uint8_t> Code;
};

} // namespace backend
} // namespace jtc

#endif // JTC_BACKEND_X64EMITTER_H
