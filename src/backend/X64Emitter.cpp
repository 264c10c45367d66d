//===- backend/X64Emitter.cpp - Minimal x86-64 instruction emitter --------===//

#include "backend/X64Emitter.h"

#include <cassert>
#include <cstdint>
#include <cstring>

namespace jtc {
namespace backend {

static uint8_t lo3(Reg R) { return static_cast<uint8_t>(R) & 7; }
static bool ext(Reg R) { return static_cast<uint8_t>(R) >= 8; }

void X64Emitter::imm32(int32_t V) {
  for (int I = 0; I < 4; ++I)
    byte(static_cast<uint8_t>(static_cast<uint32_t>(V) >> (8 * I)));
}

void X64Emitter::imm64(int64_t V) {
  for (int I = 0; I < 8; ++I)
    byte(static_cast<uint8_t>(static_cast<uint64_t>(V) >> (8 * I)));
}

void X64Emitter::rex(Reg RegOp, Reg RmOp) {
  // REX.W, plus R/B extension bits for the reg and rm fields.
  byte(0x48 | (ext(RegOp) ? 0x4 : 0) | (ext(RmOp) ? 0x1 : 0));
}

void X64Emitter::rex32(Reg RegOp, Reg RmOp) {
  if (ext(RegOp) || ext(RmOp))
    byte(0x40 | (ext(RegOp) ? 0x4 : 0) | (ext(RmOp) ? 0x1 : 0));
}

void X64Emitter::modrmReg(Reg RegOp, Reg RmOp) {
  byte(0xC0 | (lo3(RegOp) << 3) | lo3(RmOp));
}

void X64Emitter::modrmMem(Reg RegOp, Reg Base, int32_t Disp) {
  assert(lo3(Base) != 4 && "rsp/r12 bases would need a SIB byte");
  // rbp/r13 cannot be encoded with mod=00 (that slot means rip-relative),
  // so force at least a disp8.
  bool NeedsDisp = Disp != 0 || lo3(Base) == 5;
  if (!NeedsDisp) {
    byte(0x00 | (lo3(RegOp) << 3) | lo3(Base));
  } else if (Disp >= -128 && Disp <= 127) {
    byte(0x40 | (lo3(RegOp) << 3) | lo3(Base));
    byte(static_cast<uint8_t>(Disp));
  } else {
    byte(0x80 | (lo3(RegOp) << 3) | lo3(Base));
    imm32(Disp);
  }
}

void X64Emitter::movRR(Reg Dst, Reg Src) { aluRR(0x8B, Dst, Src); }

void X64Emitter::movRI(Reg Dst, int64_t Imm) {
  if (Imm >= 0 && Imm <= UINT32_MAX) {
    // mov r32, imm32 (zero-extends into the full register): [REX.B]
    // B8+rd id, the shortest form for ids, counts and block numbers.
    if (ext(Dst))
      byte(0x41);
    byte(0xB8 + lo3(Dst));
    imm32(static_cast<int32_t>(static_cast<uint32_t>(Imm)));
  } else if (Imm >= INT32_MIN && Imm <= INT32_MAX) {
    // mov r/m64, imm32 (sign-extended): REX.W C7 /0 id
    rex(Reg::Rax, Dst);
    byte(0xC7);
    modrmReg(Reg::Rax, Dst);
    imm32(static_cast<int32_t>(Imm));
  } else {
    // movabs r64, imm64: REX.W B8+rd io
    rex(Reg::Rax, Dst);
    byte(0xB8 + lo3(Dst));
    imm64(Imm);
  }
}

void X64Emitter::movRM(Reg Dst, Reg Base, int32_t Disp) {
  rex(Dst, Base);
  byte(0x8B);
  modrmMem(Dst, Base, Disp);
}

void X64Emitter::movMR(Reg Base, int32_t Disp, Reg Src) {
  rex(Src, Base);
  byte(0x89);
  modrmMem(Src, Base, Disp);
}

void X64Emitter::movMI32(Reg Base, int32_t Disp, int32_t Imm) {
  rex(Reg::Rax, Base);
  byte(0xC7);
  modrmMem(Reg::Rax, Base, Disp);
  imm32(Imm);
}

void X64Emitter::leaRM(Reg Dst, Reg Base, int32_t Disp) {
  rex(Dst, Base);
  byte(0x8D);
  modrmMem(Dst, Base, Disp);
}

void X64Emitter::movR32M(Reg Dst, Reg Base, int32_t Disp) {
  rex32(Dst, Base);
  byte(0x8B);
  modrmMem(Dst, Base, Disp);
}

void X64Emitter::movM32R(Reg Base, int32_t Disp, Reg Src) {
  rex32(Src, Base);
  byte(0x89);
  modrmMem(Src, Base, Disp);
}

void X64Emitter::movM32I(Reg Base, int32_t Disp, uint32_t Imm) {
  rex32(Reg::Rax, Base);
  byte(0xC7);
  modrmMem(Reg::Rax, Base, Disp);
  imm32(static_cast<int32_t>(Imm));
}

void X64Emitter::aluRR(uint8_t Op, Reg RegOp, Reg RmOp) {
  rex(RegOp, RmOp);
  byte(Op);
  modrmReg(RegOp, RmOp);
}

void X64Emitter::aluRM(uint8_t Op, Reg RegOp, Reg Base, int32_t Disp) {
  rex(RegOp, Base);
  byte(Op);
  modrmMem(RegOp, Base, Disp);
}

static bool fitsImm8(int32_t Imm) { return Imm >= -128 && Imm <= 127; }

void X64Emitter::aluImm(int32_t Imm) {
  if (fitsImm8(Imm))
    byte(static_cast<uint8_t>(Imm));
  else
    imm32(Imm);
}

void X64Emitter::aluRI(uint8_t Ext, Reg RmOp, int32_t Imm) {
  // REX.W 83 /Ext ib when the immediate fits a sign-extended byte (stack
  // steps of 8, small constants), else REX.W 81 /Ext id.
  rex(Reg::Rax, RmOp);
  byte(fitsImm8(Imm) ? 0x83 : 0x81);
  byte(0xC0 | (Ext << 3) | lo3(RmOp));
  aluImm(Imm);
}

void X64Emitter::aluMI(uint8_t Ext, Reg Base, int32_t Disp, int32_t Imm) {
  rex(Reg::Rax, Base);
  byte(fitsImm8(Imm) ? 0x83 : 0x81);
  modrmMem(static_cast<Reg>(Ext), Base, Disp);
  aluImm(Imm);
}

void X64Emitter::shiftRI(uint8_t Ext, Reg R, uint8_t N) {
  rex(Reg::Rax, R);
  byte(0xC1);
  byte(0xC0 | (Ext << 3) | lo3(R));
  byte(N);
}

void X64Emitter::addRR(Reg Dst, Reg Src) { aluRR(0x03, Dst, Src); }
void X64Emitter::subRR(Reg Dst, Reg Src) { aluRR(0x2B, Dst, Src); }
void X64Emitter::andRR(Reg Dst, Reg Src) { aluRR(0x23, Dst, Src); }
void X64Emitter::orRR(Reg Dst, Reg Src) { aluRR(0x0B, Dst, Src); }
void X64Emitter::xorRR(Reg Dst, Reg Src) { aluRR(0x33, Dst, Src); }
void X64Emitter::cmpRR(Reg A, Reg B) { aluRR(0x3B, A, B); }

void X64Emitter::imulRR(Reg Dst, Reg Src) {
  rex(Dst, Src);
  byte(0x0F);
  byte(0xAF);
  modrmReg(Dst, Src);
}

void X64Emitter::addRM(Reg Dst, Reg Base, int32_t Disp) {
  aluRM(0x03, Dst, Base, Disp);
}
void X64Emitter::subRM(Reg Dst, Reg Base, int32_t Disp) {
  aluRM(0x2B, Dst, Base, Disp);
}
void X64Emitter::andRM(Reg Dst, Reg Base, int32_t Disp) {
  aluRM(0x23, Dst, Base, Disp);
}
void X64Emitter::orRM(Reg Dst, Reg Base, int32_t Disp) {
  aluRM(0x0B, Dst, Base, Disp);
}
void X64Emitter::xorRM(Reg Dst, Reg Base, int32_t Disp) {
  aluRM(0x33, Dst, Base, Disp);
}
void X64Emitter::cmpRM(Reg A, Reg Base, int32_t Disp) {
  aluRM(0x3B, A, Base, Disp);
}

void X64Emitter::imulRM(Reg Dst, Reg Base, int32_t Disp) {
  rex(Dst, Base);
  byte(0x0F);
  byte(0xAF);
  modrmMem(Dst, Base, Disp);
}

void X64Emitter::addRI(Reg Dst, int32_t Imm) { aluRI(0, Dst, Imm); }
void X64Emitter::subRI(Reg Dst, int32_t Imm) { aluRI(5, Dst, Imm); }
void X64Emitter::andRI(Reg Dst, int32_t Imm) { aluRI(4, Dst, Imm); }
void X64Emitter::orRI(Reg Dst, int32_t Imm) { aluRI(1, Dst, Imm); }
void X64Emitter::xorRI(Reg Dst, int32_t Imm) { aluRI(6, Dst, Imm); }
void X64Emitter::cmpRI(Reg A, int32_t Imm) { aluRI(7, A, Imm); }

void X64Emitter::imulRI(Reg Dst, int32_t Imm) {
  // REX.W 6B /r ib or REX.W 69 /r id, with Dst as both operands.
  rex(Dst, Dst);
  byte(fitsImm8(Imm) ? 0x6B : 0x69);
  modrmReg(Dst, Dst);
  aluImm(Imm);
}

void X64Emitter::addMI(Reg Base, int32_t Disp, int32_t Imm) {
  aluMI(0, Base, Disp, Imm);
}
void X64Emitter::cmpMI(Reg Base, int32_t Disp, int32_t Imm) {
  aluMI(7, Base, Disp, Imm);
}
void X64Emitter::cmpMR(Reg Base, int32_t Disp, Reg B) {
  aluRM(0x39, B, Base, Disp);
}

void X64Emitter::testRR(Reg A, Reg B) {
  // test r/m64, r64: REX.W 85 /r (B is the reg field).
  rex(B, A);
  byte(0x85);
  modrmReg(B, A);
}

void X64Emitter::negR(Reg R) {
  rex(Reg::Rax, R);
  byte(0xF7);
  byte(0xC0 | (3 << 3) | lo3(R));
}

void X64Emitter::cqo() {
  byte(0x48);
  byte(0x99);
}

void X64Emitter::idivR(Reg Divisor) {
  rex(Reg::Rax, Divisor);
  byte(0xF7);
  byte(0xC0 | (7 << 3) | lo3(Divisor));
}

void X64Emitter::shlCl(Reg R) {
  rex(Reg::Rax, R);
  byte(0xD3);
  byte(0xC0 | (4 << 3) | lo3(R));
}

void X64Emitter::shrCl(Reg R) {
  rex(Reg::Rax, R);
  byte(0xD3);
  byte(0xC0 | (5 << 3) | lo3(R));
}

void X64Emitter::sarCl(Reg R) {
  rex(Reg::Rax, R);
  byte(0xD3);
  byte(0xC0 | (7 << 3) | lo3(R));
}

void X64Emitter::shlRI(Reg R, uint8_t N) { shiftRI(4, R, N); }
void X64Emitter::shrRI(Reg R, uint8_t N) { shiftRI(5, R, N); }
void X64Emitter::sarRI(Reg R, uint8_t N) { shiftRI(7, R, N); }

size_t X64Emitter::jcc(Cond C) {
  byte(0x0F);
  byte(0x80 | static_cast<uint8_t>(C));
  size_t At = Code.size();
  imm32(0);
  return At;
}

size_t X64Emitter::jmp() {
  byte(0xE9);
  size_t At = Code.size();
  imm32(0);
  return At;
}

void X64Emitter::patchRel32(size_t FixupOff, size_t Target) {
  assert(FixupOff + 4 <= Code.size() && "fixup outside emitted code");
  int64_t Rel = static_cast<int64_t>(Target) -
                static_cast<int64_t>(FixupOff + 4);
  assert(Rel >= INT32_MIN && Rel <= INT32_MAX && "jump out of rel32 range");
  auto V = static_cast<int32_t>(Rel);
  std::memcpy(Code.data() + FixupOff, &V, 4);
}

void X64Emitter::callR(Reg R) {
  if (ext(R))
    byte(0x41);
  byte(0xFF);
  byte(0xC0 | (2 << 3) | lo3(R));
}

void X64Emitter::pushR(Reg R) {
  if (ext(R))
    byte(0x41);
  byte(0x50 + lo3(R));
}

void X64Emitter::popR(Reg R) {
  if (ext(R))
    byte(0x41);
  byte(0x58 + lo3(R));
}

void X64Emitter::ret() { byte(0xC3); }

} // namespace backend
} // namespace jtc
