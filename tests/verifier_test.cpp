//===- tests/verifier_test.cpp - Static verifier ---------------------------===//

#include "bytecode/Verifier.h"

#include "TestPrograms.h"
#include "interp/PreparedModule.h"

#include <gtest/gtest.h>

#include <map>

using namespace jtc;

namespace {

/// Builds a single-method module around \p Code (0 args, \p Locals
/// locals, void) without going through the assembler, so malformed code
/// can be expressed.
Module rawModule(std::vector<Instruction> Code, uint32_t Locals = 2) {
  Module M;
  Method Main;
  Main.Name = "main";
  Main.NumLocals = Locals;
  Main.Code = std::move(Code);
  M.Methods.push_back(std::move(Main));
  M.EntryMethod = 0;
  return M;
}

bool hasErrorContaining(const Module &M, const std::string &Needle) {
  for (const VerifyError &E : verifyModule(M))
    if (E.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}

} // namespace

TEST(VerifierTest, AcceptsHandBuiltPrograms) {
  EXPECT_TRUE(isValid(testprog::countingLoop(10)));
  EXPECT_TRUE(isValid(testprog::recursiveFactorial(5)));
  EXPECT_TRUE(isValid(testprog::virtualDispatch()));
  EXPECT_TRUE(isValid(testprog::switchProgram()));
  EXPECT_TRUE(isValid(testprog::arraySquares(8)));
  EXPECT_TRUE(isValid(testprog::hotLoop(100)));
  EXPECT_TRUE(isValid(testprog::divideByZero()));
}

TEST(VerifierTest, RejectsMissingEntryMethod) {
  Module M;
  M.EntryMethod = 3;
  EXPECT_TRUE(hasErrorContaining(M, "entry method does not exist"));
}

TEST(VerifierTest, RejectsEntryWithArguments) {
  Module M = rawModule({Instruction(Opcode::Halt)});
  M.Methods[0].NumArgs = 1;
  M.Methods[0].NumLocals = 1;
  EXPECT_TRUE(hasErrorContaining(M, "entry method must take no arguments"));
}

TEST(VerifierTest, RejectsEmptyMethod) {
  Module M = rawModule({});
  EXPECT_TRUE(hasErrorContaining(M, "no code"));
}

TEST(VerifierTest, RejectsLocalOutOfRange) {
  Module M = rawModule({Instruction(Opcode::Iload, 5),
                        Instruction(Opcode::Pop), Instruction(Opcode::Halt)},
                       /*Locals=*/2);
  EXPECT_TRUE(hasErrorContaining(M, "local index out of range"));
}

TEST(VerifierTest, RejectsFewerLocalsThanArgs) {
  Module M = rawModule({Instruction(Opcode::Halt)});
  Method Extra;
  Extra.Name = "f";
  Extra.NumArgs = 3;
  Extra.NumLocals = 1;
  Extra.Code = {Instruction(Opcode::Return)};
  M.Methods.push_back(std::move(Extra));
  EXPECT_TRUE(hasErrorContaining(M, "fewer locals than arguments"));
}

TEST(VerifierTest, RejectsBranchTargetOutOfRange) {
  Module M = rawModule({Instruction(Opcode::Goto, 99)});
  EXPECT_TRUE(hasErrorContaining(M, "branch target out of range"));
}

TEST(VerifierTest, RejectsSwitchTableIndexOutOfRange) {
  Module M = rawModule({Instruction(Opcode::Iconst, 0),
                        Instruction(Opcode::Tableswitch, 2)});
  EXPECT_TRUE(hasErrorContaining(M, "switch table index out of range"));
}

TEST(VerifierTest, RejectsSwitchCaseTargetOutOfRange) {
  Module M = rawModule({Instruction(Opcode::Iconst, 0),
                        Instruction(Opcode::Tableswitch, 0),
                        Instruction(Opcode::Halt)});
  SwitchTable T;
  T.Low = 0;
  T.Targets = {77};
  T.DefaultTarget = 2;
  M.Methods[0].SwitchTables.push_back(T);
  EXPECT_TRUE(hasErrorContaining(M, "switch case target out of range"));
}

TEST(VerifierTest, RejectsUnknownInvokeStaticTarget) {
  Module M = rawModule({Instruction(Opcode::InvokeStatic, 9),
                        Instruction(Opcode::Halt)});
  EXPECT_TRUE(hasErrorContaining(M, "unknown method"));
}

TEST(VerifierTest, RejectsUnknownVirtualSlot) {
  Module M = rawModule({Instruction(Opcode::Iconst, 0),
                        Instruction(Opcode::InvokeVirtual, 4),
                        Instruction(Opcode::Halt)});
  EXPECT_TRUE(hasErrorContaining(M, "unknown slot"));
}

TEST(VerifierTest, RejectsUnknownClassInNew) {
  Module M = rawModule({Instruction(Opcode::New, 0),
                        Instruction(Opcode::Pop), Instruction(Opcode::Halt)});
  EXPECT_TRUE(hasErrorContaining(M, "unknown class"));
}

TEST(VerifierTest, RejectsStackUnderflow) {
  Module M = rawModule({Instruction(Opcode::Iadd), Instruction(Opcode::Halt)});
  EXPECT_TRUE(hasErrorContaining(M, "underflow"));
}

TEST(VerifierTest, RejectsCallSiteUnderflow) {
  Module M = rawModule({Instruction(Opcode::Halt)});
  Method F;
  F.Name = "f";
  F.NumArgs = 2;
  F.NumLocals = 2;
  F.ReturnsValue = true;
  F.Code = {Instruction(Opcode::Iconst, 0), Instruction(Opcode::Ireturn)};
  M.Methods.push_back(std::move(F));
  // main calls f with only one argument on the stack.
  M.Methods[0].Code = {Instruction(Opcode::Iconst, 1),
                       Instruction(Opcode::InvokeStatic, 1),
                       Instruction(Opcode::Pop), Instruction(Opcode::Halt)};
  EXPECT_TRUE(hasErrorContaining(M, "underflow"));
}

TEST(VerifierTest, RejectsInconsistentMergeHeights) {
  // Branch: one path pushes a value, the other does not, then they merge.
  Module M = rawModule({
      Instruction(Opcode::Iconst, 1), // 0: height 0 -> 1
      Instruction(Opcode::IfEq, 3),   // 1: height 1 -> 0; to 3 or fall to 2
      Instruction(Opcode::Iconst, 7), // 2: height 0 -> 1; falls into 3
      Instruction(Opcode::Halt),      // 3: reached with height 0 and 1
  });
  EXPECT_TRUE(hasErrorContaining(M, "inconsistent stack height"));
}

TEST(VerifierTest, RejectsFallingOffTheEnd) {
  Module M = rawModule({Instruction(Opcode::Nop)});
  EXPECT_TRUE(hasErrorContaining(M, "falls off the end"));
}

TEST(VerifierTest, RejectsIreturnInVoidMethod) {
  Module M = rawModule({Instruction(Opcode::Iconst, 1),
                        Instruction(Opcode::Ireturn)});
  EXPECT_TRUE(hasErrorContaining(M, "ireturn in a void method"));
}

TEST(VerifierTest, RejectsReturnInValueMethod) {
  Module M = rawModule({Instruction(Opcode::Halt)});
  Method F;
  F.Name = "f";
  F.NumArgs = 0;
  F.NumLocals = 0;
  F.ReturnsValue = true;
  F.Code = {Instruction(Opcode::Return)};
  M.Methods.push_back(std::move(F));
  EXPECT_TRUE(hasErrorContaining(M, "return in a value-returning method"));
}

TEST(VerifierTest, AllowsLeftoverStackAtReturn) {
  // JVM-style: residue on the operand stack at return is fine.
  Module M = rawModule({Instruction(Opcode::Iconst, 1),
                        Instruction(Opcode::Iconst, 2),
                        Instruction(Opcode::Halt)});
  EXPECT_TRUE(isValid(M));
}

TEST(VerifierTest, RejectsVtableSignatureMismatch) {
  Module M = rawModule({Instruction(Opcode::Halt)});
  Method Impl;
  Impl.Name = "impl";
  Impl.NumArgs = 1;
  Impl.NumLocals = 1;
  Impl.ReturnsValue = false;
  Impl.Code = {Instruction(Opcode::Return)};
  M.Methods.push_back(std::move(Impl));
  M.Slots.push_back({"s", /*ArgCount=*/2, /*ReturnsValue=*/true});
  Class C;
  C.Name = "C";
  C.Vtable = {1};
  M.Classes.push_back(std::move(C));
  EXPECT_TRUE(hasErrorContaining(M, "does not match slot"));
}

TEST(VerifierTest, RejectsMoreLocalsThanTheBound) {
  Module M = rawModule({Instruction(Opcode::Halt)}, MaxMethodLocals);
  EXPECT_TRUE(isValid(M));
  M.Methods[0].NumLocals = MaxMethodLocals + 1;
  EXPECT_TRUE(hasErrorContaining(M, "more than 65535 locals"));
}

TEST(VerifierTest, RejectsUnimplementedSlotWithTooManyArguments) {
  // No class implements the slot, so no vtable signature check sees it.
  Module M = rawModule({Instruction(Opcode::Halt)});
  M.Slots.push_back({"s", /*ArgCount=*/MaxMethodLocals, false});
  EXPECT_TRUE(isValid(M));
  M.Slots[0].ArgCount = MaxMethodLocals + 1;
  EXPECT_TRUE(hasErrorContaining(M, "more than 65535 arguments"));
}

TEST(VerifierTest, RejectsMisSizedVtable) {
  Module M = rawModule({Instruction(Opcode::Halt)});
  M.Slots.push_back({"s", 1, false});
  Class C;
  C.Name = "C";
  // Vtable left empty while one slot exists.
  M.Classes.push_back(std::move(C));
  EXPECT_TRUE(hasErrorContaining(M, "mis-sized vtable"));
}

TEST(VerifierTest, UnreachableGarbageIsIgnoredWhenTerminated) {
  // Dead code after a halt is never flow-analyzed (no height or type
  // checks), matching the JVM verifier's treatment of unreachable code
  // regions -- as long as the method still ends in a terminator.
  Module M = rawModule({Instruction(Opcode::Halt), Instruction(Opcode::Iadd),
                        Instruction(Opcode::Halt)});
  EXPECT_TRUE(isValid(M));
}

TEST(VerifierTest, RejectsDeadFalloffViaUnreachablePath) {
  // The last instruction is unreachable, but a method whose final
  // instruction is not a terminator is rejected structurally: no path,
  // reachable or not, may fall off the end of the code.
  Module M = rawModule({Instruction(Opcode::Halt), Instruction(Opcode::Iadd)});
  std::string S = formatErrors(verifyModule(M));
  EXPECT_NE(S.find("fall off the end"), std::string::npos) << S;
}

TEST(VerifierTest, FormatErrorsIsReadable) {
  Module M = rawModule({Instruction(Opcode::Goto, 99)});
  std::string S = formatErrors(verifyModule(M));
  EXPECT_NE(S.find("method 0"), std::string::npos);
  EXPECT_NE(S.find("branch target"), std::string::npos);
}

TEST(VerifierTest, AcceptsRandomGeneratedPrograms) {
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    testprog::RandomProgramBuilder Gen(Seed);
    Module M = Gen.build();
    EXPECT_TRUE(isValid(M)) << "seed " << Seed << ":\n"
                            << formatErrors(verifyModule(M));
  }
}

//===----------------------------------------------------------------------===//
// Fuzz-found regressions
//
// Malformed shapes the minimizer and generator can produce while
// mutating control flow. The contract under test is the fuzzer's safety
// net: the verifier must *reject* each of these (so the oracle never
// executes them), and must do so by returning errors -- not by
// crashing or asserting.
//===----------------------------------------------------------------------===//

namespace {

/// Single-method module whose Tableswitch at pc 1 uses \p Table.
Module switchModule(SwitchTable Table) {
  Module M = rawModule({Instruction(Opcode::Iconst, 0),
                        Instruction(Opcode::Tableswitch, 0),
                        Instruction(Opcode::Halt)});
  M.Methods[0].SwitchTables.push_back(std::move(Table));
  return M;
}

} // namespace

TEST(VerifierFuzzRegression, RejectsSwitchTableIndexOutOfRange) {
  // A deleted statement can orphan a Tableswitch from its table.
  Module M = rawModule({Instruction(Opcode::Iconst, 0),
                        Instruction(Opcode::Tableswitch, 3),
                        Instruction(Opcode::Halt)});
  EXPECT_TRUE(hasErrorContaining(M, "switch table index out of range"));
}

TEST(VerifierFuzzRegression, RejectsSwitchCaseTargetOutOfRange) {
  SwitchTable T;
  T.Targets = {2, 57}; // Second case points past the code.
  T.DefaultTarget = 2;
  EXPECT_TRUE(
      hasErrorContaining(switchModule(T), "switch case target out of range"));
}

TEST(VerifierFuzzRegression, RejectsSwitchDefaultTargetOutOfRange) {
  SwitchTable T;
  T.Targets = {2};
  T.DefaultTarget = 33;
  EXPECT_TRUE(hasErrorContaining(switchModule(T),
                                 "switch default target out of range"));
}

TEST(VerifierFuzzRegression, AcceptsEmptySwitchTargetListWithValidDefault) {
  // An empty case list is legal: every selector takes the default.
  SwitchTable T;
  T.Targets = {};
  T.DefaultTarget = 2;
  EXPECT_TRUE(isValid(switchModule(T)));
}

TEST(VerifierFuzzRegression, RejectsFallthroughPastLastInstruction) {
  // Truncating a method mid-block leaves a Normal instruction last;
  // execution would run off the code array.
  Module M = rawModule({Instruction(Opcode::Iconst, 1),
                        Instruction(Opcode::Iconst, 2),
                        Instruction(Opcode::Iadd)});
  EXPECT_TRUE(hasErrorContaining(M, "falls off the end"));
}

TEST(VerifierFuzzRegression, RejectsBranchFallthroughPastEnd) {
  // A not-taken conditional as the final instruction also falls off.
  Module M = rawModule({Instruction(Opcode::Iconst, 0),
                        Instruction(Opcode::IfEq, 0)});
  EXPECT_TRUE(hasErrorContaining(M, "falls off the end"));
}

TEST(VerifierFuzzRegression, RejectsStoreToOutOfRangeLocal) {
  // Locals shrink when a method is re-declared smaller; stale istore
  // indices must be caught, not scribble past the frame.
  Module M = rawModule({Instruction(Opcode::Iconst, 7),
                        Instruction(Opcode::Istore, 2),
                        Instruction(Opcode::Halt)},
                       /*Locals=*/2);
  EXPECT_TRUE(hasErrorContaining(M, "local index out of range"));
}

TEST(VerifierFuzzRegression, RejectsIincOfOutOfRangeLocal) {
  Module M = rawModule({Instruction(Opcode::Iinc, 9, 1),
                        Instruction(Opcode::Halt)},
                       /*Locals=*/2);
  EXPECT_TRUE(hasErrorContaining(M, "local index out of range"));
}

TEST(VerifierFuzzRegression, MalformedModulesNeverCrashTheVerifier) {
  // Belt and braces: throw every malformed shape above (and a few
  // combinations) through verifyModule and only require that it returns.
  std::vector<Module> Cases;
  Cases.push_back(rawModule({Instruction(Opcode::Tableswitch, 0)}));
  Cases.push_back(rawModule({Instruction(Opcode::Iconst, 0),
                             Instruction(Opcode::Tableswitch, -1),
                             Instruction(Opcode::Halt)}));
  SwitchTable Wild;
  Wild.Low = INT32_MIN;
  Wild.Targets = {0xffffffffu};
  Wild.DefaultTarget = 0xffffffffu;
  Cases.push_back(switchModule(Wild));
  Cases.push_back(rawModule({Instruction(Opcode::Iload, -1),
                             Instruction(Opcode::Pop),
                             Instruction(Opcode::Halt)}));
  Cases.push_back(rawModule({Instruction(Opcode::Goto, -5)}));
  for (size_t I = 0; I < Cases.size(); ++I)
    EXPECT_FALSE(verifyModule(Cases[I]).empty()) << "case " << I;
}

//===--- VerifyError::Block ------------------------------------------------===//

TEST(VerifierBlockTest, MalformedTargetsGetBlocksCountedByHand) {
  // Leaders: pc 0; pc 2 after the branch (its target 99 is out of range
  // and ignored); pc 4 after the switch (its table index 7 has no table,
  // so it has no targets); pc 5 after the goto and pc 6, its target. The
  // blocks are [0,2) [2,4) [4,5) [5,6) [6,8).
  Module M = rawModule({Instruction(Opcode::Iconst, 1),
                        Instruction(Opcode::IfEq, 99),
                        Instruction(Opcode::Iconst, 0),
                        Instruction(Opcode::Tableswitch, 7),
                        Instruction(Opcode::Goto, 6),
                        Instruction(Opcode::Nop),
                        Instruction(Opcode::Iload, 9),
                        Instruction(Opcode::Return)});
  std::map<uint32_t, uint32_t> BlockOfErrorPc;
  for (const VerifyError &E : verifyModule(M))
    BlockOfErrorPc[E.Pc] = E.Block;
  const std::map<uint32_t, uint32_t> Expected = {{1, 0}, {3, 1}, {6, 4}};
  EXPECT_EQ(BlockOfErrorPc, Expected) << formatErrors(verifyModule(M));
}

TEST(VerifierBlockTest, HeightErrorBlockMatchesPreparedModule) {
  // Structurally valid, so PreparedModule can cut it; the underflow sits
  // mid-block in method 1, whose blocks are [0,2) [2,3) [3,6).
  Module M = rawModule({Instruction(Opcode::Halt)});
  Method F;
  F.Name = "f";
  F.NumLocals = 2;
  F.Code = {Instruction(Opcode::Iconst, 0), Instruction(Opcode::IfEq, 3),
            Instruction(Opcode::Nop),       Instruction(Opcode::Nop),
            Instruction(Opcode::Iadd),      Instruction(Opcode::Return)};
  M.Methods.push_back(std::move(F));

  std::vector<VerifyError> Errors = verifyModule(M);
  ASSERT_EQ(Errors.size(), 1u) << formatErrors(Errors);
  const VerifyError &E = Errors[0];
  EXPECT_NE(E.Message.find("underflow"), std::string::npos) << E.Message;
  EXPECT_EQ(E.MethodId, 1u);
  EXPECT_EQ(E.Pc, 4u);

  PreparedModule PM(M);
  const BlockId First = PM.methodEntryBlock(E.MethodId);
  BlockId B = First;
  while (PM.block(B).EndPc <= E.Pc)
    ++B;
  EXPECT_EQ(E.Block, B - First);
  EXPECT_EQ(E.Block, 2u);
}
