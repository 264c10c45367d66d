//===- validate/Validator.cpp ---------------------------------------------===//

#include "validate/Validator.h"

#include "analysis/Analysis.h"
#include "bytecode/OpSemantics.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

using namespace jtc;
using namespace jtc::validate;

const char *validate::reasonName(Reason R) {
  switch (R) {
  case Reason::None:
    return "none";
  case Reason::ShapeMismatch:
    return "shape-mismatch";
  case Reason::Unsupported:
    return "unsupported";
  case Reason::GuardDropped:
    return "guard-dropped";
  case Reason::GuardExtra:
    return "guard-extra";
  case Reason::GuardOperandMismatch:
    return "guard-operand-mismatch";
  case Reason::GuardExitMismatch:
    return "guard-exit-mismatch";
  case Reason::SideExitLocalMismatch:
    return "side-exit-local-mismatch";
  case Reason::SideExitStackMismatch:
    return "side-exit-stack-mismatch";
  case Reason::SideExitEffectMismatch:
    return "side-exit-effect-mismatch";
  case Reason::EffectMismatch:
    return "effect-mismatch";
  case Reason::FinalLocalMismatch:
    return "final-local-mismatch";
  case Reason::FinalStackMismatch:
    return "final-stack-mismatch";
  case Reason::MemLoadUnjustified:
    return "mem-load-unjustified";
  case Reason::MemStoreUnjustified:
    return "mem-store-unjustified";
  case Reason::MemSinkUnjustified:
    return "mem-sink-unjustified";
  }
  return "none";
}

const ErrorDomain &validate::reasonDomain() {
  static const ErrorDomain Dom = {"validate", [](uint32_t Code) {
                                    return reasonName(
                                        static_cast<Reason>(Code));
                                  }};
  return Dom;
}

namespace {

//===----------------------------------------------------------------------===//
// Hash-consed symbolic expressions
//===----------------------------------------------------------------------===//

/// One node of the shared expression DAG. Hash-consing makes node-id
/// equality a sound (if incomplete) proof of value equality: both runs
/// build their values in the same pool, so a computation the optimizer
/// merely re-arranged syntactically converges to the same id as long as
/// the validator's folder normalizes both spellings.
struct Expr {
  enum class Kind : uint8_t {
    Init,    ///< Initial value of local C.
    StackIn, ///< C-th value popped from the incoming operand stack.
    Const,   ///< The constant C.
    Unop,    ///< Op applied to A.
    Binop,   ///< Op applied to (A, B).
    Opaque,  ///< Result of the C-th observable effect (unused today).
    HeapInit, ///< The opaque heap the segment starts from.
    Alloc,    ///< The C-th in-segment allocation. Op is New (A = class
              ///< id) or NewArray (A = length value id). Allocations are
              ///< never added, dropped or reordered, so the C-th one
              ///< denotes the same object in both runs.
    Addr,     ///< A heap cell address. Op canonicalizes the group
              ///< (GetField = field, Iaload = element, ArrayLength =
              ///< length), A = base value id, B = element index value
              ///< id, C = field index immediate.
    Store,    ///< A heap state: frame B (a StoreBind) over heap A.
    StoreBind, ///< One store frame: address A holds value B.
    Select,   ///< A stuck heap read: address A against heap B.
  };
  Kind K;
  Opcode Op = Opcode::Nop;
  int64_t C = 0;
  uint32_t A = 0, B = 0;
};

class ExprPool {
public:
  uint32_t init(uint32_t Local) {
    return intern({Expr::Kind::Init, Opcode::Nop, Local, 0, 0});
  }
  uint32_t stackIn(uint32_t K) {
    return intern({Expr::Kind::StackIn, Opcode::Nop, K, 0, 0});
  }
  uint32_t constant(int64_t V) {
    return intern({Expr::Kind::Const, Opcode::Nop, V, 0, 0});
  }
  uint32_t opaque(uint64_t EffectIndex) {
    return intern(
        {Expr::Kind::Opaque, Opcode::Nop, static_cast<int64_t>(EffectIndex), 0,
         0});
  }
  uint32_t unop(Opcode Op, uint32_t A) {
    assert(Op == Opcode::Ineg);
    if (auto C = constOf(A))
      return constant(evalNeg(*C));
    return intern({Expr::Kind::Unop, Op, 0, A, 0});
  }
  /// Folds constant operands with the opcode table's semantics. Unlike
  /// the optimizer's folder there is no immediate-range restriction: the
  /// validator tracks real semantics, not re-emittability, and both runs
  /// fold under the same rules so optimized and unoptimized spellings of
  /// a constant computation reach the same node.
  uint32_t binop(Opcode Op, uint32_t A, uint32_t B) {
    auto CA = constOf(A), CB = constOf(B);
    int64_t Folded = 0;
    if (CA && CB && evalBinary(Op, *CA, *CB, Folded))
      return constant(Folded);
    return intern({Expr::Kind::Binop, Op, 0, A, B});
  }
  std::optional<int64_t> constOf(uint32_t Id) const {
    const Expr &E = Nodes[Id];
    if (E.K == Expr::Kind::Const)
      return E.C;
    return std::nullopt;
  }

  const Expr &node(uint32_t Id) const { return Nodes[Id]; }

  //===--------------------------------------------------------------------===//
  // Symbolic heap
  //===--------------------------------------------------------------------===//

  uint32_t heapInit() {
    return intern({Expr::Kind::HeapInit, Opcode::Nop, 0, 0, 0});
  }
  uint32_t alloc(Opcode Op, uint32_t Ordinal, uint32_t Aux) {
    return intern({Expr::Kind::Alloc, Op, Ordinal, Aux, 0});
  }
  /// The address of a field / element / length cell. \p GroupOp is the
  /// canonical load opcode of the group, so a GetField and a PutField of
  /// the same field intern the same address.
  uint32_t addr(Opcode GroupOp, uint32_t Base, uint32_t Index,
                int32_t FieldImm) {
    return intern({Expr::Kind::Addr, GroupOp, FieldImm, Base, Index});
  }
  /// The StoreBind frame "Addr holds Value" (for effect bookkeeping).
  uint32_t bind(uint32_t Addr, uint32_t Value) {
    return intern({Expr::Kind::StoreBind, Opcode::Nop, 0, Addr, Value});
  }

  /// True when the two addresses can never name the same cell: different
  /// groups, same base with a provably different index, two distinct
  /// in-segment allocations, or an in-segment allocation against a value
  /// that existed before it (an initial local or incoming stack value
  /// cannot hold a reference that is only created later; type-verified
  /// code cannot forge one from arithmetic).
  bool distinctAddrs(uint32_t A, uint32_t B) const {
    if (A == B)
      return false;
    const Expr &EA = Nodes[A], &EB = Nodes[B];
    if (EA.Op != EB.Op)
      return true; // different cell groups never alias
    if (EA.A == EB.A) { // same base value
      if (EA.Op == Opcode::GetField)
        return EA.C != EB.C;
      if (EA.Op == Opcode::Iaload) {
        auto CI = constOf(EA.B), CJ = constOf(EB.B);
        return CI && CJ && *CI != *CJ;
      }
      return false;
    }
    auto BaseKind = [&](uint32_t Id) { return Nodes[Id].K; };
    Expr::Kind KA = BaseKind(EA.A), KB = BaseKind(EB.A);
    if (KA == Expr::Kind::Alloc && KB == Expr::Kind::Alloc)
      return true; // distinct allocations are distinct objects
    if (KA == Expr::Kind::Alloc &&
        (KB == Expr::Kind::Init || KB == Expr::Kind::StackIn))
      return true;
    if (KB == Expr::Kind::Alloc &&
        (KA == Expr::Kind::Init || KA == Expr::Kind::StackIn))
      return true;
    return false;
  }

  /// Pushes a store frame, normalizing so both runs converge to the same
  /// chain id: an older frame for the *same* address is collapsed away
  /// (it can no longer be observed), and provably distinct adjacent
  /// frames are ordered by address id (commuting them is sound, and a
  /// canonical order makes a sunk store meet its source-side twin).
  uint32_t store(uint32_t Heap, uint32_t Addr, uint32_t Value) {
    if (auto Collapsed = removeStore(Heap, Addr, 16))
      Heap = *Collapsed;
    return pushFrame(Heap, intern({Expr::Kind::StoreBind, Opcode::Nop, 0, Addr,
                                   Value}),
                     16);
  }

  /// Reads \p Addr out of \p Heap: the nearest frame for the same
  /// address wins; provably distinct frames are skipped. An unresolvable
  /// read is a stuck Select node keyed by the address and the deepest
  /// heap the walk reached -- identical reads in both runs unify even
  /// when one run's chain carries extra provably distinct frames.
  uint32_t select(uint32_t Heap, uint32_t Addr) {
    int Depth = 32;
    uint32_t Cur = Heap;
    while (Depth-- > 0 && Nodes[Cur].K == Expr::Kind::Store) {
      const Expr Frame = Nodes[Cur];
      const Expr Bind = Nodes[Frame.B];
      if (Bind.A == Addr)
        return Bind.B;
      if (!distinctAddrs(Bind.A, Addr))
        break;
      Cur = Frame.A;
    }
    const Expr &AE = Nodes[Addr];
    // The length of an in-segment array allocation is its length operand
    // (lengths are immutable, so no store can intervene).
    if (AE.Op == Opcode::ArrayLength &&
        Nodes[AE.A].K == Expr::Kind::Alloc &&
        Nodes[AE.A].Op == Opcode::NewArray)
      return Nodes[AE.A].A;
    return intern({Expr::Kind::Select, Opcode::Nop, 0, Addr, Cur});
  }

  /// Collects a heap chain's store frames, deepest first. Returns false
  /// when the chain exceeds the bound.
  bool chainBinds(uint32_t Heap, std::vector<uint32_t> &BindsOut,
                  uint32_t &BottomOut) const {
    std::vector<uint32_t> Rev;
    uint32_t Cur = Heap;
    for (int Depth = 0; Nodes[Cur].K == Expr::Kind::Store; ++Depth) {
      if (Depth > 256)
        return false;
      Rev.push_back(Nodes[Cur].B);
      Cur = Nodes[Cur].A;
    }
    BottomOut = Cur;
    BindsOut.assign(Rev.rbegin(), Rev.rend());
    return true;
  }

  /// Rebuilds \p Heap with each bind in \p Skip removed once (the
  /// justified-dead stores), re-normalizing every remaining frame. Equal
  /// to the chain the other run built iff it performed exactly the
  /// non-skipped stores.
  std::optional<uint32_t> rebuildWithout(uint32_t Heap,
                                         std::vector<uint32_t> Skip) {
    std::vector<uint32_t> Binds;
    uint32_t Bottom = 0;
    if (!chainBinds(Heap, Binds, Bottom))
      return std::nullopt;
    uint32_t Out = Bottom;
    for (uint32_t B : Binds) {
      auto It = std::find(Skip.begin(), Skip.end(), B);
      if (It != Skip.end()) {
        Skip.erase(It);
        continue;
      }
      Out = store(Out, Nodes[B].A, Nodes[B].B);
    }
    return Out;
  }

private:
  /// Removes the nearest frame for exactly \p Addr, looking through
  /// provably distinct frames. nullopt when no removable frame is found.
  std::optional<uint32_t> removeStore(uint32_t Heap, uint32_t Addr,
                                      int Depth) {
    if (Depth == 0 || Nodes[Heap].K != Expr::Kind::Store)
      return std::nullopt;
    const Expr Frame = Nodes[Heap];
    const Expr Bind = Nodes[Frame.B];
    if (Bind.A == Addr)
      return Frame.A;
    if (!distinctAddrs(Bind.A, Addr))
      return std::nullopt;
    if (auto Parent = removeStore(Frame.A, Addr, Depth - 1))
      return intern({Expr::Kind::Store, Opcode::Nop, 0, *Parent, Frame.B});
    return std::nullopt;
  }

  /// Inserts \p Bind into \p Heap, sinking it below provably distinct
  /// frames with a larger address id (canonical order for commuting
  /// frames).
  uint32_t pushFrame(uint32_t Heap, uint32_t Bind, int Depth) {
    if (Depth > 0 && Nodes[Heap].K == Expr::Kind::Store) {
      const Expr Frame = Nodes[Heap];
      uint32_t TopAddr = Nodes[Frame.B].A;
      uint32_t MyAddr = Nodes[Bind].A;
      if (distinctAddrs(TopAddr, MyAddr) && MyAddr < TopAddr)
        return intern({Expr::Kind::Store, Opcode::Nop, 0,
                       pushFrame(Frame.A, Bind, Depth - 1), Frame.B});
    }
    return intern({Expr::Kind::Store, Opcode::Nop, 0, Heap, Bind});
  }

  uint32_t intern(Expr E) {
    auto Key = std::make_tuple(static_cast<uint8_t>(E.K),
                               static_cast<uint8_t>(E.Op), E.C, E.A, E.B);
    auto [It, Inserted] =
        Interned.try_emplace(Key, static_cast<uint32_t>(Nodes.size()));
    if (Inserted)
      Nodes.push_back(E);
    return It->second;
  }

  std::vector<Expr> Nodes;
  std::map<std::tuple<uint8_t, uint8_t, int64_t, uint32_t, uint32_t>, uint32_t>
      Interned;
};

//===----------------------------------------------------------------------===//
// Symbolic evaluation of one segment
//===----------------------------------------------------------------------===//

/// One observable effect, in program order. The baseline refinement is
/// element-wise agreement; heap loads and stores additionally carry
/// their symbolic address (and, for stores, the store-frame bind) so the
/// alignment walk can justify the memory optimizer's eliminations
/// instead of demanding identity.
struct Effect {
  enum class Kind : uint8_t {
    Print,   ///< Iprint of Operands[0].
    Heap,    ///< Allocation or heap/array access.
    MayTrap, ///< Division whose divisor is not provably nonzero.
  };
  Kind K;
  Opcode Op;
  int32_t A = 0, B = 0;            ///< Instruction immediates (field ids...).
  std::vector<uint32_t> Operands;  ///< Value ids, deepest first.
  /// For heap loads/stores: the cell's Addr node. 0 for allocations and
  /// non-heap effects. Not part of equality (it is derived from Operands).
  uint32_t Addr = 0;
  /// For heap stores: the StoreBind frame this store pushed. Lets the
  /// final-heap check strip justified-dead stores bind-by-bind.
  uint32_t Bind = 0;

  bool operator==(const Effect &O) const {
    return K == O.K && Op == O.Op && A == O.A && B == O.B &&
           Operands == O.Operands;
  }
};

/// What was observed at one surviving guard: its identity, its exit
/// metadata, and a full snapshot of the machine state just after the
/// guard's operands were popped -- exactly the state the interpreter
/// resumes from when the guard fires.
struct GuardObs {
  Opcode Op;
  bool Taken;
  uint32_t ExitPc;
  bool HasLiveAtExit;
  analysis::LocalSet LiveAtExit;
  std::vector<uint32_t> Operands; ///< Condition values, deepest first.
  std::vector<uint32_t> Locals;
  std::vector<uint32_t> Stack; ///< Values pushed in-segment (deepest first).
  uint32_t StackInCount;       ///< Incoming values consumed so far.
  size_t Effects;              ///< Effects emitted before this guard.
  uint32_t Token;              ///< Symbolic heap at the guard.
};

struct SymState {
  std::vector<uint32_t> Locals;
  std::vector<uint32_t> Stack;
  uint32_t StackInCount = 0;
  std::vector<Effect> Effects;
  std::vector<GuardObs> Guards;
  uint32_t HeapToken = 0; ///< Final symbolic heap.
};

/// A stack state modulo untouched incoming values: (values still
/// consumed, values pushed on top of the remaining incoming stack). A
/// popped-and-repushed incoming value is normalized away so a run that
/// never touched the stack and one that popped a value and pushed it back
/// compare equal -- they are.
struct CanonStack {
  uint32_t Consumed = 0;
  std::vector<uint32_t> Values;

  bool operator==(const CanonStack &O) const {
    return Consumed == O.Consumed && Values == O.Values;
  }
};

class SymEval {
public:
  SymEval(const LinearSegment &Seg, ExprPool &Pool) : Seg(Seg), Pool(Pool) {}

  /// Evaluates the whole segment. Returns false (with \p Unsupported
  /// detail) when an opcode outside the segment grammar shows up.
  bool run(SymState &Out, std::string &UnsupportedDetail) {
    S.HeapToken = Pool.heapInit();
    S.Locals.resize(Seg.NumLocals);
    for (uint32_t L = 0; L < Seg.NumLocals; ++L)
      S.Locals[L] = Pool.init(L);
    // Entry assumptions: locals proved constant at the segment entry.
    // Seeding them identically in both runs is what makes facts-based
    // folding and guard elimination validatable.
    for (const auto &[L, C] : Seg.EntryConsts)
      if (L < Seg.NumLocals)
        S.Locals[L] = Pool.constant(C);

    for (const LinearOp &Op : Seg.Ops) {
      bool Ok = Op.K == LinearOp::Kind::Guard ? evalGuard(Op) : evalInstr(Op.I);
      if (!Ok) {
        UnsupportedDetail = Detail;
        return false;
      }
    }
    Out = std::move(S);
    return true;
  }

  static CanonStack canonicalize(const std::vector<uint32_t> &Stack,
                                 uint32_t Consumed, ExprPool &Pool) {
    CanonStack C;
    size_t Begin = 0;
    // Strip pushed-back incoming values: if the deepest in-segment push
    // is exactly the deepest incoming value consumed, the two cancel.
    while (Consumed > 0 && Begin < Stack.size() &&
           Stack[Begin] == Pool.stackIn(Consumed - 1)) {
      ++Begin;
      --Consumed;
    }
    C.Consumed = Consumed;
    C.Values.assign(Stack.begin() + static_cast<ptrdiff_t>(Begin),
                    Stack.end());
    return C;
  }

private:
  uint32_t pop() {
    if (S.Stack.empty())
      return Pool.stackIn(S.StackInCount++);
    uint32_t V = S.Stack.back();
    S.Stack.pop_back();
    return V;
  }
  void push(uint32_t V) { S.Stack.push_back(V); }

  /// Pops \p N operands, returning them deepest-first.
  std::vector<uint32_t> popOperands(int N) {
    std::vector<uint32_t> Ops(static_cast<size_t>(N));
    for (int I = N; I-- > 0;)
      Ops[static_cast<size_t>(I)] = pop();
    return Ops;
  }

  /// The Addr node a heap load reads (operands deepest-first).
  uint32_t loadAddr(const Instruction &I, const std::vector<uint32_t> &Ops) {
    switch (I.Op) {
    case Opcode::GetField:
      return Pool.addr(Opcode::GetField, Ops[0], 0, I.A);
    case Opcode::Iaload:
      return Pool.addr(Opcode::Iaload, Ops[0], Ops[1], 0);
    default: // ArrayLength
      return Pool.addr(Opcode::ArrayLength, Ops[0], 0, 0);
    }
  }

  bool evalInstr(const Instruction &I) {
    switch (I.Op) {
    case Opcode::Nop:
      return true;
    case Opcode::Iconst:
      push(Pool.constant(I.A));
      return true;
    case Opcode::Iload:
      push(S.Locals[static_cast<uint32_t>(I.A)]);
      return true;
    case Opcode::Istore:
      S.Locals[static_cast<uint32_t>(I.A)] = pop();
      return true;
    case Opcode::Iinc: {
      auto X = static_cast<uint32_t>(I.A);
      S.Locals[X] = Pool.binop(Opcode::Iadd, S.Locals[X], Pool.constant(I.B));
      return true;
    }
    case Opcode::Pop:
      pop();
      return true;
    case Opcode::Dup: {
      uint32_t V = pop();
      push(V);
      push(V);
      return true;
    }
    case Opcode::Swap: {
      uint32_t B = pop(), A = pop();
      push(B);
      push(A);
      return true;
    }
    case Opcode::Ineg:
      push(Pool.unop(Opcode::Ineg, pop()));
      return true;
    case Opcode::Iadd:
    case Opcode::Isub:
    case Opcode::Imul:
    case Opcode::Ishl:
    case Opcode::Ishr:
    case Opcode::Iushr:
    case Opcode::Iand:
    case Opcode::Ior:
    case Opcode::Ixor: {
      uint32_t B = pop(), A = pop();
      push(Pool.binop(I.Op, A, B));
      return true;
    }
    case Opcode::Idiv:
    case Opcode::Irem: {
      uint32_t B = pop(), A = pop();
      // A division whose divisor is not provably nonzero may trap: that
      // is an observable event whose position must be preserved. When
      // the divisor is a nonzero constant the operation is pure.
      auto CB = Pool.constOf(B);
      if (!CB || *CB == 0)
        S.Effects.push_back({Effect::Kind::MayTrap, I.Op, 0, 0, {A, B}});
      push(Pool.binop(I.Op, A, B));
      return true;
    }
    case Opcode::Iprint:
      S.Effects.push_back({Effect::Kind::Print, I.Op, 0, 0, {pop()}});
      return true;
    case Opcode::New:
    case Opcode::NewArray: {
      // Allocations are ordered effects (they can trap: OOM, negative
      // size) and their results are Alloc nodes keyed by ordinal: the
      // memory passes never add, drop or reorder allocations, so the
      // C-th allocation denotes the same object in both runs.
      std::vector<uint32_t> Ops = popOperands(opPops(I.Op));
      uint32_t Aux = I.Op == Opcode::New ? static_cast<uint32_t>(I.A) : Ops[0];
      S.Effects.push_back({Effect::Kind::Heap, I.Op, I.A, I.B, Ops});
      push(Pool.alloc(I.Op, AllocCount++, Aux));
      return true;
    }
    case Opcode::GetField:
    case Opcode::Iaload:
    case Opcode::ArrayLength: {
      // A heap read is an ordered effect (it checks its base and index,
      // and a read moved across a write would observe a different heap),
      // but its *value* comes from the symbolic heap: a load whose cell
      // was written or read on the trace path resolves to the same node
      // id the optimizer forwarded.
      std::vector<uint32_t> Ops = popOperands(opPops(I.Op));
      uint32_t Addr = loadAddr(I, Ops);
      Effect E{Effect::Kind::Heap, I.Op, I.A, I.B, Ops};
      E.Addr = Addr;
      S.Effects.push_back(std::move(E));
      push(Pool.select(S.HeapToken, Addr));
      return true;
    }
    case Opcode::PutField:
    case Opcode::Iastore: {
      std::vector<uint32_t> Ops = popOperands(opPops(I.Op));
      uint32_t Addr =
          I.Op == Opcode::PutField
              ? Pool.addr(Opcode::GetField, Ops[0], 0, I.A)
              : Pool.addr(Opcode::Iaload, Ops[0], Ops[1], 0);
      S.HeapToken = Pool.store(S.HeapToken, Addr, Ops.back());
      Effect E{Effect::Kind::Heap, I.Op, I.A, I.B, Ops};
      E.Addr = Addr;
      E.Bind = Pool.bind(Addr, Ops.back());
      S.Effects.push_back(std::move(E));
      return true;
    }
    default: {
      std::ostringstream OS;
      OS << "opcode " << mnemonic(I.Op) << " in a linear segment";
      Detail = OS.str();
      return false;
    }
    }
  }

  bool evalGuard(const LinearOp &Op) {
    GuardObs G;
    G.Op = Op.I.Op;
    G.Taken = Op.GuardTaken;
    G.ExitPc = Op.ExitPc;
    G.HasLiveAtExit = Op.HasLiveAtExit;
    G.LiveAtExit = Op.LiveAtExit;
    G.Operands = popOperands(opPops(Op.I.Op));
    G.Locals = S.Locals;
    G.Stack = S.Stack;
    G.StackInCount = S.StackInCount;
    G.Effects = S.Effects.size();
    G.Token = S.HeapToken;
    S.Guards.push_back(std::move(G));
    return true;
  }

  const LinearSegment &Seg;
  ExprPool &Pool;
  SymState S;
  uint32_t AllocCount = 0;
  std::string Detail;
};

std::string describeLocal(uint32_t L) {
  return "local " + std::to_string(L);
}

} // namespace

//===----------------------------------------------------------------------===//
// The refinement check
//===----------------------------------------------------------------------===//

Result validate::validateSegment(const LinearSegment &Src,
                                 const LinearSegment &Opt, const Module *M) {
  if (Src.MethodId != Opt.MethodId || Src.NumLocals != Opt.NumLocals ||
      Src.ScratchBase != Opt.ScratchBase || Src.EntryConsts != Opt.EntryConsts)
    return Result::fail(Reason::ShapeMismatch,
                        "frame metadata differs between source and optimized "
                        "segments");

  ExprPool Pool;
  SymState A, B;
  std::string Detail;
  if (!SymEval(Src, Pool).run(A, Detail))
    return Result::fail(Reason::Unsupported, "source: " + Detail);
  if (!SymEval(Opt, Pool).run(B, Detail))
    return Result::fail(Reason::Unsupported, "optimized: " + Detail);

  // --- Guard alignment -------------------------------------------------
  //
  // Walk the source guards in order, holding a cursor into the optimized
  // guards. Each source guard must either match the cursor's guard (same
  // condition over the same value ids, same exit metadata, equivalent
  // machine state) or be *justified*: provably redundant under the entry
  // facts, or dominated by an identical check that already passed.
  using GuardKey = std::tuple<Opcode, bool, std::vector<uint32_t>>;
  std::set<GuardKey> Passed;
  /// A matched guard pair as seen by the effect-alignment walk: effects
  /// may not cross it, and any store held back past it must be proven
  /// unobservable on the exit path.
  struct Barrier {
    size_t Ra, Oa;               ///< Effect counts before the guard.
    uint32_t RefToken, OptToken; ///< Symbolic heaps at the guard.
    size_t GuardIdx;
    const GuardObs *G; ///< Source observation (exit-visible state).
  };
  std::vector<Barrier> Bars;
  size_t J = 0;
  for (size_t I = 0; I < A.Guards.size(); ++I) {
    const GuardObs &G = A.Guards[I];
    const GuardObs *H = J < B.Guards.size() ? &B.Guards[J] : nullptr;
    bool Matches = H && H->Op == G.Op && H->Taken == G.Taken &&
                   H->Operands == G.Operands;
    if (Matches) {
      if (H->ExitPc != G.ExitPc || H->HasLiveAtExit != G.HasLiveAtExit ||
          !(H->LiveAtExit == G.LiveAtExit))
        return Result::fail(Reason::GuardExitMismatch,
                            "guard " + std::to_string(I) +
                                ": exit metadata differs");
      // Side-exit state: when the guard fires, the interpreter resumes
      // at ExitPc from the *source* machine state. Every live root-frame
      // local, the whole operand stack, and the effect prefix must
      // therefore agree.
      for (uint32_t L = 0; L < Src.ScratchBase; ++L) {
        if (G.HasLiveAtExit && !G.LiveAtExit.test(L))
          continue; // dead at the exit: stale values are unobservable
        if (G.Locals[L] != H->Locals[L])
          return Result::fail(Reason::SideExitLocalMismatch,
                              "guard " + std::to_string(I) + ": " +
                                  describeLocal(L) +
                                  " differs at the side exit");
      }
      if (!(SymEval::canonicalize(G.Stack, G.StackInCount, Pool) ==
            SymEval::canonicalize(H->Stack, H->StackInCount, Pool)))
        return Result::fail(Reason::SideExitStackMismatch,
                            "guard " + std::to_string(I) +
                                ": operand stack differs at the side exit");
      Bars.push_back({G.Effects, H->Effects, G.Token, H->Token, I, &G});
      Passed.insert({G.Op, G.Taken, G.Operands});
      ++J;
      continue;
    }

    // Not matched: justified elimination?
    bool Justified = false;
    if (G.Op != Opcode::Tableswitch) {
      // Entry facts: all condition values constant and evaluating to the
      // recorded direction -- the guard can never fire.
      auto C0 = Pool.constOf(G.Operands[0]);
      auto C1 = G.Operands.size() > 1 ? Pool.constOf(G.Operands[1])
                                      : std::optional<int64_t>(0);
      if (C0 && C1 && evalBranch(G.Op, *C0, *C1) == G.Taken)
        Justified = true;
      // Domination: an identical check over the same value ids already
      // passed, so this one cannot fire either.
      if (!Justified && Passed.count({G.Op, G.Taken, G.Operands}))
        Justified = true;
    }
    if (Justified)
      continue;
    if (H && H->Op == G.Op && H->Taken == G.Taken)
      return Result::fail(Reason::GuardOperandMismatch,
                          "guard " + std::to_string(I) +
                              ": condition tests different values");
    return Result::fail(Reason::GuardDropped,
                        "guard " + std::to_string(I) +
                            " has no optimized counterpart and no "
                            "justification");
  }
  if (J < B.Guards.size())
    return Result::fail(Reason::GuardExtra,
                        std::to_string(B.Guards.size() - J) +
                            " unmatched guard(s) in the optimized segment");

  // --- Final state ------------------------------------------------------
  for (uint32_t L = 0; L < Src.ScratchBase; ++L)
    if (A.Locals[L] != B.Locals[L])
      return Result::fail(Reason::FinalLocalMismatch,
                          describeLocal(L) + " differs at the segment end");
  if (!(SymEval::canonicalize(A.Stack, A.StackInCount, Pool) ==
        SymEval::canonicalize(B.Stack, B.StackInCount, Pool)))
    return Result::fail(Reason::FinalStackMismatch,
                        "operand stack differs at the segment end");
  // --- Effect alignment -------------------------------------------------
  //
  // Walk the source effect list against the optimized one. The memory
  // optimizer is allowed exactly three liberties: omit a heap load whose
  // checks are provably already established (its value came from the
  // symbolic heap), hold a heap store back past its program point (it
  // lands later, or never), and drop a store that is provably dead. Every
  // other divergence is the old element-wise mismatch. Barriers (matched
  // guards) cap the matching: no effect may cross a side exit, and every
  // store held back across one needs an unobservability proof.
  auto isHeapStore = [](const Effect &E) {
    return E.K == Effect::Kind::Heap &&
           (E.Op == Opcode::PutField || E.Op == Opcode::Iastore);
  };
  auto isHeapLoad = [](const Effect &E) {
    return E.K == Effect::Kind::Heap &&
           (E.Op == Opcode::GetField || E.Op == Opcode::Iaload ||
            E.Op == Opcode::ArrayLength);
  };
  // Trap-freedom from the address shape alone: the base must be an
  // in-segment allocation (live, non-null, known kind) with the accessed
  // slot provably in bounds. Re-derived from the symbolic nodes -- the
  // validator never trusts the optimizer's own alias facts.
  auto noTrapAddr = [&](uint32_t AddrId) {
    const Expr &AE = Pool.node(AddrId);
    const Expr &Base = Pool.node(AE.A);
    if (Base.K != Expr::Kind::Alloc)
      return false;
    if (AE.Op == Opcode::GetField)
      return Base.Op == Opcode::New && M && AE.C >= 0 &&
             Base.A < M->Classes.size() &&
             static_cast<uint32_t>(AE.C) < M->Classes[Base.A].NumFields;
    if (AE.Op == Opcode::Iaload) {
      if (Base.Op != Opcode::NewArray)
        return false;
      auto Len = Pool.constOf(Base.A);
      auto Idx = Pool.constOf(AE.B);
      return Len && Idx && *Idx >= 0 && *Idx < *Len;
    }
    // ArrayLength: a fresh array is live and has a length.
    return AE.Op == Opcode::ArrayLength && Base.Op == Opcode::NewArray;
  };

  struct PendingStore {
    const Effect *E;
    /// No observable effect has matched since this was held back; a
    /// possibly-trapping store may only move within such a clean window.
    bool Clean = true;
  };
  std::vector<PendingStore> Pend;
  std::set<uint32_t> ProvenAddrs; ///< Addresses whose checks ran in source.
  std::set<uint32_t> Escaped;     ///< Values the source stored into the heap.
  auto dirtyPend = [&] {
    for (PendingStore &P : Pend)
      P.Clean = false;
  };
  // Consumes opt effect \p J2 as the delayed flush of a held-back store.
  // Out-of-order flushes are only sound over a trap-free prefix, and a
  // possibly-trapping store only flushes inside its clean window.
  auto tryDrain = [&](size_t OptIdx) {
    for (size_t K = 0; K < Pend.size(); ++K) {
      if (!(*Pend[K].E == B.Effects[OptIdx]))
        continue;
      if (!noTrapAddr(Pend[K].E->Addr) && !Pend[K].Clean)
        return false;
      for (size_t P = 0; P < K; ++P)
        if (!noTrapAddr(Pend[P].E->Addr))
          return false;
      Pend.erase(Pend.begin() + static_cast<ptrdiff_t>(K));
      return true;
    }
    return false;
  };
  // Is value \p V observable when this guard's exit fires?
  auto observableAt = [&](const GuardObs &G, uint32_t V) {
    for (uint32_t L = 0; L < Src.ScratchBase; ++L) {
      if (G.HasLiveAtExit && !G.LiveAtExit.test(L))
        continue;
      if (G.Locals[L] == V)
        return true;
    }
    CanonStack CS = SymEval::canonicalize(G.Stack, G.StackInCount, Pool);
    return std::find(CS.Values.begin(), CS.Values.end(), V) != CS.Values.end();
  };
  auto observableAtEnd = [&](uint32_t V) {
    for (uint32_t L = 0; L < Src.ScratchBase; ++L)
      if (A.Locals[L] == V)
        return true;
    CanonStack CS = SymEval::canonicalize(A.Stack, A.StackInCount, Pool);
    return std::find(CS.Values.begin(), CS.Values.end(), V) != CS.Values.end();
  };

  size_t RI = 0, OJ = 0, BI = 0;
  auto cap = [&] { return BI < Bars.size() ? Bars[BI].Oa : B.Effects.size(); };
  auto atBarrier = [&](const Barrier &Bar) -> std::optional<Result> {
    while (OJ < Bar.Oa && tryDrain(OJ))
      ++OJ;
    if (OJ != Bar.Oa) {
      if (isHeapStore(B.Effects[OJ]))
        return Result::fail(Reason::MemStoreUnjustified,
                            "guard " + std::to_string(Bar.GuardIdx) +
                                ": the optimized segment stores before the "
                                "exit with no source counterpart");
      return Result::fail(Reason::SideExitEffectMismatch,
                          "guard " + std::to_string(Bar.GuardIdx) +
                              ": an observable effect crossed the exit");
    }
    std::vector<uint32_t> Binds;
    for (const PendingStore &P : Pend) {
      uint32_t BaseId = Pool.node(P.E->Addr).A;
      if (!noTrapAddr(P.E->Addr) || Escaped.count(BaseId) ||
          observableAt(*Bar.G, BaseId))
        return Result::fail(Reason::MemSinkUnjustified,
                            "guard " + std::to_string(Bar.GuardIdx) +
                                ": a held-back store crosses the exit "
                                "without an unobservability proof");
      Binds.push_back(P.E->Bind);
    }
    auto Rebuilt = Pool.rebuildWithout(Bar.RefToken, Binds);
    if (!Rebuilt || *Rebuilt != Bar.OptToken)
      return Result::fail(Reason::MemStoreUnjustified,
                          "guard " + std::to_string(Bar.GuardIdx) +
                              ": heaps diverge at the side exit");
    dirtyPend();
    return std::nullopt;
  };

  for (;;) {
    while (BI < Bars.size() && Bars[BI].Ra == RI) {
      if (auto R = atBarrier(Bars[BI]))
        return *R;
      ++BI;
    }
    if (RI >= A.Effects.size())
      break;
    const Effect &E = A.Effects[RI];
    bool Consumed = false;
    for (;;) {
      if (OJ < cap() && B.Effects[OJ] == E) {
        if (E.Addr)
          ProvenAddrs.insert(E.Addr);
        if (isHeapStore(E)) {
          Escaped.insert(E.Operands.back());
          // An overwrite consumed in place kills an older held-back
          // store for the same address, under the same removability
          // rule as the held-back overwrite below: the old store cannot
          // trap, or this twin's identical trap condition replaces it
          // within a clean window.
          for (size_t K = 0; K < Pend.size();) {
            if (Pend[K].E->Addr == E.Addr &&
                (noTrapAddr(Pend[K].E->Addr) ||
                 (K + 1 == Pend.size() && Pend[K].Clean)))
              Pend.erase(Pend.begin() + static_cast<ptrdiff_t>(K));
            else
              ++K;
          }
        }
        dirtyPend();
        ++OJ;
        Consumed = true;
        break;
      }
      if (OJ < cap() && tryDrain(OJ)) {
        ++OJ;
        continue;
      }
      break;
    }
    if (!Consumed) {
      if (isHeapStore(E)) {
        // Held back. The source ran its checks here, and its value is
        // published as far as escape analysis is concerned.
        ProvenAddrs.insert(E.Addr);
        Escaped.insert(E.Operands.back());
        // An exact overwrite kills an older held-back store -- removable
        // when trap order provably survives: the old store cannot trap,
        // or its twin trap condition replaces it with no window.
        for (size_t K = 0; K < Pend.size();) {
          if (Pend[K].E->Addr == E.Addr &&
              (noTrapAddr(Pend[K].E->Addr) ||
               (K + 1 == Pend.size() && Pend[K].Clean)))
            Pend.erase(Pend.begin() + static_cast<ptrdiff_t>(K));
          else
            ++K;
        }
        Pend.push_back({&E, true});
      } else if (isHeapLoad(E)) {
        // Before treating the load as eliminated: if the optimized run
        // performs this very load later, it was not eliminated at all --
        // the effect at the cursor is an extra or out-of-order effect
        // (e.g. a store the source never owed here), and the blame
        // belongs to it.
        for (size_t Ahead = OJ; Ahead < cap(); ++Ahead) {
          if (!(B.Effects[Ahead] == E))
            continue;
          if (isHeapStore(B.Effects[OJ]))
            return Result::fail(Reason::MemStoreUnjustified,
                                "the optimized segment stores before a kept "
                                "load with no source counterpart");
          return Result::fail(Reason::EffectMismatch,
                              "observable effects diverge at index " +
                                  std::to_string(RI));
        }
        // Omitted load: sound only if reaching it implies its checks
        // already passed (the address was accessed before, possibly by a
        // store that is itself held back) or can never fail.
        bool PendHas = false;
        for (const PendingStore &P : Pend)
          PendHas = PendHas || P.E->Addr == E.Addr;
        if (!ProvenAddrs.count(E.Addr) && !PendHas && !noTrapAddr(E.Addr))
          return Result::fail(Reason::MemLoadUnjustified,
                              "source heap load at effect " +
                                  std::to_string(RI) +
                                  " vanished without an established-access "
                                  "or trap-freedom proof");
        ProvenAddrs.insert(E.Addr);
      } else {
        if (OJ >= cap() && BI < Bars.size())
          return Result::fail(Reason::SideExitEffectMismatch,
                              "guard " + std::to_string(Bars[BI].GuardIdx) +
                                  ": an observable effect crossed the exit");
        return Result::fail(Reason::EffectMismatch,
                            "observable effects diverge at index " +
                                std::to_string(RI));
      }
    }
    ++RI;
  }

  // Tail: remaining optimized effects must be flushes of held-back
  // stores; whatever never lands must be provably dead.
  while (OJ < B.Effects.size() && tryDrain(OJ))
    ++OJ;
  if (OJ < B.Effects.size()) {
    if (isHeapStore(B.Effects[OJ]))
      return Result::fail(Reason::MemStoreUnjustified,
                          "the optimized segment performs a store the source "
                          "does not (or out of order)");
    return Result::fail(Reason::EffectMismatch,
                        "unmatched optimized effect at index " +
                            std::to_string(OJ));
  }
  std::vector<uint32_t> Leftover;
  for (const PendingStore &P : Pend) {
    uint32_t BaseId = Pool.node(P.E->Addr).A;
    if (!noTrapAddr(P.E->Addr) || Escaped.count(BaseId) ||
        observableAtEnd(BaseId))
      return Result::fail(Reason::MemStoreUnjustified,
                          "a source store was eliminated without a "
                          "dead-store proof");
    Leftover.push_back(P.E->Bind);
  }
  auto FinalRebuilt = Pool.rebuildWithout(A.HeapToken, Leftover);
  if (!FinalRebuilt || *FinalRebuilt != B.HeapToken)
    return Result::fail(Reason::MemStoreUnjustified,
                        "final heaps diverge");
  return Result::pass();
}

Result validate::validateTrace(const PreparedModule &PM, const Trace &T,
                               const OptConfig &Config,
                               const analysis::ModuleAnalysis *Facts) {
  OptStats Stats;
  std::vector<LinearSegment> Segments =
      linearizeTrace(PM, T, /*InlineStaticCalls=*/false, Facts);
  for (size_t I = 0; I < Segments.size(); ++I) {
    LinearSegment Opt =
        optimizeSegment(Segments[I], Stats, Config, &PM.module());
    Result R = validateSegment(Segments[I], Opt, &PM.module());
    if (!R.Ok) {
      R.SegmentIndex = static_cast<uint32_t>(I);
      return R;
    }
  }
  return Result::pass();
}
