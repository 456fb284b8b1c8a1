//===- structures/CgAllocator.cpp - Coarse-grained allocator ---------------===//
//
// Part of fcsl-cpp. See CgAllocator.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "structures/CgAllocator.h"

#include "concurroid/Registry.h"
#include "pcm/Algebra.h"
#include "structures/SpinLock.h"
#include "structures/TicketLock.h"

using namespace fcsl;

bool fcsl::isPoolCell(Ptr P) {
  return !P.isNull() && P.id() <= AllocPoolSize;
}

namespace {

/// The pool cells sitting in \p H.
Heap poolCellsIn(const Heap &H, unsigned PoolSize) {
  Heap Out;
  for (const auto &Cell : H)
    if (Cell.first.id() <= PoolSize)
      Out.insert(Cell.first, Cell.second);
  return Out;
}

} // namespace

ResourceModel fcsl::allocatorResourceModel(Label Pv, Label Lk,
                                           unsigned PoolSize) {
  ResourceModel Model;
  Model.ClientType = PCMType::nat();
  Model.Invariant = [PoolSize](const Heap &Res, const PCMVal &Total) {
    if (Res.size() + Total.getNat() != PoolSize)
      return false;
    for (const auto &Cell : Res)
      if (Cell.first.id() > PoolSize || !Cell.second.isInt())
        return false;
    return true;
  };
  Model.EnvReleaseOptions =
      [Pv, Lk, PoolSize](const View &EnvView)
      -> std::vector<std::pair<Heap, PCMVal>> {
    std::vector<std::pair<Heap, PCMVal>> Out;
    Heap Pool = poolCellsIn(EnvView.self(Pv).getHeap(), PoolSize);
    uint64_t Mine = EnvView.self(Lk).second().getNat();
    // Release untouched (idles are pruned by configuration dedup) ...
    Out.emplace_back(Pool, PCMVal::ofNat(Mine));
    // ... or withdraw the smallest pool cell. The env withdraws at most
    // one cell so the bounded pool cannot be exhausted under the
    // verified client (bounded-interference instance).
    if (!Pool.isEmpty() && Mine < 1) {
      Ptr Smallest = Pool.domain().front();
      Out.emplace_back(Pool.without({Smallest}), PCMVal::ofNat(Mine + 1));
    }
    return Out;
  };
  return Model;
}

void fcsl::defineAllocProgram(const LockProtocol &P, DefTable &Defs,
                              unsigned PoolSize) {
  P.DefineLock(Defs, "lock");

  // pick_pool_cell: () -> ptr. Reads (without removing) the smallest pool
  // cell from the caller's private heap; unsafe when the pool is empty —
  // the Table 1 instance sizes programs so exhaustion cannot happen, and
  // the exhaustion test exercises the unsafe case deliberately.
  Label Pv = P.Pv;
  ActionRef Pick = makeAction(
      "pick_pool_cell", P.C, 0,
      [Pv, PoolSize](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        Heap Pool = poolCellsIn(Pre.self(Pv).getHeap(), PoolSize);
        if (Pool.isEmpty())
          return std::nullopt;
        return std::vector<ActOutcome>{
            {Val::ofPtr(Pool.domain().front()), Pre}};
      },
      // Reads only the caller's private heap (the pool cells live there
      // while the lock is held) and changes nothing.
      Footprint::none().read(FpAtom::selfAux(Pv)));

  auto ClientSelf = P.ClientSelf;
  ActionRef Unlock = P.MakeUnlock(
      "unlock_alloc", 1, // Arg: the withdrawn pointer.
      [Pv, PoolSize, ClientSelf](const View &S, const std::vector<Val> &Args)
          -> std::optional<std::pair<Heap, PCMVal>> {
        if (!Args[0].isPtr())
          return std::nullopt;
        Heap Pool = poolCellsIn(S.self(Pv).getHeap(), PoolSize);
        if (!Pool.contains(Args[0].getPtr()))
          return std::nullopt;
        return std::make_pair(Pool.without({Args[0].getPtr()}),
                              PCMVal::ofNat(ClientSelf(S).getNat() + 1));
      });

  // alloc() := lock(); r <-- pick_pool_cell; unlock_alloc(r); ret r.
  Defs.define(
      "alloc",
      FuncDef{{},
              Prog::seq(Prog::call("lock", {}),
                        Prog::bind(Prog::act(Pick, {}), "r",
                                   Prog::seq(Prog::act(Unlock,
                                                       {Expr::var("r")}),
                                             Prog::ret(Expr::var("r")))))});
}

//===----------------------------------------------------------------------===//
// The Table 1 row.
//===----------------------------------------------------------------------===//

namespace {

constexpr Label PvLbl = 1;
constexpr Label LkLbl = 2;

Heap fullPool(unsigned PoolSize) {
  Heap Pool;
  for (unsigned I = 1; I <= PoolSize; ++I)
    Pool.insert(Ptr(I), Val::ofInt(0));
  return Pool;
}

GlobalState allocInitialState(const LockProtocol &P,
                              PCMTypeRef LockSelfType) {
  GlobalState GS;
  GS.addLabel(P.Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()),
              /*EnvClosed=*/false);
  GS.addLabel(P.Lk, LockSelfType, P.InitialJoint(fullPool(AllocPoolSize)),
              LockSelfType->unit(), /*EnvClosed=*/false);
  return GS;
}

TripleCase allocCaseWith(const LockFactory &Factory, PCMTypeRef TokenType,
                         bool EnvInterference) {
  ResourceModel Model =
      allocatorResourceModel(PvLbl, LkLbl, AllocPoolSize);
  LockProtocol P = Factory(PvLbl, LkLbl, Model);
  auto Defs = std::make_shared<DefTable>();
  defineAllocProgram(P, *Defs, AllocPoolSize);

  TripleCase TC;
  TC.Main = Prog::call("alloc", {});
  TC.S.Name = "alloc";
  TC.S.C = P.C;
  TC.S.Pre = Assertion("pool installed, not holding", [P](const View &V) {
    return V.hasLabel(P.Lk) && !P.HoldsLock(V);
  });
  TC.S.PostName = "returns a pool pointer now owned privately; count grew";
  Label Pv = P.Pv;
  auto ClientSelf = P.ClientSelf;
  TC.S.Post = [Pv, ClientSelf](const Val &R, const View &I, const View &F) {
    if (!R.isPtr() || !isPoolCell(R.getPtr()))
      return false;
    // The allocated cell moved into my private heap ...
    if (!F.self(Pv).getHeap().contains(R.getPtr()))
      return false;
    // ... and my allocation count grew by one.
    return ClientSelf(F).getNat() == ClientSelf(I).getNat() + 1;
  };

  TC.Instances.push_back(VerifyInstance{
      allocInitialState(P, PCMType::pairOf(TokenType, PCMType::nat())),
      {}});

  TC.Opts.Ambient = P.C;
  TC.Opts.EnvInterference = EnvInterference;
  TC.Defs = Defs;
  return TC;
}

} // namespace

VerificationSession fcsl::makeCgAllocatorSession() {
  VerificationSession Session("CG allocator");

  PCMTypeRef LawType = PCMType::heap();
  std::vector<PCMVal> LawSample = {
      PCMVal::ofHeap(Heap()),
      PCMVal::ofHeap(Heap::singleton(Ptr(1), Val::ofInt(0))),
      PCMVal::ofHeap(Heap::singleton(Ptr(2), Val::ofInt(0))),
      PCMVal::ofHeap(Heap::singleton(Ptr(1), Val::ofInt(7))),
      PCMVal::ofHeap(fullPool(AllocPoolSize))};
  Session.addObligation(
      ObCategory::Libs, "heap_pcm_laws",
      pcmLawInputs(LawType, LawSample, 1).text("cancellative"),
      [LawSample](const ResolvedModes &) {
        PCMLawReport R = checkPCMLaws(*PCMType::heap(), LawSample);
        return lawObligation(R.allHold() && checkCancellativity(LawSample),
                             R.JoinsEvaluated);
      });

  addTriple(Session, "alloc_with_cas_lock",
            allocCaseWith(casLockFactory(), PCMType::mutex(),
                          /*EnvInterference=*/true));
  addTriple(Session, "alloc_with_ticket_lock",
            allocCaseWith(ticketLockFactory(), PCMType::ptrSet(),
                          /*EnvInterference=*/true));
  {
    // par(alloc, alloc): the two pointers are distinct (closed world).
    ResourceModel Model =
        allocatorResourceModel(PvLbl, LkLbl, AllocPoolSize);
    LockProtocol P = makeCasLock(PvLbl, LkLbl, Model);
    auto Defs = std::make_shared<DefTable>();
    defineAllocProgram(P, *Defs, AllocPoolSize);
    TripleCase TC;
    TC.Main = Prog::par(Prog::call("alloc", {}), Prog::call("alloc", {}));
    TC.S.Name = "parallel_alloc";
    TC.S.C = P.C;
    TC.S.Pre = assertTrue();
    TC.S.PostName = "distinct pool pointers";
    TC.S.Post = [](const Val &R, const View &, const View &) {
      return R.isPair() && R.first().isPtr() && R.second().isPtr() &&
             R.first().getPtr() != R.second().getPtr();
    };
    TC.Instances.push_back(VerifyInstance{
        allocInitialState(P, PCMType::pairOf(PCMType::mutex(),
                                             PCMType::nat())),
        {}});
    TC.Opts.Ambient = P.C;
    TC.Opts.EnvInterference = false;
    TC.Defs = Defs;
    addTriple(Session, "two_allocs_disjoint", std::move(TC));
  }

  return Session;
}

void fcsl::registerCgAllocatorLibrary() {
  globalRegistry().registerLibrary(LibraryInfo{
      "CG allocator",
      {ConcurroidUse{"Priv", false}, ConcurroidUse{"CLock", true},
       ConcurroidUse{"TLock", true}},
      {"Abstract lock"}});
}
