//===- structures/CgIncrement.cpp - Coarse-grained increment ---------------===//
//
// Part of fcsl-cpp. See CgIncrement.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "structures/CgIncrement.h"

#include "concurroid/Registry.h"
#include "pcm/Algebra.h"
#include "structures/SpinLock.h"
#include "structures/TicketLock.h"

using namespace fcsl;

Ptr fcsl::counterResourceCell() { return Ptr(1); }

ResourceModel fcsl::counterResourceModel(Label Lk, uint64_t EnvCap) {
  ResourceModel Model;
  Model.ClientType = PCMType::nat();
  Model.Invariant = [](const Heap &Res, const PCMVal &Total) {
    if (Res.size() != 1 || !Res.contains(counterResourceCell()))
      return false;
    const Val &Cell = Res.lookup(counterResourceCell());
    return Cell.isInt() &&
           Cell.getInt() == static_cast<int64_t>(Total.getNat());
  };
  Model.EnvReleaseOptions =
      [Lk, EnvCap](const View &EnvView)
      -> std::vector<std::pair<Heap, PCMVal>> {
    std::vector<std::pair<Heap, PCMVal>> Out;
    uint64_t Mine = EnvView.self(Lk).second().getNat();
    uint64_t Others = EnvView.other(Lk).second().getNat();
    if (Mine + 1 > EnvCap)
      return Out;
    Out.emplace_back(
        Heap::singleton(counterResourceCell(),
                        Val::ofInt(static_cast<int64_t>(Mine + 1 + Others))),
        PCMVal::ofNat(Mine + 1));
    return Out;
  };
  return Model;
}

ActionRef fcsl::defineIncrProgram(const LockProtocol &P, DefTable &Defs) {
  P.DefineLock(Defs, "lock");

  ActionRef Read = makePrivRead(P.C, P.Pv);
  ActionRef Write = makePrivWrite(P.C, P.Pv);

  // unlock_incr: returns the (updated) counter cell and bumps the caller's
  // contribution by one.
  Label Pv = P.Pv;
  auto ClientSelf = P.ClientSelf;
  ActionRef Unlock = P.MakeUnlock(
      "unlock_incr", 0,
      [Pv, ClientSelf](const View &S, const std::vector<Val> &)
          -> std::optional<std::pair<Heap, PCMVal>> {
        const Heap &Mine = S.self(Pv).getHeap();
        const Val *Cell = Mine.tryLookup(counterResourceCell());
        if (!Cell)
          return std::nullopt;
        return std::make_pair(
            Heap::singleton(counterResourceCell(), *Cell),
            PCMVal::ofNat(ClientSelf(S).getNat() + 1));
      });

  // incr() := lock(); v <-- read p; write p (v + 1); unlock_incr().
  ExprRef Cell = Expr::litPtr(counterResourceCell());
  Defs.define(
      "incr",
      FuncDef{{},
              Prog::seq(
                  Prog::call("lock", {}),
                  Prog::bind(
                      Prog::act(Read, {Cell}), "v",
                      Prog::seq(
                          Prog::act(Write,
                                    {Cell, Expr::add(Expr::var("v"),
                                                     Expr::litInt(1))}),
                          Prog::act(Unlock, {}))))});
  return Unlock;
}

//===----------------------------------------------------------------------===//
// The Table 1 row.
//===----------------------------------------------------------------------===//

namespace {

constexpr Label PvLbl = 1;
constexpr Label LkLbl = 2;

GlobalState incrInitialState(const LockProtocol &P, uint64_t EnvTotal,
                             PCMTypeRef LockSelfType) {
  GlobalState GS;
  GS.addLabel(P.Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()),
              /*EnvClosed=*/false);
  PCMVal EnvSelf = LockSelfType->unit();
  EnvSelf = PCMVal::makePair(EnvSelf.first(), PCMVal::ofNat(EnvTotal));
  GS.addLabel(P.Lk, LockSelfType,
              P.InitialJoint(Heap::singleton(
                  counterResourceCell(),
                  Val::ofInt(static_cast<int64_t>(EnvTotal)))),
              std::move(EnvSelf), /*EnvClosed=*/false);
  return GS;
}

/// The {self = c} incr() {self = c + delta} triple with the given lock
/// factory, in registration-time form so the proof unit is content-keyed.
/// \p Threads parallel callers: 1 is the sequential client, 2 the binary
/// par, 3 a flattened par spine — a 3-ary orbit group under --symmetry,
/// whose 3! interleavings collapse to one representative per step.
TripleCase incrCaseWith(const LockFactory &Factory, PCMTypeRef TokenType,
                        unsigned Threads, bool EnvInterference) {
  ResourceModel Model = counterResourceModel(LkLbl, /*EnvCap=*/1);
  LockProtocol P = Factory(PvLbl, LkLbl, Model);
  auto Defs = std::make_shared<DefTable>();
  defineIncrProgram(P, *Defs);

  TripleCase TC;
  TC.Main = Prog::call("incr", {});
  for (unsigned T = 1; T < Threads; ++T)
    TC.Main = Prog::par(Prog::call("incr", {}), TC.Main);
  uint64_t Delta = Threads;

  TC.S.Name = Threads == 1   ? "incr"
              : Threads == 2 ? "parallel_incr"
                             : "parallel_incr_x" + std::to_string(Threads);
  TC.S.C = P.C;
  TC.S.Pre = Assertion("counter resource installed", [P](const View &V) {
    return V.hasLabel(P.Lk) && !P.HoldsLock(V);
  });
  TC.S.PostName = "self contribution grew by the number of increments";
  auto ClientSelf = P.ClientSelf;
  Label Lk = P.Lk;
  TC.S.Post = [ClientSelf, Delta, Lk](const Val &R, const View &I,
                                      const View &F) {
    if (!R.isUnit() && !R.isPair())
      return false;
    if (ClientSelf(F).getNat() != ClientSelf(I).getNat() + Delta)
      return false;
    // When the lock is free in the final state, the counter cell equals
    // the combined contribution (the resource invariant, observable).
    const Val *Cell = F.joint(Lk).tryLookup(counterResourceCell());
    if (Cell) {
      std::optional<PCMVal> Total = F.selfOtherJoin(Lk);
      if (!Total ||
          Cell->getInt() !=
              static_cast<int64_t>(Total->second().getNat()))
        return false;
    }
    return true;
  };

  for (uint64_t EnvTotal : {uint64_t{0}, uint64_t{1}})
    TC.Instances.push_back(
        VerifyInstance{incrInitialState(P, EnvTotal,
                                        PCMType::pairOf(TokenType,
                                                        PCMType::nat())),
                       {}});

  TC.Opts.Ambient = P.C;
  TC.Opts.EnvInterference = EnvInterference;
  TC.Defs = Defs;
  return TC;
}

} // namespace

VerificationSession fcsl::makeCgIncrementSession() {
  VerificationSession Session("CG increment");

  // Libs: the nat-PCM addition laws this client's reasoning leans on.
  PCMTypeRef LawType = PCMType::nat();
  std::vector<PCMVal> LawSample;
  for (uint64_t N = 0; N <= 4; ++N)
    LawSample.push_back(PCMVal::ofNat(N));
  Session.addObligation(
      ObCategory::Libs, "nat_pcm_laws",
      pcmLawInputs(LawType, LawSample, 1).text("cancellative"),
      [LawSample](const ResolvedModes &) {
        PCMLawReport R = checkPCMLaws(*PCMType::nat(), LawSample);
        return lawObligation(R.allHold() && checkCancellativity(LawSample),
                             R.JoinsEvaluated);
      });

  // Main: sequential increment under interference, with both locks; then
  // the parallel clients (closed world so the +k outcome is exact). The
  // three-caller spine is the suite's k-ary orbit-group exercise: under
  // --symmetry its 3! schedules fold to one representative per step.
  addTriple(Session, "incr_with_cas_lock",
            incrCaseWith(casLockFactory(), PCMType::mutex(),
                         /*Threads=*/1, /*EnvInterference=*/true));
  addTriple(Session, "incr_with_ticket_lock",
            incrCaseWith(ticketLockFactory(), PCMType::ptrSet(),
                         /*Threads=*/1, /*EnvInterference=*/true));
  addTriple(Session, "parallel_incr_cas_lock",
            incrCaseWith(casLockFactory(), PCMType::mutex(),
                         /*Threads=*/2, /*EnvInterference=*/false));
  addTriple(Session, "parallel_incr_ticket_lock",
            incrCaseWith(ticketLockFactory(), PCMType::ptrSet(),
                         /*Threads=*/2, /*EnvInterference=*/false));
  addTriple(Session, "parallel_incr3_cas_lock",
            incrCaseWith(casLockFactory(), PCMType::mutex(),
                         /*Threads=*/3, /*EnvInterference=*/false));

  return Session;
}

void fcsl::registerCgIncrementLibrary() {
  globalRegistry().registerLibrary(LibraryInfo{
      "CG increment",
      {ConcurroidUse{"Priv", false}, ConcurroidUse{"CLock", true},
       ConcurroidUse{"TLock", true}},
      {"Abstract lock"}});
}
