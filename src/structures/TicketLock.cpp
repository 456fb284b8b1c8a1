//===- structures/TicketLock.cpp - Ticketed lock (TLock) -------------------===//
//
// Part of fcsl-cpp. See TicketLock.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "structures/TicketLock.h"

#include "concurroid/Registry.h"
#include "pcm/Algebra.h"

using namespace fcsl;

namespace {

Ptr ownerPtrFor(Label Lk) { return Ptr(9100 + Lk); }
Ptr nextPtrFor(Label Lk) { return Ptr(9200 + Lk); }
Ptr servingPtrFor(Label Lk) { return Ptr(9300 + Lk); }

/// Tickets are encoded as pointer tokens in the disjoint-set PCM.
Ptr ticketToken(int64_t Ticket) {
  return Ptr(static_cast<uint32_t>(8000 + Ticket));
}

/// Caps the number of outstanding (taken, unserved) environment tickets so
/// interference enumeration stays finite.
const int64_t PendingCap = 2;

/// Absolute cap on environment-drawn ticket numbers: without it, idling
/// env lock/unlock cycles would advance owner/next forever and the state
/// space would be infinite (each cycle is a *new* state, unlike the CAS
/// lock where idling cycles revisit old states and are pruned).
const int64_t EnvTicketCap = 6;

struct TLockCells {
  int64_t Owner = 0;
  int64_t Next = 0;
  bool Serving = false; ///< true while the resource is checked out.
};

std::optional<TLockCells> readCells(const Heap &Joint, Label Lk) {
  const Val *Owner = Joint.tryLookup(ownerPtrFor(Lk));
  const Val *Next = Joint.tryLookup(nextPtrFor(Lk));
  const Val *Serving = Joint.tryLookup(servingPtrFor(Lk));
  if (!Owner || !Next || !Serving || !Owner->isInt() || !Next->isInt() ||
      !Serving->isBool())
    return std::nullopt;
  return TLockCells{Owner->getInt(), Next->getInt(), Serving->getBool()};
}

Heap controlCells(Label Lk, const TLockCells &Cells) {
  Heap H;
  H.insert(ownerPtrFor(Lk), Val::ofInt(Cells.Owner));
  H.insert(nextPtrFor(Lk), Val::ofInt(Cells.Next));
  H.insert(servingPtrFor(Lk), Val::ofBool(Cells.Serving));
  return H;
}

Heap resourcePart(const Heap &Joint, Label Lk) {
  return Joint.without({ownerPtrFor(Lk), nextPtrFor(Lk),
                        servingPtrFor(Lk)});
}

bool holdsTicket(const PCMVal &Self, int64_t Ticket) {
  return Self.first().getPtrSet().count(ticketToken(Ticket)) != 0;
}

/// Footprint of drawing a ticket: bump `next`, validate the other control
/// cells, extend the agent's ticket set. The resource cells are untouched.
Footprint takeFootprint(Label Lk) {
  return Footprint::none()
      .read(FpAtom::jointCell(Lk, ownerPtrFor(Lk)))
      .read(FpAtom::jointCell(Lk, servingPtrFor(Lk)))
      .readWrite(FpAtom::jointCell(Lk, nextPtrFor(Lk)))
      .readWrite(FpAtom::selfAux(Lk));
}

/// Footprint of entering (checking the resource out): the whole lock joint
/// heap changes domain (resource cells move into the agent's private
/// heap), the ticket set is only read.
Footprint enterFootprint(Label Pv, Label Lk) {
  return Footprint::none()
      .readWrite(FpAtom::joint(Lk))
      .read(FpAtom::selfAux(Lk))
      .readWrite(FpAtom::selfAux(Pv));
}

/// Footprint of leaving: on top of enter's effects the ticket set and
/// client contribution change, and the resource invariant is re-checked
/// against the other agents' contribution.
Footprint leaveFootprint(Label Pv, Label Lk) {
  return Footprint::none()
      .readWrite(FpAtom::joint(Lk))
      .readWrite(FpAtom::selfAux(Lk))
      .readWrite(FpAtom::selfAux(Pv))
      .read(FpAtom::otherAux(Lk));
}

} // namespace

LockProtocol fcsl::makeTicketLock(Label Pv, Label Lk,
                                  const ResourceModel &Model) {
  PCMTypeRef SelfType = PCMType::pairOf(PCMType::ptrSet(),
                                        Model.ClientType);
  auto Invariant = Model.Invariant;

  // --- Coherence ---------------------------------------------------------
  auto LockCoh = [Pv, Lk, SelfType, Invariant](const View &S) {
    if (!S.hasLabel(Lk) || !S.hasLabel(Pv))
      return false;
    if (!SelfType->admits(S.self(Lk)) || !SelfType->admits(S.other(Lk)))
      return false;
    std::optional<PCMVal> Total = S.selfOtherJoin(Lk);
    if (!Total)
      return false;
    std::optional<TLockCells> Cells = readCells(S.joint(Lk), Lk);
    if (!Cells || Cells->Owner > Cells->Next)
      return false;
    // Outstanding tickets are exactly {owner..next-1}.
    const std::set<Ptr> &Tickets = Total->first().getPtrSet();
    if (static_cast<int64_t>(Tickets.size()) != Cells->Next - Cells->Owner)
      return false;
    for (int64_t T = Cells->Owner; T < Cells->Next; ++T)
      if (!Tickets.count(ticketToken(T)))
        return false;
    if (Cells->Serving) {
      // Resource checked out: only the control cells remain, and the
      // serving ticket is outstanding.
      return resourcePart(S.joint(Lk), Lk).isEmpty() &&
             Tickets.count(ticketToken(Cells->Owner)) != 0;
    }
    return Invariant(resourcePart(S.joint(Lk), Lk), Total->second());
  };

  auto Lock = makeConcurroid(
      "TLock", {OwnedLabel{Lk, "tlk", SelfType}}, LockCoh);

  // --- tl_take: draw a ticket (fetch-and-increment of next) -------------
  Lock->addTransition(Transition(
      "tlock_take", TransitionKind::Internal,
      [Lk](const View &Pre) -> std::vector<View> {
        if (!Pre.hasLabel(Lk))
          return {};
        std::optional<TLockCells> Cells = readCells(Pre.joint(Lk), Lk);
        if (!Cells || Cells->Next - Cells->Owner >= PendingCap ||
            Cells->Next >= EnvTicketCap)
          return {}; // Bounded environment contention.
        View Post = Pre;
        Heap Joint = Pre.joint(Lk);
        Joint.update(nextPtrFor(Lk), Val::ofInt(Cells->Next + 1));
        Post.setJoint(Lk, std::move(Joint));
        std::set<Ptr> Mine = Pre.self(Lk).first().getPtrSet();
        Mine.insert(ticketToken(Cells->Next));
        Post.setSelf(Lk, PCMVal::makePair(PCMVal::ofPtrSet(std::move(Mine)),
                                          Pre.self(Lk).second()));
        return {Post};
      },
      // Thread-side takes ignore the pending cap (the fetch-and-increment
      // hardware op is total), so coverage is structural.
      [Lk](const View &Pre, const View &Post) {
        if (!Pre.hasLabel(Lk))
          return false;
        for (Label L : Pre.labels())
          if (L != Lk && !(Pre.slice(L) == Post.slice(L)))
            return false;
        std::optional<TLockCells> Before = readCells(Pre.joint(Lk), Lk);
        std::optional<TLockCells> After = readCells(Post.joint(Lk), Lk);
        if (!Before || !After)
          return false;
        if (After->Next != Before->Next + 1 ||
            After->Owner != Before->Owner ||
            After->Serving != Before->Serving)
          return false;
        if (!(resourcePart(Pre.joint(Lk), Lk) ==
              resourcePart(Post.joint(Lk), Lk)))
          return false;
        std::set<Ptr> Expected = Pre.self(Lk).first().getPtrSet();
        Expected.insert(ticketToken(Before->Next));
        return Post.self(Lk).first().getPtrSet() == Expected &&
               Post.self(Lk).second() == Pre.self(Lk).second() &&
               Pre.other(Lk) == Post.other(Lk);
      }).withFootprint(takeFootprint(Lk)));

  // --- tl_enter: my turn; check the resource out -------------------------
  Lock->addTransition(Transition(
      "tlock_enter", TransitionKind::Acquire,
      [Pv, Lk](const View &Pre) -> std::vector<View> {
        if (!Pre.hasLabel(Lk) || !Pre.hasLabel(Pv))
          return {};
        std::optional<TLockCells> Cells = readCells(Pre.joint(Lk), Lk);
        if (!Cells || Cells->Serving ||
            !holdsTicket(Pre.self(Lk), Cells->Owner))
          return {};
        Heap Res = resourcePart(Pre.joint(Lk), Lk);
        View Post = Pre;
        TLockCells NewCells = *Cells;
        NewCells.Serving = true;
        Post.setJoint(Lk, controlCells(Lk, NewCells));
        std::optional<Heap> Mine = Heap::join(Pre.self(Pv).getHeap(), Res);
        if (!Mine)
          return {};
        Post.setSelf(Pv, PCMVal::ofHeap(std::move(*Mine)));
        return {Post};
      }).withFootprint(enterFootprint(Pv, Lk)));

  // --- tl_leave: return the resource, pass the baton ---------------------
  auto EnvOptions = Model.EnvReleaseOptions;
  Lock->addTransition(Transition(
      "tlock_leave", TransitionKind::Release,
      [Pv, Lk, EnvOptions, Invariant](const View &Pre) -> std::vector<View> {
        std::vector<View> Out;
        if (!Pre.hasLabel(Lk) || !Pre.hasLabel(Pv))
          return Out;
        std::optional<TLockCells> Cells = readCells(Pre.joint(Lk), Lk);
        if (!Cells || !Cells->Serving ||
            !holdsTicket(Pre.self(Lk), Cells->Owner))
          return Out;
        for (const auto &Option : EnvOptions(Pre)) {
          std::optional<PCMVal> Total =
              PCMVal::join(Option.second, Pre.other(Lk).second());
          if (!Total || !Invariant(Option.first, *Total))
            continue;
          Heap Mine = Pre.self(Pv).getHeap();
          bool Missing = false;
          for (const auto &Cell : Option.first) {
            if (!Mine.contains(Cell.first)) {
              Missing = true;
              break;
            }
            Mine.remove(Cell.first);
          }
          if (Missing)
            continue;
          TLockCells NewCells = *Cells;
          NewCells.Serving = false;
          NewCells.Owner = Cells->Owner + 1;
          std::optional<Heap> Joint =
              Heap::join(controlCells(Lk, NewCells), Option.first);
          if (!Joint)
            continue;
          View Post = Pre;
          Post.setJoint(Lk, std::move(*Joint));
          std::set<Ptr> Tickets = Pre.self(Lk).first().getPtrSet();
          Tickets.erase(ticketToken(Cells->Owner));
          Post.setSelf(Lk, PCMVal::makePair(
                               PCMVal::ofPtrSet(std::move(Tickets)),
                               Option.second));
          Post.setSelf(Pv, PCMVal::ofHeap(std::move(Mine)));
          Out.push_back(std::move(Post));
        }
        return Out;
      },
      [Pv, Lk, Invariant, SelfType](const View &Pre, const View &Post) {
        if (!Pre.hasLabel(Lk) || !Pre.hasLabel(Pv))
          return false;
        for (Label L : Pre.labels())
          if (L != Lk && L != Pv && !(Pre.slice(L) == Post.slice(L)))
            return false;
        if (!(Pre.other(Lk) == Post.other(Lk)) ||
            !(Pre.other(Pv) == Post.other(Pv)))
          return false;
        std::optional<TLockCells> Before = readCells(Pre.joint(Lk), Lk);
        std::optional<TLockCells> After = readCells(Post.joint(Lk), Lk);
        if (!Before || !After || !Before->Serving || After->Serving)
          return false;
        if (!holdsTicket(Pre.self(Lk), Before->Owner))
          return false;
        if (After->Owner != Before->Owner + 1 ||
            After->Next != Before->Next)
          return false;
        Heap R = resourcePart(Post.joint(Lk), Lk);
        Heap Mine = Pre.self(Pv).getHeap();
        for (const auto &Cell : R) {
          if (!Mine.contains(Cell.first))
            return false;
          Mine.remove(Cell.first);
        }
        if (!(Mine == Post.self(Pv).getHeap()))
          return false;
        std::set<Ptr> Tickets = Pre.self(Lk).first().getPtrSet();
        Tickets.erase(ticketToken(Before->Owner));
        if (Post.self(Lk).first().getPtrSet() != Tickets ||
            !SelfType->admits(Post.self(Lk)))
          return false;
        std::optional<PCMVal> Total =
            PCMVal::join(Post.self(Lk).second(), Post.other(Lk).second());
        return Total && Invariant(R, *Total);
      }).withFootprint(leaveFootprint(Pv, Lk)));

  ConcurroidRef Priv = makePriv(Pv);
  ConcurroidRef Entangled = entangle(Priv, Lock);

  // --- Actions ------------------------------------------------------------
  ActionRef TakeTicket = makeAction(
      "take_ticket", Entangled, 0,
      [Lk](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        if (!Pre.hasLabel(Lk))
          return std::nullopt;
        std::optional<TLockCells> Cells = readCells(Pre.joint(Lk), Lk);
        if (!Cells)
          return std::nullopt;
        View Post = Pre;
        Heap Joint = Pre.joint(Lk);
        Joint.update(nextPtrFor(Lk), Val::ofInt(Cells->Next + 1));
        Post.setJoint(Lk, std::move(Joint));
        std::set<Ptr> Mine = Pre.self(Lk).first().getPtrSet();
        Mine.insert(ticketToken(Cells->Next));
        Post.setSelf(Lk, PCMVal::makePair(PCMVal::ofPtrSet(std::move(Mine)),
                                          Pre.self(Lk).second()));
        return std::vector<ActOutcome>{
            {Val::ofInt(Cells->Next), std::move(Post)}};
      },
      takeFootprint(Lk));

  ActionRef TryEnter = makeAction(
      "try_enter", Entangled, 1, // Arg: my ticket number.
      [Pv, Lk](const View &Pre, const std::vector<Val> &Args)
          -> std::optional<std::vector<ActOutcome>> {
        if (!Pre.hasLabel(Lk) || !Args[0].isInt())
          return std::nullopt;
        int64_t MyTicket = Args[0].getInt();
        if (!holdsTicket(Pre.self(Lk), MyTicket))
          return std::nullopt; // Entering without a ticket: unsafe.
        std::optional<TLockCells> Cells = readCells(Pre.joint(Lk), Lk);
        if (!Cells)
          return std::nullopt;
        if (Cells->Owner != MyTicket)
          return std::vector<ActOutcome>{{Val::ofBool(false), Pre}};
        if (Cells->Serving)
          return std::nullopt; // I am being served twice: protocol bug.
        Heap Res = resourcePart(Pre.joint(Lk), Lk);
        TLockCells NewCells = *Cells;
        NewCells.Serving = true;
        View Post = Pre;
        Post.setJoint(Lk, controlCells(Lk, NewCells));
        std::optional<Heap> Mine = Heap::join(Pre.self(Pv).getHeap(), Res);
        if (!Mine)
          return std::nullopt;
        Post.setSelf(Pv, PCMVal::ofHeap(std::move(*Mine)));
        return std::vector<ActOutcome>{{Val::ofBool(true), std::move(Post)}};
      },
      enterFootprint(Pv, Lk),
      // While it is not my turn, try_enter only observes the control cells
      // and my own ticket set, and changes nothing. Steps independent of
      // those reads cannot advance `owner` to my ticket.
      [Pv, Lk](const View &Pre, const std::vector<Val> &Args) -> Footprint {
        if (Pre.hasLabel(Lk) && Args.size() == 1 && Args[0].isInt() &&
            holdsTicket(Pre.self(Lk), Args[0].getInt())) {
          std::optional<TLockCells> Cells = readCells(Pre.joint(Lk), Lk);
          if (Cells && Cells->Owner != Args[0].getInt())
            return Footprint::none()
                .read(FpAtom::jointCell(Lk, ownerPtrFor(Lk)))
                .read(FpAtom::jointCell(Lk, nextPtrFor(Lk)))
                .read(FpAtom::jointCell(Lk, servingPtrFor(Lk)))
                .read(FpAtom::selfAux(Lk));
        }
        return enterFootprint(Pv, Lk);
      });

  LockProtocol P;
  P.Name = "TLock";
  P.C = Entangled;
  P.Pv = Pv;
  P.Lk = Lk;
  P.ClientType = Model.ClientType;
  P.TryLock = nullptr;

  P.DefineLock = [TakeTicket, TryEnter](DefTable &Defs,
                                        const std::string &FnName) {
    // lock() := t <-- take_ticket; wait(t)
    // wait(t) := b <-- try_enter(t); if b then ret () else wait(t).
    std::string WaitFn = FnName + "_wait";
    Defs.define(WaitFn,
                FuncDef{{"t"},
                        Prog::bind(Prog::act(TryEnter, {Expr::var("t")}),
                                   "b",
                                   Prog::ifThenElse(
                                       Expr::var("b"), Prog::retUnit(),
                                       Prog::call(WaitFn,
                                                  {Expr::var("t")})))});
    Defs.define(FnName,
                FuncDef{{},
                        Prog::bind(Prog::act(TakeTicket, {}), "t",
                                   Prog::call(WaitFn, {Expr::var("t")}))});
  };

  P.MakeUnlock = [Entangled, Pv, Lk, Invariant](std::string Name,
                                                unsigned Arity,
                                                ReleaseFn Release) {
    return makeAction(
        std::move(Name), Entangled, Arity,
        [Pv, Lk, Invariant, Release](const View &Pre,
                                     const std::vector<Val> &Args)
            -> std::optional<std::vector<ActOutcome>> {
          if (!Pre.hasLabel(Lk))
            return std::nullopt;
          std::optional<TLockCells> Cells = readCells(Pre.joint(Lk), Lk);
          if (!Cells || !Cells->Serving ||
              !holdsTicket(Pre.self(Lk), Cells->Owner))
            return std::nullopt; // Unlock without being served: unsafe.
          std::optional<std::pair<Heap, PCMVal>> Payload =
              Release(Pre, Args);
          if (!Payload)
            return std::nullopt;
          std::optional<PCMVal> Total =
              PCMVal::join(Payload->second, Pre.other(Lk).second());
          if (!Total || !Invariant(Payload->first, *Total))
            return std::nullopt;
          Heap Mine = Pre.self(Pv).getHeap();
          for (const auto &Cell : Payload->first) {
            if (!Mine.contains(Cell.first))
              return std::nullopt;
            Mine.remove(Cell.first);
          }
          TLockCells NewCells = *Cells;
          NewCells.Serving = false;
          NewCells.Owner = Cells->Owner + 1;
          std::optional<Heap> Joint =
              Heap::join(controlCells(Lk, NewCells), Payload->first);
          if (!Joint)
            return std::nullopt;
          View Post = Pre;
          Post.setJoint(Lk, std::move(*Joint));
          std::set<Ptr> Tickets = Pre.self(Lk).first().getPtrSet();
          Tickets.erase(ticketToken(Cells->Owner));
          Post.setSelf(Lk, PCMVal::makePair(
                               PCMVal::ofPtrSet(std::move(Tickets)),
                               Payload->second));
          Post.setSelf(Pv, PCMVal::ofHeap(std::move(Mine)));
          return std::vector<ActOutcome>{{Val::unit(), std::move(Post)}};
        },
        leaveFootprint(Pv, Lk));
  };

  P.HoldsLock = [Lk](const View &S) {
    if (!S.hasLabel(Lk))
      return false;
    std::optional<TLockCells> Cells = readCells(S.joint(Lk), Lk);
    return Cells && Cells->Serving && holdsTicket(S.self(Lk), Cells->Owner);
  };
  P.ClientSelf = [Lk](const View &S) { return S.self(Lk).second(); };
  P.InitialJoint = [Lk](const Heap &Resource) {
    std::optional<Heap> Joint =
        Heap::join(controlCells(Lk, TLockCells{}), Resource);
    assert(Joint && "resource clashes with the ticket-lock control cells");
    return *Joint;
  };
  P.UnitSelf = [SelfType]() { return SelfType->unit(); };
  return P;
}

LockFactory fcsl::ticketLockFactory() {
  return [](Label Pv, Label Lk, const ResourceModel &Model) {
    return makeTicketLock(Pv, Lk, Model);
  };
}

//===----------------------------------------------------------------------===//
// The "Ticketed lock" Table 1 row.
//===----------------------------------------------------------------------===//

namespace {

constexpr Label PvLbl = 1;
constexpr Label LkLbl = 2;
const uint64_t EnvClientCap = 2;

Ptr counterCell() { return Ptr(1); }

ResourceModel ticketCounterResource() {
  ResourceModel Model;
  Model.ClientType = PCMType::nat();
  Model.Invariant = [](const Heap &Res, const PCMVal &Total) {
    if (Res.size() != 1 || !Res.contains(counterCell()))
      return false;
    const Val &Cell = Res.lookup(counterCell());
    return Cell.isInt() &&
           Cell.getInt() == static_cast<int64_t>(Total.getNat());
  };
  // Strictly progressing releases bound the number of env lock cycles
  // (each cycle advances owner/next, so idling cycles would make the state
  // space infinite).
  Model.EnvReleaseOptions =
      [](const View &EnvView) -> std::vector<std::pair<Heap, PCMVal>> {
    std::vector<std::pair<Heap, PCMVal>> Out;
    uint64_t Mine = EnvView.self(LkLbl).second().getNat();
    uint64_t Others = EnvView.other(LkLbl).second().getNat();
    if (Mine + 1 > EnvClientCap)
      return Out;
    Out.emplace_back(Heap::singleton(counterCell(),
                                     Val::ofInt(static_cast<int64_t>(
                                         Mine + 1 + Others))),
                     PCMVal::ofNat(Mine + 1));
    return Out;
  };
  return Model;
}

std::vector<View> ticketSampleViews(const LockProtocol &) {
  std::vector<View> Out;
  auto Mk = [&](TLockCells Cells, std::set<int64_t> MyTickets,
                uint64_t MyC, uint64_t OtherC, Heap MyPriv) {
    View S;
    std::set<Ptr> Mine, Others;
    for (int64_t T = Cells.Owner; T < Cells.Next; ++T) {
      if (MyTickets.count(T))
        Mine.insert(ticketToken(T));
      else
        Others.insert(ticketToken(T));
    }
    Heap Joint = controlCells(LkLbl, Cells);
    if (!Cells.Serving) {
      std::optional<Heap> WithRes = Heap::join(
          Joint, Heap::singleton(counterCell(),
                                 Val::ofInt(static_cast<int64_t>(
                                     MyC + OtherC))));
      Joint = *WithRes;
    }
    S.addLabel(PvLbl, LabelSlice{PCMVal::ofHeap(std::move(MyPriv)), Heap(),
                                 PCMVal::ofHeap(Heap())});
    S.addLabel(LkLbl,
               LabelSlice{PCMVal::makePair(PCMVal::ofPtrSet(std::move(Mine)),
                                           PCMVal::ofNat(MyC)),
                          std::move(Joint),
                          PCMVal::makePair(
                              PCMVal::ofPtrSet(std::move(Others)),
                              PCMVal::ofNat(OtherC))});
    return S;
  };

  for (uint64_t MyC = 0; MyC <= 1; ++MyC)
    for (uint64_t OtherC = 0; OtherC <= 1; ++OtherC) {
      // Free, no outstanding tickets.
      Out.push_back(Mk(TLockCells{2, 2, false}, {}, MyC, OtherC, Heap()));
      // Free, two waiters (me first / me second).
      Out.push_back(Mk(TLockCells{1, 3, false}, {1}, MyC, OtherC, Heap()));
      Out.push_back(Mk(TLockCells{1, 3, false}, {2}, MyC, OtherC, Heap()));
      // Serving me (resource in my private heap).
      Out.push_back(Mk(TLockCells{1, 2, true}, {1}, MyC, OtherC,
                       Heap::singleton(counterCell(), Val::ofInt(3))));
      // Serving the environment.
      Out.push_back(Mk(TLockCells{1, 2, true}, {}, MyC, OtherC, Heap()));
      // Serving the environment while I wait.
      Out.push_back(Mk(TLockCells{1, 3, true}, {2}, MyC, OtherC, Heap()));
    }
  return Out;
}

GlobalState ticketInitialState(const LockProtocol &P, uint64_t Total) {
  GlobalState GS;
  GS.addLabel(P.Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()),
              /*EnvClosed=*/false);
  GS.addLabel(P.Lk, PCMType::pairOf(PCMType::ptrSet(), PCMType::nat()),
              P.InitialJoint(Heap::singleton(
                  counterCell(), Val::ofInt(static_cast<int64_t>(Total)))),
              PCMVal::makePair(PCMVal::ofPtrSet({}), PCMVal::ofNat(Total)),
              /*EnvClosed=*/false);
  return GS;
}

} // namespace

VerificationSession fcsl::makeTicketLockSession() {
  VerificationSession Session("Ticketed lock");
  LockProtocol P = makeTicketLock(PvLbl, LkLbl, ticketCounterResource());
  auto Samples = std::make_shared<std::vector<View>>(ticketSampleViews(P));
  ConcurroidRef C = P.C;

  PCMTypeRef LawType = PCMType::pairOf(PCMType::ptrSet(), PCMType::nat());
  std::vector<PCMVal> LawSample;
  for (uint64_t N = 0; N <= 1; ++N) {
    LawSample.push_back(
        PCMVal::makePair(PCMVal::ofPtrSet({}), PCMVal::ofNat(N)));
    LawSample.push_back(PCMVal::makePair(
        PCMVal::singletonPtr(ticketToken(1)), PCMVal::ofNat(N)));
    LawSample.push_back(PCMVal::makePair(
        PCMVal::ofPtrSet({ticketToken(1), ticketToken(2)}),
        PCMVal::ofNat(N)));
  }
  Session.addObligation(
      ObCategory::Libs, "ticketset_x_nat_pcm_laws",
      pcmLawInputs(LawType, LawSample, 1).text("cancellative"),
      [LawType, LawSample](const ResolvedModes &) {
        PCMLawReport R = checkPCMLaws(*LawType, LawSample);
        return lawObligation(R.allHold() && checkCancellativity(LawSample),
                             R.JoinsEvaluated);
      });

  Session.addObligation(ObCategory::Conc, "tlock_metatheory",
                        sampleInputs(ObKind::Metatheory, *C, *Samples, 1),
                        [C, Samples](const ResolvedModes &) {
    return toObligation(checkConcurroidWellFormed(*C, *Samples));
  });

  // Actions: exercise with plausible ticket arguments.
  auto Defs = std::make_shared<DefTable>();
  P.DefineLock(*Defs, "lock");
  ActionRef Unlock = P.MakeUnlock(
      "unlock_id", 0,
      [P](const View &S,
          const std::vector<Val> &) -> std::optional<std::pair<Heap, PCMVal>> {
        const Heap &Mine = S.self(P.Pv).getHeap();
        const Val *Cell = Mine.tryLookup(counterCell());
        if (!Cell)
          return std::nullopt;
        return std::make_pair(Heap::singleton(counterCell(), *Cell),
                              P.ClientSelf(S));
      });

  Session.addObligation(ObCategory::Acts, "unlock_wf",
                        actionInputs(*Unlock, *Samples, {{}}, 1).text("wf"),
                        [Unlock, Samples](const ResolvedModes &) {
    return toObligation(checkActionWellFormed(*Unlock, *Samples, {{}}));
  });
  Session.addObligation(
      ObCategory::Acts, "unlock_corresponds",
      actionInputs(*Unlock, *Samples, {{}}, 1).text("corresponds"),
      [Unlock, Samples](const ResolvedModes &) {
        return toObligation(
            checkActionCorrespondence(*Unlock, *Samples, {{}}));
      });

  Session.addObligation(ObCategory::Stab, "serving_me_is_stable",
                        stabilityInputs(*C, "the lock serves me", *Samples, 1),
                        [C, P, Samples](const ResolvedModes &) {
    Assertion Holding("the lock serves me", P.HoldsLock);
    return toObligation(checkStability(Holding, *C, *Samples));
  });
  Session.addObligation(ObCategory::Stab, "my_ticket_stays_mine",
                        stabilityInputs(*C, "I hold ticket 2", *Samples, 1),
                        [C, Samples](const ResolvedModes &) {
    Assertion MyTicket("I hold ticket 2", [](const View &S) {
      return S.hasLabel(LkLbl) && holdsTicket(S.self(LkLbl), 2);
    });
    return toObligation(checkStability(MyTicket, *C, *Samples));
  });
  Session.addObligation(
      ObCategory::Stab, "owner_only_grows",
      stabilityInputs(*C, "owner/next are monotone", *Samples, 1),
      [C, Samples](const ResolvedModes &) {
        return toObligation(checkRelationStability(
            [](const View &Seed, const View &S) {
              std::optional<TLockCells> Before =
                  readCells(Seed.joint(LkLbl), LkLbl);
              std::optional<TLockCells> After =
                  readCells(S.joint(LkLbl), LkLbl);
              return Before && After && After->Owner >= Before->Owner &&
                     After->Next >= Before->Next;
            },
            "owner/next are monotone", *C, *Samples));
      });

  {
    TripleCase TC;
    TC.Main = Prog::seq(Prog::call("lock", {}), Prog::act(Unlock, {}));
    TC.S.Name = "tlock_lock_unlock";
    TC.S.C = C;
    TC.S.Pre = Assertion("not holding",
                         [P](const View &V) { return !P.HoldsLock(V); });
    TC.S.PostName = "released, client contribution unchanged";
    TC.S.Post = [P](const Val &R, const View &I, const View &F) {
      return R.isUnit() && !P.HoldsLock(F) &&
             P.ClientSelf(F) == P.ClientSelf(I);
    };
    for (uint64_t Total : {uint64_t{0}, uint64_t{1}})
      TC.Instances.push_back(
          VerifyInstance{ticketInitialState(P, Total), {}});
    TC.Opts.Ambient = C;
    TC.Opts.EnvInterference = true;
    TC.Defs = Defs;
    addTriple(Session, "lock_unlock_spec", std::move(TC));
  }

  // Two interchangeable clients racing for the lock (closed world). Under
  // --symmetry the pair forms an orbit group: the state where the left
  // client drew ticket n is the slot-swap of the right client drawing it,
  // so the two serving orders fold to one representative — while the
  // ticket tokens themselves (value-only pointers, never a heap cell) are
  // pinned by the terminal abstraction and keep their identities.
  {
    TripleCase TC;
    ProgRef Client = Prog::seq(Prog::call("lock", {}), Prog::act(Unlock, {}));
    TC.Main = Prog::par(Client, Client);
    TC.S.Name = "tlock_symmetric_clients";
    TC.S.C = C;
    TC.S.Pre = Assertion("not holding",
                         [P](const View &V) { return !P.HoldsLock(V); });
    TC.S.PostName = "both released, client contribution unchanged";
    TC.S.Post = [P](const Val &R, const View &I, const View &F) {
      return R.isPair() && !P.HoldsLock(F) &&
             P.ClientSelf(F) == P.ClientSelf(I);
    };
    TC.Instances.push_back(VerifyInstance{ticketInitialState(P, 0), {}});
    TC.Opts.Ambient = C;
    TC.Opts.EnvInterference = false;
    TC.Defs = Defs;
    addTriple(Session, "symmetric_clients_spec", std::move(TC));
  }

  return Session;
}

void fcsl::registerTicketLockLibrary() {
  globalRegistry().registerLibrary(LibraryInfo{
      "Ticketed lock",
      {ConcurroidUse{"Priv", false}, ConcurroidUse{"TLock", false}},
      {}});
}
