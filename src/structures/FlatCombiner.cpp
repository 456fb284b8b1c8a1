//===- structures/FlatCombiner.cpp - Flat combining ------------------------===//
//
// Part of fcsl-cpp. See FlatCombiner.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "structures/FlatCombiner.h"

#include "concurroid/Registry.h"
#include "pcm/Algebra.h"

using namespace fcsl;

namespace {

const int64_t EnvPushValue = 5;

/// self = (mutex, (slots, hist)) accessors.
PCMVal mxOf(const PCMVal &Self) { return Self.first(); }
const std::set<Ptr> &slotsOf(const PCMVal &Self) {
  return Self.second().first().getPtrSet();
}
const History &histOf(const PCMVal &Self) {
  return Self.second().second().getHist();
}

PCMVal makeSelf(PCMVal Mx, std::set<Ptr> Slots, History H) {
  return PCMVal::makePair(
      std::move(Mx), PCMVal::makePair(PCMVal::ofPtrSet(std::move(Slots)),
                                      PCMVal::ofHist(std::move(H))));
}

bool isIdleSlot(const Val &V) { return V.isUnit(); }
bool isRequestSlot(const Val &V) {
  return V.isPair() && V.first().isInt();
}
bool isDoneSlot(const Val &V) { return V.isPair() && V.first().isBool(); }

Val makeRequest(int64_t Op, Val Arg) {
  return Val::pair(Val::ofInt(Op), std::move(Arg));
}

Val makeDone(Val Result, uint64_t Stamp, Val Before, Val After) {
  return Val::pair(
      Val::ofBool(true),
      Val::pair(std::move(Result),
                Val::pair(Val::ofInt(static_cast<int64_t>(Stamp)),
                          Val::pair(std::move(Before), std::move(After)))));
}

struct DoneParts {
  Val Result;
  uint64_t Stamp;
  HistEntry Entry;
};

std::optional<DoneParts> parseDone(const Val &V) {
  if (!isDoneSlot(V))
    return std::nullopt;
  const Val &Payload = V.second();
  if (!Payload.isPair() || !Payload.second().isPair() ||
      !Payload.second().first().isInt() ||
      !Payload.second().second().isPair())
    return std::nullopt;
  DoneParts Out;
  Out.Result = Payload.first();
  Out.Stamp =
      static_cast<uint64_t>(Payload.second().first().getInt());
  Out.Entry = HistEntry{Payload.second().second().first(),
                        Payload.second().second().second()};
  return Out;
}

/// Applies a sequential-stack operation to an abstract cons-list state.
std::pair<Val, Val> applyOp(int64_t Op, const Val &Arg, const Val &State) {
  if (Op == FcPush)
    return {Val::unit(), Val::pair(Arg, State)};
  assert(Op == FcPop && "unknown operation");
  if (State.isUnit())
    return {Val::ofInt(0), State}; // Pop on empty: marker 0, no change.
  return {State.first(), State.second()};
}

/// Checks the cons-list shape of the abstract stack value.
bool isStackVal(const Val &V) {
  Val Cur = V;
  while (Cur.isPair()) {
    if (!Cur.first().isInt())
      return false;
    Cur = Cur.second();
  }
  return Cur.isUnit();
}

} // namespace

FlatCombinerCase fcsl::makeFlatCombinerCase(Label Fc, uint64_t EnvHistCap) {
  FlatCombinerCase Case;
  Case.Fc = Fc;
  Case.LockCell = Ptr(9600 + Fc);
  Case.Slot1 = Ptr(9601 + Fc);
  Case.Slot2 = Ptr(9602 + Fc);
  Case.StackCell = Ptr(9603 + Fc);
  Case.FullCell = Ptr(9604 + Fc);
  Ptr LockP = Case.LockCell, S1 = Case.Slot1, S2 = Case.Slot2,
      StkP = Case.StackCell, FullP = Case.FullCell;

  PCMTypeRef SelfType = PCMType::pairOf(
      PCMType::mutex(),
      PCMType::pairOf(PCMType::ptrSet(), PCMType::hist()));

  /// Collects the entries parked in Done slots.
  auto PendingEntries =
      [S1, S2](const Heap &Joint) -> std::vector<std::pair<uint64_t,
                                                           HistEntry>> {
    std::vector<std::pair<uint64_t, HistEntry>> Out;
    for (Ptr Slot : {S1, S2}) {
      const Val *Cell = Joint.tryLookup(Slot);
      if (!Cell)
        continue;
      std::optional<DoneParts> Done = parseDone(*Cell);
      if (Done)
        Out.emplace_back(Done->Stamp, Done->Entry);
    }
    return Out;
  };

  /// The full history: both contributions plus parked entries; nullopt on
  /// stamp clashes.
  auto FullHistory = [Fc, PendingEntries](
                         const View &S) -> std::optional<History> {
    std::optional<History> Combined =
        History::join(histOf(S.self(Fc)), histOf(S.other(Fc)));
    if (!Combined)
      return std::nullopt;
    for (const auto &Parked : PendingEntries(S.joint(Fc))) {
      if (Combined->contains(Parked.first))
        return std::nullopt;
      Combined->add(Parked.first, Parked.second);
    }
    return Combined;
  };

  auto Coh = [Fc, LockP, S1, S2, StkP, FullP, SelfType,
              FullHistory](const View &S) {
    if (!S.hasLabel(Fc))
      return false;
    if (!SelfType->admits(S.self(Fc)) || !SelfType->admits(S.other(Fc)))
      return false;
    std::optional<PCMVal> Total = S.selfOtherJoin(Fc);
    if (!Total)
      return false;
    const Heap &Joint = S.joint(Fc);
    if (Joint.size() != 5)
      return false;
    const Val *Lock = Joint.tryLookup(LockP);
    const Val *Stack = Joint.tryLookup(StkP);
    const Val *Slot1V = Joint.tryLookup(S1);
    const Val *Slot2V = Joint.tryLookup(S2);
    const Val *FullV = Joint.tryLookup(FullP);
    if (!Lock || !Stack || !Slot1V || !Slot2V || !Lock->isBool())
      return false;
    if (!FullV || !FullV->isInt() || FullV->getInt() < 0)
      return false;
    if (!isStackVal(*Stack))
      return false;
    for (const Val *Slot : {Slot1V, Slot2V})
      if (!isIdleSlot(*Slot) && !isRequestSlot(*Slot) &&
          !parseDone(*Slot))
        return false;
    // The lock bit matches the ownership token.
    if (Lock->getBool() != mxOf(*Total).isOwn())
      return false;
    // Slots are partitioned between self and other.
    if (slotsOf(*Total) != std::set<Ptr>{S1, S2})
      return false;
    // The full history is continuous and tracks the stack state; the
    // entry counter equals its size (entries are created by combines and
    // only move between slots and self histories, never vanish).
    std::optional<History> Full = FullHistory(S);
    if (!Full || !Full->isContinuous())
      return false;
    if (static_cast<uint64_t>(FullV->getInt()) != Full->size())
      return false;
    if (!Full->isEmpty() &&
        !(Full->tryLookup(1)->Before == Val::unit()))
      return false;
    Val Last = Full->isEmpty() ? Val::unit()
                               : Full->tryLookup(Full->lastStamp())->After;
    return Last == *Stack;
  };

  auto FcC = makeConcurroid(
      "FlatCombine", {OwnedLabel{Fc, "fc", SelfType}}, Coh);

  // --- Commit helpers ------------------------------------------------------

  // Publishing a request into one of my idle slots.
  auto PublishCommit = [Fc](const View &Pre, Ptr Slot, int64_t Op,
                            Val Arg) -> std::optional<View> {
    if (!slotsOf(Pre.self(Fc)).count(Slot))
      return std::nullopt;
    const Val *Cell = Pre.joint(Fc).tryLookup(Slot);
    if (!Cell || !isIdleSlot(*Cell))
      return std::nullopt;
    View Post = Pre;
    Heap Joint = Pre.joint(Fc);
    Joint.update(Slot, makeRequest(Op, std::move(Arg)));
    Post.setJoint(Fc, std::move(Joint));
    return Post;
  };

  // Combining one slot's request (the combiner holds the lock). The
  // abstract pre-state and the fresh stamp come from the stack cell and
  // the entry counter — coherence pins both to the full history, and
  // reading them instead keeps the commit's footprint off the histories
  // and the other slot.
  auto CombineCommit = [Fc, StkP, FullP](const View &Pre,
                                         Ptr Slot) -> std::optional<View> {
    if (!mxOf(Pre.self(Fc)).isOwn())
      return std::nullopt;
    const Val *Cell = Pre.joint(Fc).tryLookup(Slot);
    if (!Cell || !isRequestSlot(*Cell))
      return std::nullopt;
    const Val *Stack = Pre.joint(Fc).tryLookup(StkP);
    const Val *Count = Pre.joint(Fc).tryLookup(FullP);
    if (!Stack || !Count || !Count->isInt() || Count->getInt() < 0)
      return std::nullopt;
    Val Before = *Stack;
    uint64_t Stamp = static_cast<uint64_t>(Count->getInt()) + 1;
    auto [Result, After] =
        applyOp(Cell->first().getInt(), Cell->second(), Before);
    View Post = Pre;
    Heap Joint = Pre.joint(Fc);
    Joint.update(StkP, After);
    Joint.update(FullP, Val::ofInt(static_cast<int64_t>(Stamp)));
    Joint.update(Slot, makeDone(Result, Stamp, Before, After));
    Post.setJoint(Fc, std::move(Joint));
    return Post;
  };

  // Collecting a Done slot: the helping hand-off — the parked entry moves
  // into the *requester's* self history.
  auto CollectCommit = [Fc](const View &Pre,
                            Ptr Slot) -> std::optional<View> {
    if (!slotsOf(Pre.self(Fc)).count(Slot))
      return std::nullopt;
    const Val *Cell = Pre.joint(Fc).tryLookup(Slot);
    if (!Cell)
      return std::nullopt;
    std::optional<DoneParts> Done = parseDone(*Cell);
    if (!Done)
      return std::nullopt;
    View Post = Pre;
    Heap Joint = Pre.joint(Fc);
    Joint.update(Slot, Val::unit());
    Post.setJoint(Fc, std::move(Joint));
    History Mine = histOf(Pre.self(Fc));
    Mine.add(Done->Stamp, Done->Entry);
    Post.setSelf(Fc, makeSelf(mxOf(Pre.self(Fc)),
                              slotsOf(Pre.self(Fc)), std::move(Mine)));
    return Post;
  };

  auto LockCommit = [Fc, LockP](const View &Pre) -> std::optional<View> {
    const Val *Lock = Pre.joint(Fc).tryLookup(LockP);
    if (!Lock || Lock->getBool())
      return std::nullopt;
    View Post = Pre;
    Heap Joint = Pre.joint(Fc);
    Joint.update(LockP, Val::ofBool(true));
    Post.setJoint(Fc, std::move(Joint));
    Post.setSelf(Fc, makeSelf(PCMVal::mutexOwn(), slotsOf(Pre.self(Fc)),
                              histOf(Pre.self(Fc))));
    return Post;
  };

  auto ReleaseCommit = [Fc, LockP](const View &Pre) -> std::optional<View> {
    if (!mxOf(Pre.self(Fc)).isOwn())
      return std::nullopt;
    View Post = Pre;
    Heap Joint = Pre.joint(Fc);
    Joint.update(LockP, Val::ofBool(false));
    Post.setJoint(Fc, std::move(Joint));
    Post.setSelf(Fc, makeSelf(PCMVal::mutexFree(), slotsOf(Pre.self(Fc)),
                              histOf(Pre.self(Fc))));
    return Post;
  };

  // The entry counter, for the publish cap: one scalar read instead of
  // joining histories and scanning slots.
  auto FullCount = [Fc, FullP](const View &S) -> uint64_t {
    const Val *Count = S.joint(Fc).tryLookup(FullP);
    if (!Count || !Count->isInt() || Count->getInt() < 0)
      return UINT64_MAX;
    return static_cast<uint64_t>(Count->getInt());
  };

  // --- Footprints ----------------------------------------------------------
  // Slot cells are governed by the ptr-set component of the owner's
  // contribution, so an agent's own-slot touches carry the SelfOwned
  // region: two agents' publishes/collects never alias. The combiner
  // helps whichever slot holds a request, so its slot atoms stay Any.
  auto OwnSlot = [Fc](Ptr Slot) {
    return FpAtom::jointCell(Fc, Slot, FpFieldsAll, FpRegion::SelfOwned);
  };
  Footprint PublishStaticFp = Footprint::none()
                                  .read(FpAtom::selfAux(Fc))
                                  .read(FpAtom::jointCell(Fc, FullP))
                                  .readWrite(OwnSlot(S1))
                                  .readWrite(OwnSlot(S2));
  Footprint LockFp = Footprint::none()
                         .readWrite(FpAtom::jointCell(Fc, LockP))
                         .readWrite(FpAtom::selfAux(Fc));
  Footprint CombineStaticFp = Footprint::none()
                                  .read(FpAtom::selfAux(Fc))
                                  .readWrite(FpAtom::jointCell(Fc, S1))
                                  .readWrite(FpAtom::jointCell(Fc, S2))
                                  .readWrite(FpAtom::jointCell(Fc, StkP))
                                  .readWrite(FpAtom::jointCell(Fc, FullP));
  Footprint CollectStaticFp = Footprint::none()
                                  .readWrite(FpAtom::selfAux(Fc))
                                  .readWrite(OwnSlot(S1))
                                  .readWrite(OwnSlot(S2));

  // --- Transitions -----------------------------------------------------------
  FcC->addTransition(Transition(
      "fc_publish", TransitionKind::Internal,
      [PublishCommit, FullCount, Fc, EnvHistCap](const View &Pre)
          -> std::vector<View> {
        std::vector<View> Out;
        if (FullCount(Pre) >= EnvHistCap)
          return Out;
        for (Ptr Slot : slotsOf(Pre.self(Fc))) {
          std::optional<View> Push = PublishCommit(
              Pre, Slot, FcPush, Val::ofInt(EnvPushValue));
          if (Push)
            Out.push_back(std::move(*Push));
          std::optional<View> Pop =
              PublishCommit(Pre, Slot, FcPop, Val::ofInt(0));
          if (Pop)
            Out.push_back(std::move(*Pop));
        }
        return Out;
      },
      [PublishCommit, Fc](const View &Pre, const View &Post) {
        for (Ptr Slot : slotsOf(Pre.self(Fc))) {
          const Val *NewCell = Post.joint(Fc).tryLookup(Slot);
          if (!NewCell || !isRequestSlot(*NewCell))
            continue;
          std::optional<View> Candidate =
              PublishCommit(Pre, Slot, NewCell->first().getInt(),
                            NewCell->second());
          if (Candidate && *Candidate == Post)
            return true;
        }
        return false;
      }).withFootprint(PublishStaticFp));

  FcC->addTransition(Transition(
      "fc_lock", TransitionKind::Internal,
      [LockCommit](const View &Pre) -> std::vector<View> {
        std::optional<View> Post = LockCommit(Pre);
        if (!Post)
          return {};
        return {std::move(*Post)};
      }).withFootprint(LockFp));

  FcC->addTransition(Transition(
      "fc_combine", TransitionKind::Internal,
      [CombineCommit, S1, S2](const View &Pre) -> std::vector<View> {
        std::vector<View> Out;
        for (Ptr Slot : {S1, S2}) {
          std::optional<View> Post = CombineCommit(Pre, Slot);
          if (Post)
            Out.push_back(std::move(*Post));
        }
        return Out;
      }).withFootprint(CombineStaticFp));

  FcC->addTransition(Transition(
      "fc_release", TransitionKind::Internal,
      [ReleaseCommit](const View &Pre) -> std::vector<View> {
        std::optional<View> Post = ReleaseCommit(Pre);
        if (!Post)
          return {};
        return {std::move(*Post)};
      }).withFootprint(LockFp));

  FcC->addTransition(Transition(
      "fc_collect", TransitionKind::Internal,
      [CollectCommit, Fc](const View &Pre) -> std::vector<View> {
        std::vector<View> Out;
        for (Ptr Slot : slotsOf(Pre.self(Fc))) {
          std::optional<View> Post = CollectCommit(Pre, Slot);
          if (Post)
            Out.push_back(std::move(*Post));
        }
        return Out;
      }).withFootprint(CollectStaticFp));

  Case.C = FcC;

  // --- Actions -----------------------------------------------------------
  // The action's static footprint drops the transition's entry-counter
  // read: thread publishes are uncapped (the program text bounds them).
  Case.Publish = makeAction(
      "fc_publish", Case.C, 3,
      [PublishCommit](const View &Pre, const std::vector<Val> &Args)
          -> std::optional<std::vector<ActOutcome>> {
        if (!Args[0].isPtr() || !Args[1].isInt())
          return std::nullopt;
        std::optional<View> Post = PublishCommit(
            Pre, Args[0].getPtr(), Args[1].getInt(), Args[2]);
        if (!Post)
          return std::nullopt;
        return std::vector<ActOutcome>{{Val::unit(), std::move(*Post)}};
      },
      Footprint::none()
          .read(FpAtom::selfAux(Fc))
          .readWrite(OwnSlot(S1))
          .readWrite(OwnSlot(S2)),
      [Fc, OwnSlot](const View &,
                    const std::vector<Val> &Args) -> Footprint {
        Footprint Fp = Footprint::none().read(FpAtom::selfAux(Fc));
        if (Args.size() == 3 && Args[0].isPtr())
          Fp.readWrite(OwnSlot(Args[0].getPtr()));
        return Fp;
      });

  Case.TryLockFc = makeAction(
      "fc_try_lock", Case.C, 0,
      [LockCommit, Fc, LockP](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        const Val *Lock = Pre.joint(Fc).tryLookup(LockP);
        if (!Lock)
          return std::nullopt;
        if (Lock->getBool())
          return std::vector<ActOutcome>{{Val::ofBool(false), Pre}};
        std::optional<View> Post = LockCommit(Pre);
        if (!Post)
          return std::nullopt;
        return std::vector<ActOutcome>{
            {Val::ofBool(true), std::move(*Post)}};
      },
      LockFp,
      // A failed probe only observes the held lock bit, mirroring the
      // failed-CAS treatment: steps independent of that read cannot
      // release the lock.
      [Fc, LockP, LockFp](const View &Pre,
                          const std::vector<Val> &) -> Footprint {
        if (Pre.hasLabel(Fc)) {
          const Val *Lock = Pre.joint(Fc).tryLookup(LockP);
          if (Lock && Lock->isBool() && Lock->getBool())
            return Footprint::none().read(FpAtom::jointCell(Fc, LockP));
        }
        return LockFp;
      });

  Case.CombineSlot = makeAction(
      "fc_combine_slot", Case.C, 1,
      [CombineCommit, Fc](const View &Pre, const std::vector<Val> &Args)
          -> std::optional<std::vector<ActOutcome>> {
        if (!Args[0].isPtr())
          return std::nullopt;
        if (!mxOf(Pre.self(Fc)).isOwn())
          return std::nullopt; // Combining without the lock: unsafe.
        std::optional<View> Post = CombineCommit(Pre, Args[0].getPtr());
        if (!Post)
          return std::vector<ActOutcome>{{Val::unit(), Pre}}; // No request.
        return std::vector<ActOutcome>{{Val::unit(), std::move(*Post)}};
      },
      CombineStaticFp,
      // Helping a slot with no request is a no-op that reads the slot
      // and the lock token; only the requester could change its own slot
      // under us, and it is spinning on us instead.
      [Fc, StkP, FullP, CombineStaticFp](
          const View &Pre, const std::vector<Val> &Args) -> Footprint {
        if (!Pre.hasLabel(Fc) || Args.size() != 1 || !Args[0].isPtr())
          return CombineStaticFp;
        Ptr Slot = Args[0].getPtr();
        Footprint Fp = Footprint::none().read(FpAtom::selfAux(Fc));
        const Val *Cell = Pre.joint(Fc).tryLookup(Slot);
        if (!Cell)
          return CombineStaticFp;
        if (!isRequestSlot(*Cell))
          return Fp.read(FpAtom::jointCell(Fc, Slot));
        return Fp.readWrite(FpAtom::jointCell(Fc, Slot))
            .readWrite(FpAtom::jointCell(Fc, StkP))
            .readWrite(FpAtom::jointCell(Fc, FullP));
      });

  Case.ReleaseFc = makeAction(
      "fc_release", Case.C, 0,
      [ReleaseCommit](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        std::optional<View> Post = ReleaseCommit(Pre);
        if (!Post)
          return std::nullopt; // Releasing without holding: unsafe.
        return std::vector<ActOutcome>{{Val::unit(), std::move(*Post)}};
      },
      LockFp);

  Case.TryCollect = makeAction(
      "fc_try_collect", Case.C, 1,
      [CollectCommit, Fc](const View &Pre, const std::vector<Val> &Args)
          -> std::optional<std::vector<ActOutcome>> {
        if (!Args[0].isPtr() ||
            !slotsOf(Pre.self(Fc)).count(Args[0].getPtr()))
          return std::nullopt;
        const Val *Cell = Pre.joint(Fc).tryLookup(Args[0].getPtr());
        if (!Cell || isIdleSlot(*Cell))
          return std::nullopt; // Collect before publish: unsafe.
        if (isRequestSlot(*Cell))
          return std::vector<ActOutcome>{
              {Val::pair(Val::ofBool(false), Val::ofInt(0)), Pre}};
        std::optional<DoneParts> Done = parseDone(*Cell);
        std::optional<View> Post = CollectCommit(Pre, Args[0].getPtr());
        if (!Done || !Post)
          return std::nullopt;
        return std::vector<ActOutcome>{
            {Val::pair(Val::ofBool(true), Done->Result),
             std::move(*Post)}};
      },
      CollectStaticFp,
      // Probing a still-pending request reads only the slot (and the
      // ownership witness): steps independent of that read cannot park a
      // result there. A successful collect rewrites the slot and grows
      // the agent's history.
      [Fc, OwnSlot, CollectStaticFp](
          const View &Pre, const std::vector<Val> &Args) -> Footprint {
        if (!Pre.hasLabel(Fc) || Args.size() != 1 || !Args[0].isPtr())
          return CollectStaticFp;
        Ptr Slot = Args[0].getPtr();
        const Val *Cell = Pre.joint(Fc).tryLookup(Slot);
        if (!Cell)
          return CollectStaticFp;
        if (isRequestSlot(*Cell))
          return Footprint::none()
              .read(FpAtom::selfAux(Fc))
              .read(OwnSlot(Slot));
        return Footprint::none()
            .readWrite(FpAtom::selfAux(Fc))
            .readWrite(OwnSlot(Slot));
      });

  // --- flat_combine(slot, op, arg) -----------------------------------------
  // fcwait(slot) :=
  //   c <-- try_collect(slot);
  //   if c.1 then ret c.2
  //   else b <-- fc_try_lock;
  //        if b then { combine(s1);; combine(s2);; release;; fcwait(slot) }
  //        else fcwait(slot).
  Case.Defs.define(
      "fcwait",
      FuncDef{{"slot"},
              Prog::bind(
                  Prog::act(Case.TryCollect, {Expr::var("slot")}), "c",
                  Prog::ifThenElse(
                      Expr::fst(Expr::var("c")),
                      Prog::ret(Expr::snd(Expr::var("c"))),
                      Prog::bind(
                          Prog::act(Case.TryLockFc, {}), "b",
                          Prog::ifThenElse(
                              Expr::var("b"),
                              Prog::seq(
                                  Prog::act(Case.CombineSlot,
                                            {Expr::litPtr(S1)}),
                                  Prog::seq(
                                      Prog::act(Case.CombineSlot,
                                                {Expr::litPtr(S2)}),
                                      Prog::seq(
                                          Prog::act(Case.ReleaseFc, {}),
                                          Prog::call(
                                              "fcwait",
                                              {Expr::var("slot")})))),
                              Prog::call("fcwait",
                                         {Expr::var("slot")})))))});
  Case.Defs.define(
      "flat_combine",
      FuncDef{{"slot", "op", "arg"},
              Prog::seq(Prog::act(Case.Publish,
                                  {Expr::var("slot"), Expr::var("op"),
                                   Expr::var("arg")}),
                        Prog::call("fcwait", {Expr::var("slot")}))});
  return Case;
}

GlobalState fcsl::flatCombinerState(const FlatCombinerCase &C,
                                    unsigned MySlots) {
  assert(MySlots <= 2);
  Heap Joint;
  Joint.insert(C.LockCell, Val::ofBool(false));
  Joint.insert(C.Slot1, Val::unit());
  Joint.insert(C.Slot2, Val::unit());
  Joint.insert(C.StackCell, Val::unit());
  Joint.insert(C.FullCell, Val::ofInt(0));

  std::set<Ptr> Mine, Envs;
  if (MySlots >= 1)
    Mine.insert(C.Slot1);
  else
    Envs.insert(C.Slot1);
  if (MySlots >= 2)
    Mine.insert(C.Slot2);
  else
    Envs.insert(C.Slot2);

  PCMTypeRef SelfType = PCMType::pairOf(
      PCMType::mutex(),
      PCMType::pairOf(PCMType::ptrSet(), PCMType::hist()));
  GlobalState GS;
  GS.addLabel(C.Fc, SelfType, std::move(Joint),
              makeSelf(PCMVal::mutexFree(), std::move(Envs), History()),
              /*EnvClosed=*/false);
  GS.setSelf(C.Fc, rootThread(),
             makeSelf(PCMVal::mutexFree(), std::move(Mine), History()));
  return GS;
}

std::vector<View> fcsl::flatCombinerSampleViews(const FlatCombinerCase &C) {
  std::vector<View> Out;
  // Fresh structure (I own slot 1).
  GlobalState Fresh = flatCombinerState(C, 1);
  Out.push_back(Fresh.viewFor(rootThread()));

  // My request published.
  {
    GlobalState GS = flatCombinerState(C, 1);
    Heap Joint = GS.joint(C.Fc);
    Joint.update(C.Slot1, makeRequest(FcPush, Val::ofInt(4)));
    GS.setJoint(C.Fc, std::move(Joint));
    Out.push_back(GS.viewFor(rootThread()));
  }
  // Env combined my request while holding the lock (helping in flight).
  {
    GlobalState GS = flatCombinerState(C, 1);
    Heap Joint = GS.joint(C.Fc);
    Joint.update(C.LockCell, Val::ofBool(true));
    Val After = Val::pair(Val::ofInt(4), Val::unit());
    Joint.update(C.Slot1,
                 makeDone(Val::unit(), 1, Val::unit(), After));
    Joint.update(C.StackCell, After);
    Joint.update(C.FullCell, Val::ofInt(1));
    GS.setJoint(C.Fc, std::move(Joint));
    GS.setEnvSelf(C.Fc, makeSelf(PCMVal::mutexOwn(), {C.Slot2},
                                 History()));
    Out.push_back(GS.viewFor(rootThread()));
  }
  // I collected: the entry is mine now, lock released by env.
  {
    GlobalState GS = flatCombinerState(C, 1);
    Heap Joint = GS.joint(C.Fc);
    Val After = Val::pair(Val::ofInt(4), Val::unit());
    Joint.update(C.StackCell, After);
    Joint.update(C.FullCell, Val::ofInt(1));
    GS.setJoint(C.Fc, std::move(Joint));
    History Mine;
    Mine.add(1, HistEntry{Val::unit(), After});
    GS.setSelf(C.Fc, rootThread(),
               makeSelf(PCMVal::mutexFree(), {C.Slot1}, std::move(Mine)));
    Out.push_back(GS.viewFor(rootThread()));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// The Table 1 row.
//===----------------------------------------------------------------------===//

namespace {
constexpr Label FcLbl = 1;
} // namespace

VerificationSession fcsl::makeFlatCombinerSession() {
  VerificationSession Session("Flat combiner");
  auto Case = std::make_shared<FlatCombinerCase>(
      makeFlatCombinerCase(FcLbl, /*EnvHistCap=*/4));
  auto Samples =
      std::make_shared<std::vector<View>>(flatCombinerSampleViews(*Case));

  PCMTypeRef LawType = PCMType::pairOf(
      PCMType::mutex(),
      PCMType::pairOf(PCMType::ptrSet(), PCMType::hist()));
  std::vector<PCMVal> LawSample;
  {
    History H;
    H.add(1, HistEntry{Val::unit(), Val::ofInt(1)});
    for (bool Own : {false, true}) {
      LawSample.push_back(makeSelf(
          Own ? PCMVal::mutexOwn() : PCMVal::mutexFree(), {}, History()));
      LawSample.push_back(makeSelf(
          Own ? PCMVal::mutexOwn() : PCMVal::mutexFree(), {Ptr(9601 + 1)},
          H));
    }
  }
  Session.addObligation(ObCategory::Libs, "fc_carrier_pcm_laws",
                        pcmLawInputs(LawType, LawSample, 1),
                        [LawType, LawSample](const ResolvedModes &) {
    PCMLawReport R = checkPCMLaws(*LawType, LawSample);
    return lawObligation(R.allHold(), R.JoinsEvaluated);
  });

  Session.addObligation(ObCategory::Conc, "fc_metatheory",
                        sampleInputs(ObKind::Metatheory, *Case->C,
                                     *Samples, 1),
                        [Case, Samples](const ResolvedModes &) {
    return toObligation(checkConcurroidWellFormed(*Case->C, *Samples));
  });

  std::vector<ActionArgs> PublishArgs = {
      {Val::ofPtr(Case->Slot1), Val::ofInt(FcPush), Val::ofInt(4)},
      {Val::ofPtr(Case->Slot1), Val::ofInt(FcPop), Val::ofInt(0)},
      {Val::ofPtr(Case->Slot2), Val::ofInt(FcPush), Val::ofInt(4)}};
  std::vector<ActionArgs> SlotArgs = {{Val::ofPtr(Case->Slot1)},
                                      {Val::ofPtr(Case->Slot2)}};

  Session.addObligation(ObCategory::Acts, "publish_wf",
                        actionInputs(*Case->Publish, *Samples,
                                     PublishArgs, 1)
                            .text("wf"),
                        [Case, Samples, PublishArgs](const ResolvedModes &) {
    return toObligation(
        checkActionWellFormed(*Case->Publish, *Samples, PublishArgs));
  });
  Session.addObligation(ObCategory::Acts, "lock_release_wf",
                        actionInputs(*Case->TryLockFc, *Samples, {{}}, 1)
                            .text(Case->ReleaseFc->name())
                            .num(Case->ReleaseFc->arity())
                            .text("wf"),
                        [Case, Samples](const ResolvedModes &) {
    MetaReport R;
    R.absorb(checkActionWellFormed(*Case->TryLockFc, *Samples, {{}}));
    R.absorb(checkActionWellFormed(*Case->ReleaseFc, *Samples, {{}}));
    return toObligation(R);
  });
  Session.addObligation(ObCategory::Acts, "combine_wf",
                        actionInputs(*Case->CombineSlot, *Samples,
                                     SlotArgs, 1)
                            .text("wf"),
                        [Case, Samples, SlotArgs](const ResolvedModes &) {
    return toObligation(
        checkActionWellFormed(*Case->CombineSlot, *Samples, SlotArgs));
  });
  Session.addObligation(ObCategory::Acts, "collect_wf",
                        actionInputs(*Case->TryCollect, *Samples,
                                     SlotArgs, 1)
                            .text("wf"),
                        [Case, Samples, SlotArgs](const ResolvedModes &) {
    return toObligation(
        checkActionWellFormed(*Case->TryCollect, *Samples, SlotArgs));
  });

  Session.addObligation(ObCategory::Stab, "my_slot_stays_mine",
                        stabilityInputs(*Case->C, "slot 1 is mine",
                                        *Samples, 1),
                        [Case, Samples](const ResolvedModes &) {
    Label Fc = Case->Fc;
    Ptr S1 = Case->Slot1;
    Assertion MySlot("slot 1 is mine", [Fc, S1](const View &S) {
      return slotsOf(S.self(Fc)).count(S1) != 0;
    });
    return toObligation(checkStability(MySlot, *Case->C, *Samples));
  });
  Session.addObligation(ObCategory::Stab, "collected_history_stable",
                        stabilityInputs(*Case->C, "stamp 1 ascribed to me",
                                        *Samples, 1),
                        [Case, Samples](const ResolvedModes &) {
    Label Fc = Case->Fc;
    Assertion MyHist("stamp 1 ascribed to me", [Fc](const View &S) {
      return histOf(S.self(Fc)).contains(1);
    });
    return toObligation(checkStability(MyHist, *Case->C, *Samples));
  });
  Session.addObligation(ObCategory::Stab, "done_result_preserved",
                        stabilityInputs(*Case->C, "my Done slot is frozen",
                                        *Samples, 1),
                        [Case, Samples](const ResolvedModes &) {
    // Once my request is Done with a result, interference cannot alter it
    // (only I may collect my slot).
    Label Fc = Case->Fc;
    Ptr S1 = Case->Slot1;
    return toObligation(checkRelationStability(
        [Fc, S1](const View &Seed, const View &S) {
          const Val *Before = Seed.joint(Fc).tryLookup(S1);
          const Val *After = S.joint(Fc).tryLookup(S1);
          if (!Before || !parseDone(*Before))
            return true; // Vacuous unless Done at the seed.
          if (!Seed.self(Fc).second().first().getPtrSet().count(S1))
            return true; // Only interesting for my own slot.
          return After && *After == *Before;
        },
        "my Done slot is frozen", *Case->C, *Samples));
  });

  {
    TripleCase TC;
    TC.Main = Prog::call(
        "flat_combine",
        {Expr::litPtr(Case->Slot1), Expr::litInt(FcPush),
         Expr::litInt(4)});
    TC.S.Name = "flat_combine(push, 4)";
    TC.S.C = Case->C;
    Label Fc = Case->Fc;
    Ptr S1 = Case->Slot1;
    TC.S.Pre = Assertion("slot 1 mine and idle", [Fc, S1](const View &V) {
      const Val *Cell = V.joint(Fc).tryLookup(S1);
      return Cell && isIdleSlot(*Cell) &&
             slotsOf(V.self(Fc)).count(S1) != 0;
    });
    TC.S.PostName = "the push is ascribed to me, whoever combined it";
    TC.S.Post = [Fc](const Val &R, const View &I, const View &F) {
      if (!R.isUnit())
        return false;
      const History &Before = histOf(I.self(Fc));
      const History &After = histOf(F.self(Fc));
      if (After.size() != Before.size() + 1)
        return false;
      for (const auto &Entry : After) {
        if (Before.contains(Entry.first))
          continue;
        return Entry.second.After ==
               Val::pair(Val::ofInt(4), Entry.second.Before);
      }
      return false;
    };
    TC.Instances.push_back(
        VerifyInstance{flatCombinerState(*Case, 1), {}});
    TC.Opts.Ambient = Case->C;
    TC.Opts.EnvInterference = true;
    TC.Defs = std::shared_ptr<const DefTable>(Case, &Case->Defs);
    addTriple(Session, "flat_combine_push_spec", std::move(TC));
  }

  {
    TripleCase TC;
    TC.Main = Prog::call(
        "flat_combine",
        {Expr::litPtr(Case->Slot1), Expr::litInt(FcPop), Expr::litInt(0)});
    TC.S.Name = "flat_combine(pop)";
    TC.S.C = Case->C;
    Label Fc = Case->Fc;
    TC.S.Pre = assertTrue();
    TC.S.PostName = "a pop entry is ascribed to me";
    TC.S.Post = [Fc](const Val &R, const View &I, const View &F) {
      const History &Before = histOf(I.self(Fc));
      const History &After = histOf(F.self(Fc));
      if (After.size() != Before.size() + 1)
        return false;
      for (const auto &Entry : After) {
        if (Before.contains(Entry.first))
          continue;
        if (Entry.second.Before.isUnit())
          return R.isInt() && R.getInt() == 0 &&
                 Entry.second.After.isUnit();
        return Entry.second.Before == Val::pair(R, Entry.second.After);
      }
      return false;
    };
    TC.Instances.push_back(
        VerifyInstance{flatCombinerState(*Case, 1), {}});
    TC.Opts.Ambient = Case->C;
    TC.Opts.EnvInterference = true;
    TC.Defs = std::shared_ptr<const DefTable>(Case, &Case->Defs);
    addTriple(Session, "flat_combine_pop_spec", std::move(TC));
  }

  return Session;
}

void fcsl::registerFlatCombinerLibrary() {
  globalRegistry().registerLibrary(LibraryInfo{
      "Flat combiner",
      {ConcurroidUse{"Priv", false}, ConcurroidUse{"CLock", true},
       ConcurroidUse{"TLock", true}, ConcurroidUse{"FlatCombine", false}},
      {"Abstract lock"}});
}
