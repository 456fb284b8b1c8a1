//===- structures/SpinLock.cpp - CAS-based spinlock (CLock) ----------------===//
//
// Part of fcsl-cpp. See SpinLock.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "structures/SpinLock.h"

#include "concurroid/Registry.h"
#include "pcm/Algebra.h"

using namespace fcsl;

namespace {

/// The lock bit's pointer, kept away from small resource pointers.
Ptr lockPtrFor(Label Lk) { return Ptr(9000 + Lk); }

/// The resource part of the lock's joint heap (everything but the bit).
Heap resourcePart(const Heap &Joint, Ptr LockPtr) {
  return Joint.without({LockPtr});
}

bool lockBit(const Heap &Joint, Ptr LockPtr) {
  const Val *Cell = Joint.tryLookup(LockPtr);
  assert(Cell && "lock joint heap lost its lock bit");
  return Cell->getBool();
}

/// Removes the cells of dom(R) from \p Mine; nullopt if some are missing.
/// Values need not match: the releasing thread may have updated the cells
/// while it owned them.
std::optional<Heap> subtractByDomain(const Heap &Mine, const Heap &R) {
  Heap Out = Mine;
  for (const auto &Cell : R) {
    if (!Out.contains(Cell.first))
      return std::nullopt;
    Out.remove(Cell.first);
  }
  return Out;
}

/// Conservative footprint shared by the lock's transitions and actions:
/// the lock's joint heap (bit plus resource cells, whose *domain* changes
/// on acquire/release), the agent's mutex token and client contribution
/// at Lk, the agent's private heap at Pv (resource cells move in and
/// out), and a read of the other agents' Lk contribution (release
/// re-checks the resource invariant against it, and the env release
/// options depend on it).
Footprint lockFootprint(Label Pv, Label Lk) {
  return Footprint::none()
      .readWrite(FpAtom::joint(Lk))
      .readWrite(FpAtom::selfAux(Lk))
      .readWrite(FpAtom::selfAux(Pv))
      .read(FpAtom::otherAux(Lk));
}

/// The view update shared by the acquire transition and tryLock's success
/// branch: move the resource into pv-self, flip the bit, take Own.
View acquireEffect(const View &Pre, Label Pv, Label Lk, Ptr LockPtr) {
  Heap Res = resourcePart(Pre.joint(Lk), LockPtr);
  View Post = Pre;
  Post.setJoint(Lk, Heap::singleton(LockPtr, Val::ofBool(true)));
  Post.setSelf(Lk, PCMVal::makePair(PCMVal::mutexOwn(),
                                    Pre.self(Lk).second()));
  std::optional<Heap> Mine =
      Heap::join(Pre.self(Pv).getHeap(), Res);
  assert(Mine && "resource cells clash with the private heap");
  Post.setSelf(Pv, PCMVal::ofHeap(std::move(*Mine)));
  return Post;
}

/// The release view update; nullopt when R is not in the private heap.
std::optional<View> releaseEffect(const View &Pre, Label Pv, Label Lk,
                                  Ptr LockPtr, const Heap &R,
                                  const PCMVal &NewClient) {
  std::optional<Heap> Mine =
      subtractByDomain(Pre.self(Pv).getHeap(), R);
  if (!Mine)
    return std::nullopt;
  std::optional<Heap> NewJoint =
      Heap::join(Heap::singleton(LockPtr, Val::ofBool(false)), R);
  if (!NewJoint)
    return std::nullopt;
  View Post = Pre;
  Post.setJoint(Lk, std::move(*NewJoint));
  Post.setSelf(Lk, PCMVal::makePair(PCMVal::mutexFree(), NewClient));
  Post.setSelf(Pv, PCMVal::ofHeap(std::move(*Mine)));
  return Post;
}

} // namespace

LockProtocol fcsl::makeCasLock(Label Pv, Label Lk,
                               const ResourceModel &Model) {
  Ptr LockPtr = lockPtrFor(Lk);
  PCMTypeRef SelfType = PCMType::pairOf(PCMType::mutex(), Model.ClientType);
  auto Invariant = Model.Invariant;

  // --- Coherence of the CLock slice -------------------------------------
  auto LockCoh = [Pv, Lk, LockPtr, SelfType, Invariant](const View &S) {
    if (!S.hasLabel(Lk) || !S.hasLabel(Pv))
      return false;
    if (!SelfType->admits(S.self(Lk)) || !SelfType->admits(S.other(Lk)))
      return false;
    std::optional<PCMVal> Total = S.selfOtherJoin(Lk);
    if (!Total)
      return false;
    const Heap &Joint = S.joint(Lk);
    if (!Joint.contains(LockPtr) || !Joint.lookup(LockPtr).isBool())
      return false;
    bool Locked = Joint.lookup(LockPtr).getBool();
    bool SomeoneOwns = Total->first().isOwn();
    if (Locked != SomeoneOwns)
      return false;
    if (Locked)
      return Joint.size() == 1; // The resource is with the owner.
    return Invariant(resourcePart(Joint, LockPtr), Total->second());
  };

  auto Lock = makeConcurroid(
      "CLock", {OwnedLabel{Lk, "lk", SelfType}}, LockCoh);

  // --- acquire: bit false -> true, resource to pv-self, token to Own ----
  Lock->addTransition(Transition(
      "clock_acquire", TransitionKind::Acquire,
      [Pv, Lk, LockPtr](const View &Pre) -> std::vector<View> {
        if (!Pre.hasLabel(Lk) || !Pre.hasLabel(Pv))
          return {};
        if (lockBit(Pre.joint(Lk), LockPtr))
          return {};
        return {acquireEffect(Pre, Pv, Lk, LockPtr)};
      }).withFootprint(lockFootprint(Pv, Lk)));

  // --- release: bit true -> false, new resource from pv-self ------------
  auto EnvOptions = Model.EnvReleaseOptions;
  Lock->addTransition(Transition(
      "clock_release", TransitionKind::Release,
      [Pv, Lk, LockPtr, EnvOptions, Invariant](const View &Pre)
          -> std::vector<View> {
        std::vector<View> Out;
        if (!Pre.hasLabel(Lk) || !Pre.hasLabel(Pv))
          return Out;
        if (!lockBit(Pre.joint(Lk), LockPtr) ||
            !Pre.self(Lk).first().isOwn())
          return Out;
        for (const auto &Option : EnvOptions(Pre)) {
          std::optional<PCMVal> Total =
              PCMVal::join(Option.second, Pre.other(Lk).second());
          if (!Total || !Invariant(Option.first, *Total))
            continue;
          std::optional<View> Post = releaseEffect(
              Pre, Pv, Lk, LockPtr, Option.first, Option.second);
          if (Post)
            Out.push_back(std::move(*Post));
        }
        return Out;
      },
      // Thread-side unlocks may release payloads outside the enumerated
      // environment options, so coverage is structural.
      [Pv, Lk, LockPtr, Invariant, SelfType](const View &Pre,
                                             const View &Post) {
        if (!Pre.hasLabel(Lk) || !Pre.hasLabel(Pv))
          return false;
        for (Label L : Pre.labels())
          if (L != Lk && L != Pv && !(Pre.slice(L) == Post.slice(L)))
            return false;
        if (!(Pre.other(Lk) == Post.other(Lk)) ||
            !(Pre.other(Pv) == Post.other(Pv)))
          return false;
        if (!lockBit(Pre.joint(Lk), LockPtr) ||
            !Pre.self(Lk).first().isOwn())
          return false;
        if (lockBit(Post.joint(Lk), LockPtr))
          return false;
        if (Post.self(Lk).first().isOwn() ||
            !SelfType->admits(Post.self(Lk)))
          return false;
        Heap R = resourcePart(Post.joint(Lk), LockPtr);
        std::optional<Heap> Mine =
            subtractByDomain(Pre.self(Pv).getHeap(), R);
        if (!Mine || !(*Mine == Post.self(Pv).getHeap()))
          return false;
        std::optional<PCMVal> Total =
            PCMVal::join(Post.self(Lk).second(), Post.other(Lk).second());
        return Total && Invariant(R, *Total);
      }).withFootprint(lockFootprint(Pv, Lk)));

  ConcurroidRef Priv = makePriv(Pv);
  ConcurroidRef Entangled = entangle(Priv, Lock);

  // --- Package as a LockProtocol ----------------------------------------
  LockProtocol P;
  P.Name = "CLock";
  P.C = Entangled;
  P.Pv = Pv;
  P.Lk = Lk;
  P.ClientType = Model.ClientType;

  P.TryLock = makeAction(
      "try_lock", Entangled, 0,
      [Pv, Lk, LockPtr](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        if (!Pre.hasLabel(Lk) || !Pre.joint(Lk).contains(LockPtr))
          return std::nullopt;
        if (lockBit(Pre.joint(Lk), LockPtr))
          return std::vector<ActOutcome>{{Val::ofBool(false), Pre}};
        return std::vector<ActOutcome>{
            {Val::ofBool(true), acquireEffect(Pre, Pv, Lk, LockPtr)}};
      },
      lockFootprint(Pv, Lk),
      // A failed try_lock only observes the bit: as long as the bit stays
      // set, the step reads one joint cell and changes nothing. Steps
      // independent of that read cannot clear the bit.
      [Pv, Lk, LockPtr](const View &Pre,
                        const std::vector<Val> &) -> Footprint {
        if (Pre.hasLabel(Lk)) {
          const Val *Cell = Pre.joint(Lk).tryLookup(LockPtr);
          if (Cell && Cell->isBool() && Cell->getBool())
            return Footprint::none().read(FpAtom::jointCell(Lk, LockPtr));
        }
        return lockFootprint(Pv, Lk);
      });

  ActionRef TryLock = P.TryLock;
  P.DefineLock = [TryLock](DefTable &Defs, const std::string &FnName) {
    defineLockLoop(Defs, FnName, TryLock);
  };

  P.MakeUnlock = [Entangled, Pv, Lk, LockPtr,
                  Invariant](std::string Name, unsigned Arity,
                             ReleaseFn Release) {
    return makeAction(
        std::move(Name), Entangled, Arity,
        [Pv, Lk, LockPtr, Invariant, Release](
            const View &Pre, const std::vector<Val> &Args)
            -> std::optional<std::vector<ActOutcome>> {
          if (!Pre.hasLabel(Lk) || !Pre.joint(Lk).contains(LockPtr))
            return std::nullopt;
          if (!lockBit(Pre.joint(Lk), LockPtr) ||
              !Pre.self(Lk).first().isOwn())
            return std::nullopt; // Unlock without holding the lock.
          std::optional<std::pair<Heap, PCMVal>> Payload =
              Release(Pre, Args);
          if (!Payload)
            return std::nullopt;
          std::optional<PCMVal> Total =
              PCMVal::join(Payload->second, Pre.other(Lk).second());
          if (!Total || !Invariant(Payload->first, *Total))
            return std::nullopt; // Release would break the invariant.
          std::optional<View> Post = releaseEffect(
              Pre, Pv, Lk, LockPtr, Payload->first, Payload->second);
          if (!Post)
            return std::nullopt;
          return std::vector<ActOutcome>{{Val::unit(), std::move(*Post)}};
        },
        lockFootprint(Pv, Lk));
  };

  P.HoldsLock = [Lk](const View &S) {
    return S.hasLabel(Lk) && S.self(Lk).first().isOwn();
  };
  P.ClientSelf = [Lk](const View &S) { return S.self(Lk).second(); };
  P.InitialJoint = [LockPtr](const Heap &Resource) {
    std::optional<Heap> Joint =
        Heap::join(Heap::singleton(LockPtr, Val::ofBool(false)), Resource);
    assert(Joint && "resource clashes with the lock bit");
    return *Joint;
  };
  P.UnitSelf = [SelfType]() { return SelfType->unit(); };
  return P;
}

LockFactory fcsl::casLockFactory() {
  return [](Label Pv, Label Lk, const ResourceModel &Model) {
    return makeCasLock(Pv, Lk, Model);
  };
}

//===----------------------------------------------------------------------===//
// The "CAS-lock" Table 1 row: a one-cell counter resource.
//===----------------------------------------------------------------------===//

namespace {

constexpr Label PvLbl = 1;
constexpr Label LkLbl = 2;
const uint64_t EnvClientCap = 2;

Ptr counterCell() { return Ptr(1); }

/// The counter resource: cell &1 holds the total contribution.
ResourceModel counterResource() {
  ResourceModel Model;
  Model.ClientType = PCMType::nat();
  Model.Invariant = [](const Heap &Res, const PCMVal &Total) {
    if (Res.size() != 1 || !Res.contains(counterCell()))
      return false;
    const Val &Cell = Res.lookup(counterCell());
    return Cell.isInt() &&
           Cell.getInt() == static_cast<int64_t>(Total.getNat());
  };
  Model.EnvReleaseOptions =
      [](const View &EnvView) -> std::vector<std::pair<Heap, PCMVal>> {
    std::vector<std::pair<Heap, PCMVal>> Out;
    // The env releases after adding 0 or 1 to the counter (bounded
    // interference keeps the exploration finite).
    uint64_t Mine = EnvView.self(LkLbl).second().getNat();
    uint64_t Others = EnvView.other(LkLbl).second().getNat();
    for (uint64_t Delta = 0; Delta <= 1; ++Delta) {
      uint64_t NewMine = Mine + Delta;
      if (NewMine > EnvClientCap)
        continue;
      Heap R = Heap::singleton(
          counterCell(),
          Val::ofInt(static_cast<int64_t>(NewMine + Others)));
      Out.emplace_back(std::move(R), PCMVal::ofNat(NewMine));
    }
    return Out;
  };
  return Model;
}

/// Sample coherent (and a few incoherent) views for the checks.
std::vector<View> lockSampleViews(const LockProtocol &P) {
  std::vector<View> Out;
  auto Mk = [&](bool Locked, bool IOwn, uint64_t MyC, uint64_t OtherC,
                Heap MyPriv) {
    View S;
    Heap Joint = Locked ? Heap::singleton(lockPtrFor(LkLbl),
                                          Val::ofBool(true))
                        : P.InitialJoint(Heap::singleton(
                              counterCell(),
                              Val::ofInt(static_cast<int64_t>(MyC +
                                                              OtherC))));
    PCMVal Self = PCMVal::makePair(
        IOwn ? PCMVal::mutexOwn() : PCMVal::mutexFree(),
        PCMVal::ofNat(MyC));
    PCMVal Other = PCMVal::makePair(
        (Locked && !IOwn) ? PCMVal::mutexOwn() : PCMVal::mutexFree(),
        PCMVal::ofNat(OtherC));
    S.addLabel(PvLbl, LabelSlice{PCMVal::ofHeap(std::move(MyPriv)), Heap(),
                                 PCMVal::ofHeap(Heap())});
    S.addLabel(LkLbl, LabelSlice{std::move(Self), std::move(Joint),
                                 std::move(Other)});
    return S;
  };

  for (uint64_t MyC = 0; MyC <= 2; ++MyC)
    for (uint64_t OtherC = 0; OtherC <= 2; ++OtherC) {
      // Free lock.
      Out.push_back(Mk(false, false, MyC, OtherC, Heap()));
      // Held by me, resource in my private heap (possibly updated).
      for (int64_t CellVal = 0; CellVal <= 4; ++CellVal)
        Out.push_back(Mk(true, true, MyC, OtherC,
                         Heap::singleton(counterCell(),
                                         Val::ofInt(CellVal))));
      // Held by the environment.
      Out.push_back(Mk(true, false, MyC, OtherC, Heap()));
    }
  return Out;
}

GlobalState lockInitialState(const LockProtocol &P, uint64_t Total) {
  GlobalState GS;
  GS.addLabel(P.Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()),
              /*EnvClosed=*/false);
  GS.addLabel(P.Lk, PCMType::pairOf(PCMType::mutex(), PCMType::nat()),
              P.InitialJoint(Heap::singleton(
                  counterCell(), Val::ofInt(static_cast<int64_t>(Total)))),
              PCMVal::makePair(PCMVal::mutexFree(), PCMVal::ofNat(Total)),
              /*EnvClosed=*/false);
  return GS;
}

} // namespace

VerificationSession fcsl::makeSpinLockSession() {
  VerificationSession Session("CAS-lock");
  LockProtocol P = makeCasLock(PvLbl, LkLbl, counterResource());
  auto Samples = std::make_shared<std::vector<View>>(lockSampleViews(P));
  ConcurroidRef C = P.C;

  // --- Libs: PCM laws of the lock's carrier -----------------------------
  PCMTypeRef LawType = PCMType::pairOf(PCMType::mutex(), PCMType::nat());
  std::vector<PCMVal> LawSample;
  for (bool Own : {false, true})
    for (uint64_t N = 0; N <= 2; ++N)
      LawSample.push_back(PCMVal::makePair(
          Own ? PCMVal::mutexOwn() : PCMVal::mutexFree(),
          PCMVal::ofNat(N)));
  Session.addObligation(
      ObCategory::Libs, "mutex_x_nat_pcm_laws",
      pcmLawInputs(LawType, LawSample, 1).text("cancellative"),
      [LawType, LawSample](const ResolvedModes &) {
        PCMLawReport R = checkPCMLaws(*LawType, LawSample);
        return lawObligation(R.allHold() && checkCancellativity(LawSample),
                             R.JoinsEvaluated);
      });

  // --- Conc: metatheory of the entangled concurroid ---------------------
  Session.addObligation(ObCategory::Conc, "clock_metatheory",
                        sampleInputs(ObKind::Metatheory, *C, *Samples, 1),
                        [C, Samples](const ResolvedModes &) {
    return toObligation(checkConcurroidWellFormed(*C, *Samples));
  });

  // --- Acts: tryLock and unlock obligations -----------------------------
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

  Session.addObligation(ObCategory::Acts, "try_lock_wf",
                        actionInputs(*P.TryLock, *Samples, {{}}, 1).text("wf"),
                        [P, Samples](const ResolvedModes &) {
    return toObligation(checkActionWellFormed(*P.TryLock, *Samples, {{}}));
  });
  Session.addObligation(
      ObCategory::Acts, "try_lock_total",
      actionInputs(*P.TryLock, *Samples, {{}}, 1).text("total"),
      [P, Samples](const ResolvedModes &) {
        return toObligation(checkActionTotality(
            *P.TryLock, *Samples, {{}},
            [](const View &, const ActionArgs &) { return true; }));
      });
  Session.addObligation(ObCategory::Acts, "unlock_wf",
                        actionInputs(*Unlock, *Samples, {{}}, 1).text("wf"),
                        [Unlock, Samples](const ResolvedModes &) {
    return toObligation(checkActionWellFormed(*Unlock, *Samples, {{}}));
  });

  // --- Stab: key assertions stable under interference -------------------
  Session.addObligation(ObCategory::Stab, "holding_is_stable",
                        stabilityInputs(*C, "I hold the lock", *Samples, 1),
                        [C, P, Samples](const ResolvedModes &) {
    Assertion Holding("I hold the lock", P.HoldsLock);
    return toObligation(checkStability(Holding, *C, *Samples));
  });
  Session.addObligation(ObCategory::Stab, "client_self_stable",
                        stabilityInputs(*C, "client self is 1", *Samples, 1),
                        [C, P, Samples](const ResolvedModes &) {
    // My contribution is mine alone: interference cannot change it.
    Assertion SelfFixed(
        "client self is 1",
        [P](const View &S) { return P.ClientSelf(S).getNat() == 1; });
    return toObligation(checkStability(SelfFixed, *C, *Samples));
  });
  Session.addObligation(ObCategory::Stab, "unheld_resource_coherent",
                        stabilityInputs(*C, "coherence", *Samples, 1),
                        [C, Samples](const ResolvedModes &) {
    return toObligation(checkStability(
        Assertion("coherence", [C](const View &S) { return C->coherent(S); }),
        *C, *Samples));
  });

  // --- Main: lock(); unlock() round trip --------------------------------
  {
    auto Defs = std::make_shared<DefTable>();
    defineLockLoop(*Defs, "lock", P.TryLock);
    TripleCase TC;
    TC.Main = Prog::seq(Prog::call("lock", {}), Prog::act(Unlock, {}));
    TC.S.Name = "clock_lock_unlock";
    TC.S.C = C;
    TC.S.Pre = Assertion("not holding",
                         [P](const View &V) { return !P.HoldsLock(V); });
    TC.S.PostName = "released, client contribution unchanged";
    TC.S.Post = [P](const Val &R, const View &I, const View &F) {
      return R.isUnit() && !P.HoldsLock(F) &&
             P.ClientSelf(F) == P.ClientSelf(I);
    };
    for (uint64_t Total : {uint64_t{0}, uint64_t{1}})
      TC.Instances.push_back(VerifyInstance{lockInitialState(P, Total), {}});
    TC.Opts.Ambient = C;
    TC.Opts.EnvInterference = true;
    TC.Defs = Defs;
    addTriple(Session, "lock_unlock_spec", std::move(TC));
  }

  return Session;
}

void fcsl::registerSpinLockLibrary() {
  globalRegistry().registerLibrary(LibraryInfo{
      "CAS-lock",
      {ConcurroidUse{"Priv", false}, ConcurroidUse{"CLock", false}},
      {}});
  // The interface node (Figure 5): realized by both lock implementations.
  globalRegistry().registerLibrary(LibraryInfo{
      "Abstract lock", {}, {"CAS-lock", "Ticketed lock"}});
}
