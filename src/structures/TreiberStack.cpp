//===- structures/TreiberStack.cpp - Treiber's lock-free stack -------------===//
//
// Part of fcsl-cpp. See TreiberStack.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "structures/TreiberStack.h"

#include "concurroid/Registry.h"
#include "pcm/Algebra.h"

using namespace fcsl;

namespace {

/// The value environment pushes carry (fixing it bounds interference
/// enumeration without losing interference *shapes*).
const int64_t EnvPushValue = 7;

/// Builds the cons-list encoding of a stack (top first).
Val listVal(const std::vector<int64_t> &Elems) {
  Val Out = Val::unit();
  for (auto It = Elems.rbegin(); It != Elems.rend(); ++It)
    Out = Val::pair(Val::ofInt(*It), Out);
  return Out;
}

/// The combined history's final abstract state (empty stack if none).
Val lastAbstractState(const History &Combined) {
  if (Combined.isEmpty())
    return Val::unit();
  return Combined.tryLookup(Combined.lastStamp())->After;
}

/// One push entry appended to a self history.
History appendEntry(const History &H, uint64_t Stamp, Val Before,
                    Val After) {
  History Out = H;
  Out.add(Stamp, HistEntry{std::move(Before), std::move(After)});
  return Out;
}

/// Conservative footprint shared by the stack's commit steps: the Treiber
/// joint heap (cells enter and leave on push/pop, and the sentinel is
/// rewritten), the agent's history contribution at Tr, the agent's private
/// heap at Pv (push consumes a node, pop deposits one), and a read of the
/// other agents' histories (the abstract Before state and the interference
/// cap both come from the combined history).
Footprint treiberFootprint(Label Pv, Label Tr) {
  return Footprint::none()
      .readWrite(FpAtom::joint(Tr))
      .readWrite(FpAtom::selfAux(Tr))
      .readWrite(FpAtom::selfAux(Pv))
      .read(FpAtom::otherAux(Tr));
}

} // namespace

std::optional<Val> fcsl::treiberAbstractStack(const TreiberCase &C,
                                              const Heap &Joint) {
  const Val *Head = Joint.tryLookup(C.Sentinel);
  if (!Head || !Head->isPtr())
    return std::nullopt;
  std::vector<int64_t> Elems;
  std::set<Ptr> Seen;
  Ptr Cur = Head->getPtr();
  while (!Cur.isNull()) {
    if (!Seen.insert(Cur).second)
      return std::nullopt; // Cycle.
    const Val *Cell = Joint.tryLookup(Cur);
    if (!Cell || !Cell->isPair() || !Cell->first().isInt() ||
        !Cell->second().isPtr())
      return std::nullopt;
    Elems.push_back(Cell->first().getInt());
    Cur = Cell->second().getPtr();
  }
  // No junk cells: sentinel + list nodes account for the whole heap.
  if (Seen.size() + 1 != Joint.size())
    return std::nullopt;
  return listVal(Elems);
}

TreiberCase fcsl::makeTreiberCase(Label Pv, Label Tr, uint64_t EnvHistCap) {
  TreiberCase Case;
  Case.Pv = Pv;
  Case.Tr = Tr;
  Case.Sentinel = Ptr(9400 + Tr);
  Ptr Snt = Case.Sentinel;

  // --- Coherence -----------------------------------------------------------
  auto Coh = [Snt, Tr, Pv](const View &S) {
    if (!S.hasLabel(Tr) || !S.hasLabel(Pv))
      return false;
    if (S.self(Tr).kind() != PCMKind::Hist ||
        S.other(Tr).kind() != PCMKind::Hist)
      return false;
    std::optional<History> Combined =
        History::join(S.self(Tr).getHist(), S.other(Tr).getHist());
    if (!Combined || !Combined->isContinuous())
      return false;
    if (!Combined->isEmpty() &&
        !(Combined->tryLookup(1)->Before == Val::unit()))
      return false;
    // Walk the concrete list.
    const Val *Head = S.joint(Tr).tryLookup(Snt);
    if (!Head || !Head->isPtr())
      return false;
    std::vector<int64_t> Elems;
    std::set<Ptr> Seen;
    Ptr Cur = Head->getPtr();
    while (!Cur.isNull()) {
      if (!Seen.insert(Cur).second)
        return false;
      const Val *Cell = S.joint(Tr).tryLookup(Cur);
      if (!Cell || !Cell->isPair() || !Cell->first().isInt() ||
          !Cell->second().isPtr())
        return false;
      Elems.push_back(Cell->first().getInt());
      Cur = Cell->second().getPtr();
    }
    if (Seen.size() + 1 != S.joint(Tr).size())
      return false;
    return lastAbstractState(*Combined) == listVal(Elems);
  };

  auto Treiber = makeConcurroid(
      "Treiber", {OwnedLabel{Tr, "tr", PCMType::hist()}}, Coh);

  // Shared commit logic for pushes (transition enumeration and action).
  auto PushCommit = [Snt, Tr, Pv](const View &Pre, Ptr Node,
                                  int64_t V) -> std::optional<View> {
    const Heap &Mine = Pre.self(Pv).getHeap();
    if (!Mine.contains(Node))
      return std::nullopt;
    Ptr Head = Pre.joint(Tr).lookup(Snt).getPtr();
    std::optional<History> Combined =
        History::join(Pre.self(Tr).getHist(), Pre.other(Tr).getHist());
    if (!Combined)
      return std::nullopt;
    Val Before = lastAbstractState(*Combined);
    Val After = Val::pair(Val::ofInt(V), Before);
    View Post = Pre;
    Heap Joint = Pre.joint(Tr);
    Joint.update(Snt, Val::ofPtr(Node));
    Joint.insert(Node, Val::pair(Val::ofInt(V), Val::ofPtr(Head)));
    Post.setJoint(Tr, std::move(Joint));
    Heap NewMine = Mine;
    NewMine.remove(Node);
    Post.setSelf(Pv, PCMVal::ofHeap(std::move(NewMine)));
    Post.setSelf(Tr, PCMVal::ofHist(appendEntry(
                         Pre.self(Tr).getHist(), Combined->lastStamp() + 1,
                         std::move(Before), std::move(After))));
    return Post;
  };

  auto PopCommit = [Snt, Tr, Pv](const View &Pre) -> std::optional<View> {
    Ptr Head = Pre.joint(Tr).lookup(Snt).getPtr();
    if (Head.isNull())
      return std::nullopt;
    const Val &Cell = Pre.joint(Tr).lookup(Head);
    std::optional<History> Combined =
        History::join(Pre.self(Tr).getHist(), Pre.other(Tr).getHist());
    if (!Combined)
      return std::nullopt;
    Val Before = lastAbstractState(*Combined);
    if (!Before.isPair())
      return std::nullopt;
    Val After = Before.second();
    View Post = Pre;
    Heap Joint = Pre.joint(Tr);
    Joint.update(Snt, Cell.second());
    Joint.remove(Head);
    Post.setJoint(Tr, std::move(Joint));
    std::optional<Heap> Mine =
        Heap::join(Pre.self(Pv).getHeap(), Heap::singleton(Head, Cell));
    if (!Mine)
      return std::nullopt;
    Post.setSelf(Pv, PCMVal::ofHeap(std::move(*Mine)));
    Post.setSelf(Tr, PCMVal::ofHist(appendEntry(
                         Pre.self(Tr).getHist(), Combined->lastStamp() + 1,
                         std::move(Before), std::move(After))));
    return Post;
  };

  auto HistSize = [Tr](const View &S) {
    return S.self(Tr).getHist().size() + S.other(Tr).getHist().size();
  };

  // --- tr_push (acquire: the node cell enters the shared structure) -----
  Treiber->addTransition(Transition(
      "treiber_push", TransitionKind::Acquire,
      [PushCommit, HistSize, Pv, EnvHistCap](const View &Pre)
          -> std::vector<View> {
        std::vector<View> Out;
        if (HistSize(Pre) >= EnvHistCap)
          return Out; // Bounded interference.
        for (const auto &Cell : Pre.self(Pv).getHeap()) {
          std::optional<View> Post =
              PushCommit(Pre, Cell.first, EnvPushValue);
          if (Post)
            Out.push_back(std::move(*Post));
        }
        return Out;
      },
      // Thread pushes may carry any value; coverage is structural: the
      // pushed node and value are read off the post-state head.
      [PushCommit, Snt, Tr, Pv](const View &Pre, const View &Post) {
        if (!Post.hasLabel(Tr))
          return false;
        const Val *Head = Post.joint(Tr).tryLookup(Snt);
        if (!Head || !Head->isPtr() || Head->getPtr().isNull())
          return false;
        Ptr Node = Head->getPtr();
        if (!Pre.self(Pv).getHeap().contains(Node))
          return false;
        const Val *Cell = Post.joint(Tr).tryLookup(Node);
        if (!Cell || !Cell->isPair() || !Cell->first().isInt())
          return false;
        std::optional<View> Candidate =
            PushCommit(Pre, Node, Cell->first().getInt());
        return Candidate && *Candidate == Post;
      }).withFootprint(treiberFootprint(Pv, Tr)));

  // --- tr_pop (release: the head cell leaves) ----------------------------
  Treiber->addTransition(Transition(
      "treiber_pop", TransitionKind::Release,
      [PopCommit, HistSize, EnvHistCap](const View &Pre)
          -> std::vector<View> {
        std::vector<View> Out;
        if (HistSize(Pre) >= EnvHistCap)
          return Out;
        std::optional<View> Post = PopCommit(Pre);
        if (Post)
          Out.push_back(std::move(*Post));
        return Out;
      },
      [PopCommit](const View &Pre, const View &Post) {
        std::optional<View> Candidate = PopCommit(Pre);
        return Candidate && *Candidate == Post;
      }).withFootprint(treiberFootprint(Pv, Tr)));

  ConcurroidRef PrivC = makePriv(Pv);
  Case.Treiber = Treiber;
  Case.C = entangle(PrivC, Treiber);

  // --- Actions --------------------------------------------------------------
  Case.ReadHead = makeAction(
      "read_head", Case.C, 0,
      [Snt, Tr](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        const Val *Head = Pre.joint(Tr).tryLookup(Snt);
        if (!Head)
          return std::nullopt;
        return std::vector<ActOutcome>{{*Head, Pre}};
      },
      Footprint::none().read(FpAtom::jointCell(Tr, Snt)));

  Case.TryPush = makeAction(
      "try_push", Case.C, 3,
      [Snt, Tr, PushCommit](const View &Pre, const std::vector<Val> &Args)
          -> std::optional<std::vector<ActOutcome>> {
        if (!Args[0].isPtr() || !Args[1].isInt() || !Args[2].isPtr())
          return std::nullopt;
        Ptr Head = Pre.joint(Tr).lookup(Snt).getPtr();
        if (Head != Args[2].getPtr())
          return std::vector<ActOutcome>{{Val::ofBool(false), Pre}};
        std::optional<View> Post =
            PushCommit(Pre, Args[0].getPtr(), Args[1].getInt());
        if (!Post)
          return std::nullopt; // Node not privately owned: unsafe.
        return std::vector<ActOutcome>{{Val::ofBool(true),
                                        std::move(*Post)}};
      },
      treiberFootprint(Pv, Tr),
      // A failed CAS only observes the sentinel: as long as the head stays
      // different from the expected snapshot, the step reads one joint
      // cell and changes nothing. Steps independent of that read cannot
      // make the comparison succeed.
      [Snt, Tr, Pv](const View &Pre,
                    const std::vector<Val> &Args) -> Footprint {
        if (Pre.hasLabel(Tr) && Args.size() == 3 && Args[2].isPtr()) {
          const Val *Head = Pre.joint(Tr).tryLookup(Snt);
          if (Head && Head->isPtr() && Head->getPtr() != Args[2].getPtr())
            return Footprint::none().read(FpAtom::jointCell(Tr, Snt));
        }
        return treiberFootprint(Pv, Tr);
      });

  Case.TryPop = makeAction(
      "try_pop", Case.C, 1,
      [Snt, Tr, PopCommit](const View &Pre, const std::vector<Val> &Args)
          -> std::optional<std::vector<ActOutcome>> {
        if (!Args[0].isPtr() || Args[0].getPtr().isNull())
          return std::nullopt;
        Ptr Head = Pre.joint(Tr).lookup(Snt).getPtr();
        if (Head != Args[0].getPtr())
          return std::vector<ActOutcome>{
              {Val::pair(Val::ofBool(false), Val::ofInt(0)), Pre}};
        const Val &Cell = Pre.joint(Tr).lookup(Head);
        std::optional<View> Post = PopCommit(Pre);
        if (!Post)
          return std::nullopt;
        return std::vector<ActOutcome>{
            {Val::pair(Val::ofBool(true), Cell.first()),
             std::move(*Post)}};
      },
      treiberFootprint(Pv, Tr),
      // Mirrors try_push: a failed pop CAS reads only the sentinel.
      [Snt, Tr, Pv](const View &Pre,
                    const std::vector<Val> &Args) -> Footprint {
        if (Pre.hasLabel(Tr) && Args.size() == 1 && Args[0].isPtr()) {
          const Val *Head = Pre.joint(Tr).tryLookup(Snt);
          if (Head && Head->isPtr() && Head->getPtr() != Args[0].getPtr())
            return Footprint::none().read(FpAtom::jointCell(Tr, Snt));
        }
        return treiberFootprint(Pv, Tr);
      });

  // --- Programs ---------------------------------------------------------
  // push(p, v) := h <-- read_head; b <-- try_push(p, v, h);
  //               if b then ret () else push(p, v).
  Case.Defs.define(
      "push",
      FuncDef{{"p", "v"},
              Prog::bind(
                  Prog::act(Case.ReadHead, {}), "h",
                  Prog::bind(
                      Prog::act(Case.TryPush,
                                {Expr::var("p"), Expr::var("v"),
                                 Expr::var("h")}),
                      "b",
                      Prog::ifThenElse(Expr::var("b"), Prog::retUnit(),
                                       Prog::call("push",
                                                  {Expr::var("p"),
                                                   Expr::var("v")}))))});
  // pop() := h <-- read_head;
  //          if h == null then ret (false, 0)
  //          else r <-- try_pop(h); if r.1 then ret (true, r.2) else pop().
  Case.Defs.define(
      "pop",
      FuncDef{{},
              Prog::bind(
                  Prog::act(Case.ReadHead, {}), "h",
                  Prog::ifThenElse(
                      Expr::isNull(Expr::var("h")),
                      Prog::ret(Expr::mkPair(Expr::litBool(false),
                                             Expr::litInt(0))),
                      Prog::bind(
                          Prog::act(Case.TryPop, {Expr::var("h")}), "r",
                          Prog::ifThenElse(
                              Expr::fst(Expr::var("r")),
                              Prog::ret(Expr::mkPair(
                                  Expr::litBool(true),
                                  Expr::snd(Expr::var("r")))),
                              Prog::call("pop", {})))))});
  // push_fresh(v) := p <-- priv_alloc(v); push(p, v).
  // The node cell is allocated on the spot instead of arriving pre-seeded,
  // so two sibling threads running push_fresh with the same value are
  // fully interchangeable: only the fresh names they draw differ, which
  // the symmetry layer's terminal pointer abstraction quotients away.
  Case.PrivAlloc = makePrivAlloc(Case.C, Pv);
  Case.Defs.define(
      "push_fresh",
      FuncDef{{"v"},
              Prog::bind(Prog::act(Case.PrivAlloc, {Expr::var("v")}), "p",
                         Prog::call("push",
                                    {Expr::var("p"), Expr::var("v")}))});
  return Case;
}

GlobalState fcsl::treiberState(const TreiberCase &C,
                               const std::vector<int64_t> &Elems,
                               unsigned MyCells, unsigned EnvCells) {
  // Build the concrete list (cells 40, 41, ...) and the priming history,
  // ascribed to the environment.
  Heap Joint;
  Ptr Head = Ptr::null();
  for (size_t I = Elems.size(); I-- > 0;) {
    Ptr Node(static_cast<uint32_t>(40 + I));
    Joint.insert(Node, Val::pair(Val::ofInt(Elems[I]), Val::ofPtr(Head)));
    Head = Node;
  }
  Joint.insert(C.Sentinel, Val::ofPtr(Head));

  History EnvHist;
  {
    Val State = Val::unit();
    uint64_t Stamp = 1;
    for (size_t I = Elems.size(); I-- > 0; ++Stamp) {
      Val Next = Val::pair(Val::ofInt(Elems[I]), State);
      EnvHist.add(Stamp, HistEntry{State, Next});
      State = Next;
    }
  }

  GlobalState GS;
  GS.addLabel(C.Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()),
              /*EnvClosed=*/false);
  GS.addLabel(C.Tr, PCMType::hist(), std::move(Joint),
              PCMVal::ofHist(std::move(EnvHist)), /*EnvClosed=*/false);

  Heap Mine;
  for (unsigned I = 0; I < MyCells; ++I)
    Mine.insert(Ptr(20 + I), Val::pair(Val::ofInt(0), Val::ofPtr({})));
  GS.setSelf(C.Pv, rootThread(), PCMVal::ofHeap(std::move(Mine)));

  Heap EnvMine;
  for (unsigned I = 0; I < EnvCells; ++I)
    EnvMine.insert(Ptr(30 + I), Val::pair(Val::ofInt(0), Val::ofPtr({})));
  GS.setEnvSelf(C.Pv, PCMVal::ofHeap(std::move(EnvMine)));
  return GS;
}

std::vector<View> fcsl::treiberSampleViews(const TreiberCase &C) {
  std::vector<View> Out;
  auto FromState = [&](const std::vector<int64_t> &Elems, unsigned MyCells,
                       bool HistIsMine) {
    GlobalState GS = treiberState(C, Elems, MyCells, /*EnvCells=*/1);
    if (HistIsMine) {
      // Re-ascribe the priming history to the observing thread.
      PCMVal H = GS.envSelf(C.Tr);
      GS.setEnvSelf(C.Tr, PCMType::hist()->unit());
      GS.setSelf(C.Tr, rootThread(), std::move(H));
    }
    Out.push_back(GS.viewFor(rootThread()));
  };
  FromState({}, 0, false);
  FromState({}, 1, false);
  FromState({5}, 1, false);
  FromState({5}, 1, true);
  FromState({7, 5}, 0, false);
  FromState({7, 5}, 2, true);
  return Out;
}

//===----------------------------------------------------------------------===//
// The Table 1 row.
//===----------------------------------------------------------------------===//

namespace {

constexpr Label PvLbl = 1;
constexpr Label TrLbl = 2;

/// self-history delta of exactly one entry; returns it.
std::optional<std::pair<uint64_t, HistEntry>>
selfHistDelta(const View &I, const View &F, Label Tr) {
  const History &Before = I.self(Tr).getHist();
  const History &After = F.self(Tr).getHist();
  if (After.size() != Before.size() + 1)
    return std::nullopt;
  for (const auto &Entry : After) {
    const HistEntry *Old = Before.tryLookup(Entry.first);
    if (Old) {
      if (!(*Old == Entry.second))
        return std::nullopt;
      continue;
    }
    return std::make_pair(Entry.first, Entry.second);
  }
  return std::nullopt;
}

} // namespace

VerificationSession fcsl::makeTreiberSession() {
  VerificationSession Session("Treiber stack");
  auto Case = std::make_shared<TreiberCase>(
      makeTreiberCase(PvLbl, TrLbl, /*EnvHistCap=*/3));
  auto Samples =
      std::make_shared<std::vector<View>>(treiberSampleViews(*Case));

  std::vector<PCMVal> LawSample;
  LawSample.push_back(PCMVal::ofHist(History()));
  {
    History H1, H2, H12;
    H1.add(1, HistEntry{Val::unit(), Val::ofInt(1)});
    H2.add(2, HistEntry{Val::ofInt(1), Val::ofInt(2)});
    H12.add(1, HistEntry{Val::unit(), Val::ofInt(1)});
    H12.add(2, HistEntry{Val::ofInt(1), Val::ofInt(2)});
    LawSample.push_back(PCMVal::ofHist(H1));
    LawSample.push_back(PCMVal::ofHist(H2));
    LawSample.push_back(PCMVal::ofHist(H12));
  }
  Session.addObligation(
      ObCategory::Libs, "hist_pcm_laws",
      pcmLawInputs(PCMType::hist(), LawSample, 1).text("cancellative"),
      [LawSample](const ResolvedModes &) {
        PCMLawReport R = checkPCMLaws(*PCMType::hist(), LawSample);
        return lawObligation(R.allHold() && checkCancellativity(LawSample),
                             R.JoinsEvaluated);
      });

  Session.addObligation(ObCategory::Conc, "treiber_metatheory",
                        sampleInputs(ObKind::Metatheory, *Case->C,
                                     *Samples, 1),
                        [Case, Samples](const ResolvedModes &) {
    return toObligation(checkConcurroidWellFormed(*Case->C, *Samples));
  });

  std::vector<ActionArgs> PushArgs = {
      {Val::ofPtr(Ptr(20)), Val::ofInt(1), Val::ofPtr(Ptr::null())},
      {Val::ofPtr(Ptr(20)), Val::ofInt(2), Val::ofPtr(Ptr(40))},
      {Val::ofPtr(Ptr(21)), Val::ofInt(3), Val::ofPtr(Ptr(41))}};
  std::vector<ActionArgs> PopArgs = {{Val::ofPtr(Ptr(40))},
                                     {Val::ofPtr(Ptr(41))}};

  Session.addObligation(ObCategory::Acts, "read_head_wf",
                        actionInputs(*Case->ReadHead, *Samples, {{}}, 1)
                            .text("wf"),
                        [Case, Samples](const ResolvedModes &) {
    return toObligation(
        checkActionWellFormed(*Case->ReadHead, *Samples, {{}}));
  });
  Session.addObligation(ObCategory::Acts, "try_push_wf",
                        actionInputs(*Case->TryPush, *Samples, PushArgs, 1)
                            .text("wf"),
                        [Case, Samples, PushArgs](const ResolvedModes &) {
    return toObligation(
        checkActionWellFormed(*Case->TryPush, *Samples, PushArgs));
  });
  Session.addObligation(ObCategory::Acts, "try_pop_wf",
                        actionInputs(*Case->TryPop, *Samples, PopArgs, 1)
                            .text("wf"),
                        [Case, Samples, PopArgs](const ResolvedModes &) {
    return toObligation(
        checkActionWellFormed(*Case->TryPop, *Samples, PopArgs));
  });

  Session.addObligation(ObCategory::Stab, "my_history_stable",
                        stabilityInputs(*Case->C,
                                        "my history contains stamp 1",
                                        *Samples, 1),
                        [Case, Samples](const ResolvedModes &) {
    Label Tr = Case->Tr;
    Assertion MyHist("my history contains stamp 1", [Tr](const View &S) {
      return S.self(Tr).getHist().contains(1);
    });
    return toObligation(checkStability(MyHist, *Case->C, *Samples));
  });
  Session.addObligation(ObCategory::Stab, "history_only_grows",
                        stabilityInputs(*Case->C,
                                        "the combined history is append-only",
                                        *Samples, 1),
                        [Case, Samples](const ResolvedModes &) {
    Label Tr = Case->Tr;
    return toObligation(checkRelationStability(
        [Tr](const View &Seed, const View &S) {
          std::optional<History> A = History::join(
              Seed.self(Tr).getHist(), Seed.other(Tr).getHist());
          std::optional<History> B = History::join(
              S.self(Tr).getHist(), S.other(Tr).getHist());
          if (!A || !B || B->size() < A->size())
            return false;
          for (const auto &Entry : *A) {
            const HistEntry *E = B->tryLookup(Entry.first);
            if (!E || !(*E == Entry.second))
              return false;
          }
          return true;
        },
        "the combined history is append-only", *Case->C, *Samples));
  });

  {
    TripleCase TC;
    TC.Main = Prog::call("push", {Expr::litPtr(Ptr(20)), Expr::litInt(4)});
    TC.S.Name = "push";
    TC.S.C = Case->C;
    Label Pv = Case->Pv, Tr = Case->Tr;
    TC.S.Pre = Assertion("node cell owned", [Pv](const View &V) {
      return V.self(Pv).getHeap().contains(Ptr(20));
    });
    TC.S.PostName = "my history gained exactly the push entry";
    TC.S.Post = [Tr](const Val &R, const View &I, const View &F) {
      if (!R.isUnit())
        return false;
      auto Delta = selfHistDelta(I, F, Tr);
      return Delta &&
             Delta->second.After ==
                 Val::pair(Val::ofInt(4), Delta->second.Before);
    };
    TC.Instances.push_back(
        VerifyInstance{treiberState(*Case, {}, 1, 1), {}});
    TC.Instances.push_back(
        VerifyInstance{treiberState(*Case, {5}, 1, 1), {}});
    TC.Opts.Ambient = Case->C;
    TC.Opts.EnvInterference = true;
    TC.Defs = std::shared_ptr<const DefTable>(Case, &Case->Defs);
    addTriple(Session, "push_spec", std::move(TC));
  }

  {
    TripleCase TC;
    TC.Main = Prog::call("pop", {});
    TC.S.Name = "pop";
    TC.S.C = Case->C;
    Label Tr = Case->Tr;
    TC.S.Pre = assertTrue();
    TC.S.PostName = "pop entry recorded, or empty observed with no entry";
    TC.S.Post = [Tr](const Val &R, const View &I, const View &F) {
      if (!R.isPair() || !R.first().isBool())
        return false;
      if (!R.first().getBool())
        return I.self(Tr).getHist() == F.self(Tr).getHist();
      auto Delta = selfHistDelta(I, F, Tr);
      return Delta &&
             Delta->second.Before ==
                 Val::pair(R.second(), Delta->second.After);
    };
    TC.Instances.push_back(
        VerifyInstance{treiberState(*Case, {}, 0, 1), {}});
    TC.Instances.push_back(
        VerifyInstance{treiberState(*Case, {5}, 0, 1), {}});
    TC.Instances.push_back(
        VerifyInstance{treiberState(*Case, {7, 5}, 0, 1), {}});
    TC.Opts.Ambient = Case->C;
    TC.Opts.EnvInterference = true;
    TC.Defs = std::shared_ptr<const DefTable>(Case, &Case->Defs);
    addTriple(Session, "pop_spec", std::move(TC));
  }

  {
    // par(push(20, 1), push(21, 2)) in a closed world: both entries land.
    TripleCase TC;
    TC.S.Name = "parallel_push";
    TC.S.C = Case->C;
    Label Tr = Case->Tr;
    TC.S.Pre = assertTrue();
    TC.S.PostName = "both pushes recorded in my joined history";
    TC.S.Post = [Tr](const Val &R, const View &I, const View &F) {
      if (!R.isPair())
        return false;
      const History &Mine = F.self(Tr).getHist();
      if (Mine.size() != I.self(Tr).getHist().size() + 2)
        return false;
      bool Saw1 = false, Saw2 = false;
      for (const auto &Entry : Mine) {
        if (Entry.second.After ==
            Val::pair(Val::ofInt(1), Entry.second.Before))
          Saw1 = true;
        if (Entry.second.After ==
            Val::pair(Val::ofInt(2), Entry.second.Before))
          Saw2 = true;
      }
      return Saw1 && Saw2;
    };
    // Children split the private cells: node 20 left, node 21 right.
    Label Pv = Case->Pv;
    SplitFn Split = [Pv](const View &V)
        -> std::map<Label, std::pair<PCMVal, PCMVal>> {
      Heap Mine = V.self(Pv).getHeap();
      Heap Left, Right;
      for (const auto &Cell : Mine)
        (Cell.first == Ptr(20) ? Left : Right)
            .insert(Cell.first, Cell.second);
      return {{Pv, {PCMVal::ofHeap(std::move(Left)),
                    PCMVal::ofHeap(std::move(Right))}}};
    };
    TC.Main = Prog::par(
        Prog::call("push", {Expr::litPtr(Ptr(20)), Expr::litInt(1)}),
        Prog::call("push", {Expr::litPtr(Ptr(21)), Expr::litInt(2)}),
        Split);
    TC.Instances.push_back(
        VerifyInstance{treiberState(*Case, {}, 2, 0), {}});
    TC.Opts.Ambient = Case->C;
    TC.Opts.EnvInterference = false;
    TC.Defs = std::shared_ptr<const DefTable>(Case, &Case->Defs);
    addTriple(Session, "parallel_pushes", std::move(TC));
  }

  {
    // par(push_fresh(7), push_fresh(7)) in a closed world: the siblings
    // are interchangeable (same program, same value, empty private
    // heaps), and the node cells they push are allocated on the fly — the
    // fresh names escape into the joint list, so the two interleavings'
    // terminals differ only up to pointer renaming. This is the session's
    // orbit workload: symmetry reduction folds the pair.
    TripleCase TC;
    TC.S.Name = "symmetric_push";
    TC.S.C = Case->C;
    Label Tr = Case->Tr;
    TC.S.Pre = assertTrue();
    TC.S.PostName = "both fresh pushes of 7 recorded in my joined history";
    TC.S.Post = [Tr](const Val &R, const View &I, const View &F) {
      if (!R.isPair())
        return false;
      const History &Mine = F.self(Tr).getHist();
      if (Mine.size() != I.self(Tr).getHist().size() + 2)
        return false;
      unsigned Pushes = 0;
      for (const auto &Entry : Mine)
        if (Entry.second.After ==
            Val::pair(Val::ofInt(7), Entry.second.Before))
          ++Pushes;
      return Pushes == 2;
    };
    TC.Main = Prog::par(Prog::call("push_fresh", {Expr::litInt(7)}),
                        Prog::call("push_fresh", {Expr::litInt(7)}));
    TC.Instances.push_back(
        VerifyInstance{treiberState(*Case, {}, 0, 0), {}});
    TC.Opts.Ambient = Case->C;
    TC.Opts.EnvInterference = false;
    TC.Defs = std::shared_ptr<const DefTable>(Case, &Case->Defs);
    addTriple(Session, "symmetric_pushes", std::move(TC));
  }

  return Session;
}

void fcsl::registerTreiberLibrary() {
  globalRegistry().registerLibrary(LibraryInfo{
      "Treiber stack",
      {ConcurroidUse{"Priv", false}, ConcurroidUse{"CLock", true},
       ConcurroidUse{"TLock", true}, ConcurroidUse{"Treiber", false}},
      {"CG allocator"}});
}
