//===- tests/soundness_test.cpp - The checks reject buggy code -------------===//
//
// Part of fcsl-cpp. Mutation tests of the verification framework itself:
// deliberately broken programs, actions and specs must be *rejected*. In
// the paper's terms, "it is too easy for a human prover to forget about
// a piece of resource-specific invariant or to miss an intermediate
// assertion that is unstable" — these tests confirm the mechanization
// catches exactly those mistakes.
//
//===----------------------------------------------------------------------===//

#include "action/ActionChecks.h"
#include "structures/CgIncrement.h"
#include "structures/FlatCombiner.h"
#include "structures/SpanTree.h"
#include "structures/SpinLock.h"
#include "structures/TreiberStack.h"

#include <gtest/gtest.h>

using namespace fcsl;

namespace {
constexpr Label Pv = 1;
constexpr Label Sec = 2; // SpanTree / Treiber / lock label per test.
} // namespace

TEST(SoundnessTest, SpanWithoutEdgePruningRejected) {
  // A "span" that forgets lines 7-8 of Figure 1 (no nullify): on graphs
  // with sharing the result keeps cross edges and is NOT a tree.
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sec);
  ExprRef X = Expr::var("x");
  ProgRef BuggyBody = Prog::ifThenElse(
      Expr::isNull(X), Prog::ret(Expr::litBool(false)),
      Prog::bind(
          Prog::act(Case.TryMark, {X}), "b",
          Prog::ifThenElse(
              Expr::var("b"),
              Prog::bind(
                  Prog::act(Case.ReadChildL, {X}), "xl",
                  Prog::bind(
                      Prog::act(Case.ReadChildR, {X}), "xr",
                      Prog::seq(
                          Prog::par(Prog::call("span",
                                               {Expr::var("xl")}),
                                    Prog::call("span",
                                               {Expr::var("xr")})),
                          Prog::ret(Expr::litBool(true))))),
              Prog::ret(Expr::litBool(false)))));
  Case.Defs.define("span", FuncDef{{"x"}, BuggyBody});

  Spec S;
  S.Name = "buggy_span_root";
  S.C = Case.PrivOnly;
  S.Pre = assertTrue();
  S.PostName = "the result is a spanning tree";
  S.Post = [](const Val &, const View &, const View &F) {
    const Heap &G2 = F.self(Pv).getHeap();
    PtrSet All;
    for (const auto &Cell : G2)
      All.insert(Cell.first);
    return isTreeIn(G2, Ptr(1), All);
  };
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  VerifyResult R = verifyTriple(
      makeSpanRootProg(Case, Ptr(1)), S,
      {VerifyInstance{spanRootState(Case, figure2Graph()), {}}}, Opts);
  EXPECT_FALSE(R.Holds);
  EXPECT_NE(R.FailureNote.find("spanning tree"), std::string::npos);
}

TEST(SoundnessTest, SpanPruningUnconditionallyRejected) {
  // The dual bug: nullify both edges regardless of the children's
  // answers — the "tree" degenerates and no longer spans.
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sec);
  ExprRef X = Expr::var("x");
  ProgRef BuggyBody = Prog::ifThenElse(
      Expr::isNull(X), Prog::ret(Expr::litBool(false)),
      Prog::bind(
          Prog::act(Case.TryMark, {X}), "b",
          Prog::ifThenElse(
              Expr::var("b"),
              Prog::bind(
                  Prog::act(Case.ReadChildL, {X}), "xl",
                  Prog::bind(
                      Prog::act(Case.ReadChildR, {X}), "xr",
                      Prog::seq(
                          Prog::par(Prog::call("span",
                                               {Expr::var("xl")}),
                                    Prog::call("span",
                                               {Expr::var("xr")})),
                          Prog::seq(
                              Prog::act(Case.NullifyL, {X}),
                              Prog::seq(
                                  Prog::act(Case.NullifyR, {X}),
                                  Prog::ret(Expr::litBool(true))))))),
              Prog::ret(Expr::litBool(false)))));
  Case.Defs.define("span", FuncDef{{"x"}, BuggyBody});

  Spec S;
  S.Name = "overpruned_span_root";
  S.C = Case.PrivOnly;
  S.Pre = assertTrue();
  S.PostName = "the result is a spanning tree";
  S.Post = [](const Val &, const View &, const View &F) {
    const Heap &G2 = F.self(Pv).getHeap();
    PtrSet All;
    for (const auto &Cell : G2)
      All.insert(Cell.first);
    return isTreeIn(G2, Ptr(1), All);
  };
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  VerifyResult R = verifyTriple(
      makeSpanRootProg(Case, Ptr(1)), S,
      {VerifyInstance{spanRootState(Case, figure2Graph()), {}}}, Opts);
  EXPECT_FALSE(R.Holds);
}

TEST(SoundnessTest, PopForgettingHistoryBreaksCoherence) {
  // A Treiber pop that mutates the list but "forgets" the auxiliary
  // history entry: the per-step coherence check flags it immediately.
  TreiberCase Case = makeTreiberCase(Pv, Sec, 0);
  Ptr Snt = Case.Sentinel;
  Label Tr = Case.Tr;
  ActionRef BadPop = makeAction(
      "bad_pop", Case.C, 0,
      [Snt, Tr](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        Ptr Head = Pre.joint(Tr).lookup(Snt).getPtr();
        if (Head.isNull())
          return std::nullopt;
        const Val &Cell = Pre.joint(Tr).lookup(Head);
        View Post = Pre;
        Heap Joint = Pre.joint(Tr);
        Joint.update(Snt, Cell.second());
        Joint.remove(Head);
        Post.setJoint(Tr, std::move(Joint));
        std::optional<Heap> Mine = Heap::join(
            Pre.self(Pv).getHeap(), Heap::singleton(Head, Cell));
        Post.setSelf(Pv, PCMVal::ofHeap(std::move(*Mine)));
        // BUG: no history entry appended.
        return std::vector<ActOutcome>{{Cell.first(), std::move(Post)}};
      });
  EngineOptions Opts;
  Opts.Ambient = Case.C;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  RunResult R =
      explore(Prog::act(BadPop, {}), treiberState(Case, {5}, 0, 0), Opts);
  EXPECT_FALSE(R.Safe);
  EXPECT_NE(R.FailureNote.find("coherence"), std::string::npos);
}

TEST(SoundnessTest, BadPopNotCoveredByAnyTransition) {
  // The same bug is also caught statically by the action-correspondence
  // obligation: no Treiber transition covers a pop without its entry.
  TreiberCase Case = makeTreiberCase(Pv, Sec, 0);
  Ptr Snt = Case.Sentinel;
  Label Tr = Case.Tr;
  ActionRef BadPop = makeAction(
      "bad_pop", Case.C, 0,
      [Snt, Tr](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        Ptr Head = Pre.joint(Tr).lookup(Snt).getPtr();
        if (Head.isNull())
          return std::nullopt;
        const Val &Cell = Pre.joint(Tr).lookup(Head);
        View Post = Pre;
        Heap Joint = Pre.joint(Tr);
        Joint.update(Snt, Cell.second());
        Joint.remove(Head);
        Post.setJoint(Tr, std::move(Joint));
        std::optional<Heap> Mine = Heap::join(
            Pre.self(Pv).getHeap(), Heap::singleton(Head, Cell));
        Post.setSelf(Pv, PCMVal::ofHeap(std::move(*Mine)));
        return std::vector<ActOutcome>{{Cell.first(), std::move(Post)}};
      });
  std::vector<View> Samples = treiberSampleViews(Case);
  MetaReport R = checkActionCorrespondence(*BadPop, Samples, {{}});
  EXPECT_FALSE(R.Passed);
}

TEST(SoundnessTest, ForgettingContributionBumpIsUnsafe) {
  // A CG-increment client that increments the cell but forgets to bump
  // its own contribution: the release invariant cannot be re-established
  // and the unlock action is unsafe — precisely the auxiliary-state
  // bookkeeping the paper's approach enforces.
  LockProtocol P =
      makeCasLock(Pv, Sec, counterResourceModel(Sec, /*EnvCap=*/0));
  ActionRef ForgetfulUnlock = P.MakeUnlock(
      "unlock_forgetful", 0,
      [P](const View &S,
          const std::vector<Val> &) -> std::optional<std::pair<Heap, PCMVal>> {
        const Val *Cell =
            S.self(P.Pv).getHeap().tryLookup(counterResourceCell());
        if (!Cell)
          return std::nullopt;
        // BUG: releases the incremented cell with the OLD contribution.
        return std::make_pair(
            Heap::singleton(counterResourceCell(), *Cell),
            P.ClientSelf(S));
      });
  DefTable Defs;
  defineLockLoop(Defs, "lock", P.TryLock);
  ActionRef Read = makePrivRead(P.C, P.Pv);
  ActionRef Write = makePrivWrite(P.C, P.Pv);
  ExprRef Cell = Expr::litPtr(counterResourceCell());
  ProgRef Main = Prog::seq(
      Prog::call("lock", {}),
      Prog::bind(Prog::act(Read, {Cell}), "v",
                 Prog::seq(Prog::act(Write,
                                     {Cell, Expr::add(Expr::var("v"),
                                                      Expr::litInt(1))}),
                           Prog::act(ForgetfulUnlock, {}))));

  GlobalState GS;
  GS.addLabel(P.Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()),
              false);
  GS.addLabel(P.Lk, PCMType::pairOf(PCMType::mutex(), PCMType::nat()),
              P.InitialJoint(Heap::singleton(counterResourceCell(),
                                             Val::ofInt(0))),
              PCMVal::makePair(PCMVal::mutexFree(), PCMVal::ofNat(0)),
              false);
  EngineOptions Opts;
  Opts.Ambient = P.C;
  Opts.EnvInterference = false;
  Opts.Defs = &Defs;
  RunResult R = explore(Main, GS, Opts);
  EXPECT_FALSE(R.Safe);
  EXPECT_NE(R.FailureNote.find("unlock_forgetful"), std::string::npos);
}

TEST(SoundnessTest, SelfAttributingCombinerRejected) {
  // A combiner that appends the executed operation to ITS OWN history
  // instead of parking it in the requester's slot: no FlatCombine
  // transition covers such a step (helping attribution is part of the
  // protocol, not a convention).
  FlatCombinerCase Case = makeFlatCombinerCase(Pv, /*EnvHistCap=*/0);
  Label Fc = Case.Fc;
  Ptr StkP = Case.StackCell;
  ActionRef SelfishCombine = makeAction(
      "selfish_combine", Case.C, 1,
      [Fc, StkP](const View &Pre, const std::vector<Val> &Args)
          -> std::optional<std::vector<ActOutcome>> {
        if (!Args[0].isPtr() || !Pre.self(Fc).first().isOwn())
          return std::nullopt;
        const Val *Slot = Pre.joint(Fc).tryLookup(Args[0].getPtr());
        if (!Slot || !Slot->isPair() || !Slot->first().isInt())
          return std::nullopt;
        // Execute the request...
        Val Before = Pre.joint(Fc).lookup(StkP);
        Val After = Val::pair(Slot->second(), Before);
        View Post = Pre;
        Heap Joint = Pre.joint(Fc);
        Joint.update(StkP, After);
        Joint.update(Args[0].getPtr(), Val::unit()); // ...clear the slot
        Post.setJoint(Fc, std::move(Joint));
        // BUG: ...and claim the credit.
        History Mine = Pre.self(Fc).second().second().getHist();
        Mine.add(1, HistEntry{Before, After});
        Post.setSelf(
            Fc, PCMVal::makePair(
                    Pre.self(Fc).first(),
                    PCMVal::makePair(Pre.self(Fc).second().first(),
                                     PCMVal::ofHist(std::move(Mine)))));
        return std::vector<ActOutcome>{{Val::unit(), std::move(Post)}};
      });

  // A sample where the env published a request and I hold the lock.
  GlobalState GS = flatCombinerState(Case, 1);
  Heap Joint = GS.joint(Fc);
  Joint.update(Case.LockCell, Val::ofBool(true));
  Joint.update(Case.Slot2, Val::pair(Val::ofInt(FcPush), Val::ofInt(3)));
  GS.setJoint(Fc, std::move(Joint));
  GS.setSelf(Fc, rootThread(),
             PCMVal::makePair(
                 PCMVal::mutexOwn(),
                 PCMVal::makePair(PCMVal::singletonPtr(Case.Slot1),
                                  PCMVal::ofHist(History()))));
  View Sample = GS.viewFor(rootThread());

  MetaReport R = checkActionCorrespondence(
      *SelfishCombine, {Sample}, {{Val::ofPtr(Case.Slot2)}});
  EXPECT_FALSE(R.Passed);
}

TEST(SoundnessTest, RacyNonAtomicIncrementLosesUpdates) {
  // The classic data race, caught as a functional failure: increment
  // implemented as unsynchronized read-then-CAS-free-write (modeled by
  // two separate actions with no protocol) drops updates under
  // interleaving; the parallel-increment postcondition fails.
  auto Coh = [](const View &S) {
    return S.hasLabel(Sec) && S.joint(Sec).contains(Ptr(1));
  };
  auto C = makeConcurroid("RacyCell",
                          {OwnedLabel{Sec, "rc", PCMType::nat()}}, Coh);
  // A write-anything transition so the racy write corresponds.
  C->addTransition(Transition(
      "scribble", TransitionKind::Internal, nullptr,
      [](const View &Pre, const View &Post) {
        for (Label L : Pre.labels())
          if (L != Sec && !(Pre.slice(L) == Post.slice(L)))
            return false;
        return Pre.other(Sec) == Post.other(Sec);
      },
      /*EnvEnabled=*/false));
  ConcurroidRef CC = C;

  ActionRef RacyRead = makeAction(
      "racy_read", CC, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        return std::vector<ActOutcome>{
            {Pre.joint(Sec).lookup(Ptr(1)), Pre}};
      });
  ActionRef RacyWrite = makeAction(
      "racy_write", CC, 1,
      [](const View &Pre, const std::vector<Val> &Args)
          -> std::optional<std::vector<ActOutcome>> {
        View Post = Pre;
        Heap Joint = Pre.joint(Sec);
        Joint.update(Ptr(1), Args[0]);
        Post.setJoint(Sec, std::move(Joint));
        return std::vector<ActOutcome>{{Val::unit(), std::move(Post)}};
      });

  DefTable Defs;
  Defs.define("racy_incr",
              FuncDef{{},
                      Prog::bind(Prog::act(RacyRead, {}), "v",
                                 Prog::act(RacyWrite,
                                           {Expr::add(Expr::var("v"),
                                                      Expr::litInt(1))}))});
  Spec S;
  S.Name = "racy_parallel_incr";
  S.C = CC;
  S.Pre = assertTrue();
  S.PostName = "the counter reads 2";
  S.Post = [](const Val &, const View &, const View &F) {
    return F.joint(Sec).lookup(Ptr(1)) == Val::ofInt(2);
  };
  GlobalState GS;
  GS.addLabel(Sec, PCMType::nat(),
              Heap::singleton(Ptr(1), Val::ofInt(0)), PCMVal::ofNat(0),
              false);
  EngineOptions Opts;
  Opts.Ambient = CC;
  Opts.EnvInterference = false;
  Opts.Defs = &Defs;
  VerifyResult R = verifyTriple(
      Prog::par(Prog::call("racy_incr", {}), Prog::call("racy_incr", {})),
      S, {VerifyInstance{GS, {}}}, Opts);
  // The exhaustive exploration finds the lost-update interleaving.
  EXPECT_FALSE(R.Holds);
}

TEST(SoundnessTest, ActionWritingOtherFails) {
  // A thread step may write only its own self and the joint state: other
  // is fixed by construction. This action also claims one more unit for
  // the other threads, so its post-view differs from the pre-view at
  // other(Sec). The step must fail, naming the action, rather than write
  // back self and joint and drop the rest.
  auto C = makeConcurroid("Tally", {OwnedLabel{Sec, "tl", PCMType::nat()}},
                          [](const View &S) { return S.hasLabel(Sec); });
  ConcurroidRef CC = C;
  ActionRef Grab = makeAction(
      "grab_other", CC, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        View Post = Pre;
        Post.setOther(Sec, PCMVal::ofNat(Pre.other(Sec).getNat() + 1));
        return std::vector<ActOutcome>{{Val::unit(), std::move(Post)}};
      });
  GlobalState GS;
  GS.addLabel(Sec, PCMType::nat(), Heap(), PCMVal::ofNat(0), false);
  EngineOptions Opts;
  Opts.Ambient = CC;
  Opts.Por = PorMode::Off;
  Opts.Symmetry = SymMode::Off;
  const std::string Note =
      "action grab_other changed the label set or the other component";
  for (unsigned Jobs : {1u, 4u}) {
    Opts.Jobs = Jobs;
    RunResult R = explore(Prog::act(Grab, {}), GS, Opts);
    EXPECT_FALSE(R.Safe) << "jobs=" << Jobs;
    EXPECT_EQ(R.FailureNote, Note) << "jobs=" << Jobs;
    EXPECT_NE(R.renderTrace().find("grab_other"), std::string::npos);
  }
  SimResult Sim = simulate(Prog::act(Grab, {}), GS, Opts, /*Seed=*/1,
                           /*MaxSteps=*/10);
  EXPECT_FALSE(Sim.Safe);
  EXPECT_EQ(Sim.FailureNote, Note);
}
