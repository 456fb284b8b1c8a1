//===- tests/simulate_test.cpp - Randomized schedule simulation ------------===//
//
// Part of fcsl-cpp. The scalable single-schedule execution mode (the
// reproduction's analogue of the paper's "program extraction" future
// work): its sampled runs must agree with exhaustive exploration on
// small instances and scale to instances exploration cannot reach.
//
//===----------------------------------------------------------------------===//

#include "action/AtomicAction.h"
#include "concurroid/Concurroid.h"
#include "structures/FlatCombiner.h"
#include "structures/SpanTree.h"
#include "structures/TreiberStack.h"

#include <gtest/gtest.h>

using namespace fcsl;

namespace {

/// Splits the private node cells between the two pushing children.
SplitFn nodeSplit(Label Pv) {
  return [Pv](const View &V)
             -> std::map<Label, std::pair<PCMVal, PCMVal>> {
    Heap Mine = V.self(Pv).getHeap();
    Heap Left, Right;
    for (const auto &Cell : Mine)
      (Cell.first == Ptr(21) ? Right : Left)
          .insert(Cell.first, Cell.second);
    return {{Pv, {PCMVal::ofHeap(std::move(Left)),
                  PCMVal::ofHeap(std::move(Right))}}};
  };
}

} // namespace

TEST(SimulateTest, SampledTerminalsAreExploredTerminals) {
  // Every simulated outcome of the parallel Treiber pushes must be among
  // the exhaustively explored terminals.
  TreiberCase Case = makeTreiberCase(1, 2, 0);
  ProgRef Main = Prog::par(
      Prog::call("push", {Expr::litPtr(Ptr(20)), Expr::litInt(1)}),
      Prog::call("push", {Expr::litPtr(Ptr(21)), Expr::litInt(2)}),
      nodeSplit(Case.Pv));
  GlobalState Initial = treiberState(Case, {}, 2, 0);
  EngineOptions Opts;
  Opts.Ambient = Case.C;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;

  RunResult Explored = explore(Main, Initial, Opts);
  ASSERT_TRUE(Explored.complete());
  ASSERT_FALSE(Explored.Terminals.empty());

  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    SimResult Sim = simulate(Main, Initial, Opts, Seed);
    ASSERT_TRUE(Sim.Safe) << Sim.FailureNote;
    ASSERT_TRUE(Sim.Terminated);
    bool Found = false;
    for (const Terminal &T : Explored.Terminals)
      Found |= T.Result == Sim.Result && T.FinalView == Sim.FinalView;
    EXPECT_TRUE(Found) << "seed " << Seed << " produced an outcome the "
                       << "exhaustive exploration did not";
  }
}

TEST(SimulateTest, DeterministicPerSeed) {
  TreiberCase Case = makeTreiberCase(1, 2, 0);
  ProgRef Main = Prog::par(
      Prog::call("push", {Expr::litPtr(Ptr(20)), Expr::litInt(1)}),
      Prog::call("push", {Expr::litPtr(Ptr(21)), Expr::litInt(2)}),
      nodeSplit(Case.Pv));
  GlobalState Initial = treiberState(Case, {}, 2, 0);
  EngineOptions Opts;
  Opts.Ambient = Case.C;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  SimResult A = simulate(Main, Initial, Opts, 42);
  SimResult B = simulate(Main, Initial, Opts, 42);
  ASSERT_TRUE(A.Terminated && B.Terminated);
  EXPECT_EQ(A.Result, B.Result);
  EXPECT_EQ(A.FinalView, B.FinalView);
  EXPECT_EQ(A.Steps, B.Steps);
}

TEST(SimulateTest, ScalesBeyondExhaustiveExploration) {
  // A 10-node connected graph: far too many interleavings to enumerate
  // cheaply, but each sampled schedule still yields a spanning tree.
  SpanTreeCase Case = makeSpanTreeCase(1, 2);
  Rng Random(0xbeef);
  Heap G = randomGraph(10, Random, /*ConnectedFromRoot=*/true);
  ProgRef Main = makeSpanRootProg(Case, Ptr(1));
  EngineOptions Opts;
  Opts.Ambient = Case.PrivOnly;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;

  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    SimResult Sim = simulate(Main, spanRootState(Case, G), Opts, Seed);
    ASSERT_TRUE(Sim.Safe) << Sim.FailureNote;
    ASSERT_TRUE(Sim.Terminated);
    const Heap &G2 = Sim.FinalView.self(1).getHeap();
    PtrSet All;
    for (const auto &Cell : G2)
      All.insert(Cell.first);
    EXPECT_EQ(All.size(), 10u);
    EXPECT_TRUE(isTreeIn(G2, Ptr(1), All)) << "seed " << Seed;
  }
}

TEST(SimulateTest, PinsEnvInterferenceSchedulesPerSeed) {
  // The flat combiner's push against an interfering environment that
  // publishes, combines and collects on the other slot (capped at 4
  // history entries). Each seed's walk is pinned: a change to the order of
  // thread outcomes or env posts picks different steps and shows here,
  // where same-seed self-determinism alone would not.
  FlatCombinerCase Case = makeFlatCombinerCase(4, /*EnvHistCap=*/4);
  ProgRef Main = Prog::call("flat_combine", {Expr::litPtr(Case.Slot1),
                                             Expr::litInt(FcPush),
                                             Expr::litInt(4)});
  EngineOptions Opts;
  Opts.Ambient = Case.C;
  Opts.EnvInterference = true;
  Opts.Defs = &Case.Defs;
  struct Golden {
    uint64_t Steps;
    bool Terminated;
    const char *Result;
    const char *FinalView;
  };
  const Golden Goldens[] = {
      {5, true, "()",
       "4 ->> [<NotOwn | <{&9605} | [1: () ~> (4, ())]>> | {&9604 :-> true, "
       "&9605 :-> (), &9606 :-> (2, 0), &9607 :-> (4, ()), &9608 :-> 1} | "
       "<Own | <{&9606} | []>>]\n"},
      {16, true, "()",
       "4 ->> [<NotOwn | <{&9605} | [1: () ~> (4, ())]>> | "
       "{&9604 :-> false, &9605 :-> (), "
       "&9606 :-> (true, ((), (2, ((4, ()), (5, (4, ())))))), "
       "&9607 :-> (5, (4, ())), &9608 :-> 2} | <NotOwn | <{&9606} | []>>]\n"},
      {29, true, "()",
       "4 ->> [<NotOwn | <{&9605} | [3: () ~> (4, ())]>> | "
       "{&9604 :-> false, &9605 :-> (), &9606 :-> (2, 0), "
       "&9607 :-> (4, ()), &9608 :-> 3} | <NotOwn | <{&9606} | "
       "[1: () ~> (5, ()), 2: (5, ()) ~> ()]>>]\n"},
      {16, true, "()",
       "4 ->> [<NotOwn | <{&9605} | [2: (5, ()) ~> (4, (5, ()))]>> | "
       "{&9604 :-> true, &9605 :-> (), "
       "&9606 :-> (true, ((), (1, ((), (5, ()))))), &9607 :-> (4, (5, ())), "
       "&9608 :-> 2} | <Own | <{&9606} | []>>]\n"},
      {5, true, "()",
       "4 ->> [<NotOwn | <{&9605} | [1: () ~> (4, ())]>> | {&9604 :-> true, "
       "&9605 :-> (), &9606 :-> (1, 5), &9607 :-> (4, ()), &9608 :-> 1} | "
       "<Own | <{&9606} | []>>]\n"},
      {7, true, "()",
       "4 ->> [<NotOwn | <{&9605} | [1: () ~> (4, ())]>> | {&9604 :-> true, "
       "&9605 :-> (), &9606 :-> (1, 5), &9607 :-> (4, ()), &9608 :-> 1} | "
       "<Own | <{&9606} | []>>]\n"},
      {12, true, "()",
       "4 ->> [<NotOwn | <{&9605} | [1: () ~> (4, ())]>> | "
       "{&9604 :-> false, &9605 :-> (), &9606 :-> (), "
       "&9607 :-> (5, (4, ())), &9608 :-> 2} | <NotOwn | <{&9606} | "
       "[2: (4, ()) ~> (5, (4, ()))]>>]\n"},
      {31, true, "()",
       "4 ->> [<NotOwn | <{&9605} | [4: () ~> (4, ())]>> | {&9604 :-> true, "
       "&9605 :-> (), &9606 :-> (), &9607 :-> (4, ()), &9608 :-> 4} | "
       "<Own | <{&9606} | "
       "[1: () ~> (), 2: () ~> (5, ()), 3: (5, ()) ~> ()]>>]\n"},
  };
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    SimResult Sim = simulate(Main, flatCombinerState(Case, 1), Opts, Seed,
                             /*MaxSteps=*/400);
    ASSERT_TRUE(Sim.Safe) << Sim.FailureNote;
    const Golden &G = Goldens[Seed - 1];
    EXPECT_EQ(Sim.Steps, G.Steps) << "seed " << Seed;
    EXPECT_EQ(Sim.Terminated, G.Terminated) << "seed " << Seed;
    EXPECT_EQ(Sim.Result.toString(), G.Result) << "seed " << Seed;
    EXPECT_EQ(Sim.FinalView.toString(), G.FinalView) << "seed " << Seed;
  }
}

TEST(SimulateTest, UnsafeActionsCaughtOnSampledPaths) {
  SpanTreeCase Case = makeSpanTreeCase(1, 2);
  // nullify on a node we never marked: unsafe on every schedule.
  ProgRef Main = Prog::act(Case.NullifyL, {Expr::litPtr(Ptr(1))});
  EngineOptions Opts;
  Opts.Ambient = Case.Open;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  SimResult Sim =
      simulate(Main, spanOpenState(Case, figure2Graph(), {}), Opts, 7);
  EXPECT_FALSE(Sim.Safe);
  EXPECT_FALSE(Sim.Terminated);
  EXPECT_EQ(Sim.FailureNote,
            "action nullify_l is unsafe in the sampled schedule");
}

TEST(SimulateTest, IncoherentOutcomeFailsWithItsNote) {
  // An action whose post-state drops the cell coherence requires: the
  // step-coherence re-check stops the walk, and the note names the action.
  constexpr Label Lb = 5;
  ConcurroidRef C = makeConcurroid(
      "Cell", {OwnedLabel{Lb, "cell", PCMType::nat()}},
      [](const View &S) {
        return S.hasLabel(Lb) && S.joint(Lb).contains(Ptr(1));
      });
  ActionRef Drop = makeAction(
      "drop", C, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        View Post = Pre;
        Post.setJoint(Lb, Heap());
        return std::vector<ActOutcome>{{Val::unit(), std::move(Post)}};
      });
  GlobalState Initial;
  Initial.addLabel(Lb, PCMType::nat(), Heap::singleton(Ptr(1), Val::ofInt(0)),
                   PCMVal::ofNat(0), false);
  EngineOptions Opts;
  Opts.Ambient = C;
  Opts.EnvInterference = false;
  SimResult Sim = simulate(Prog::act(Drop, {}), Initial, Opts, 1);
  EXPECT_FALSE(Sim.Safe);
  EXPECT_FALSE(Sim.Terminated);
  EXPECT_EQ(Sim.FailureNote, "action drop broke coherence");
}

TEST(SimulateTest, BudgetExhaustionReportsNonTermination) {
  // A pure spin loop with no way out: the walk hits the step budget.
  TreiberCase Case = makeTreiberCase(1, 2, 0);
  Case.Defs.define("spin",
                   FuncDef{{},
                           Prog::bind(Prog::act(Case.ReadHead, {}), "h",
                                      Prog::call("spin", {}))});
  EngineOptions Opts;
  Opts.Ambient = Case.C;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  SimResult Sim = simulate(Prog::call("spin", {}),
                           treiberState(Case, {}, 0, 0), Opts, 3,
                           /*MaxSteps=*/500);
  EXPECT_TRUE(Sim.Safe);
  EXPECT_FALSE(Sim.Terminated);
  EXPECT_EQ(Sim.Steps, 500u);
}
