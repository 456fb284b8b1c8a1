//===- tests/engine_test.cpp - Interleaving engine tests -------------------===//
//
// Part of fcsl-cpp. Exercises the exhaustive interleaving engine on a toy
// counter concurroid: sequencing, conditionals, recursion with cycle
// pruning, parallel composition with subjective splits, hide, safety
// violations, environment interference, thread steps served from the
// thread-step memo, and env steps served from the env rows.
//
//===----------------------------------------------------------------------===//

#include "concurroid/Entangle.h"
#include "concurroid/Priv.h"
#include "prog/Engine.h"

#include <gtest/gtest.h>

using namespace fcsl;

namespace {

constexpr Label Pv = 1;
constexpr Label Ct = 2;
const Ptr Cell = Ptr(1);

struct CounterWorld {
  ConcurroidRef C;
  ActionRef Incr;  ///< () -> old value; bumps cell and self.
  ActionRef Read;  ///< () -> value.
  DefTable Defs;
};

/// The toy world: joint cell &1 == sum of contributions (nat PCM); the
/// environment may bump the counter up to a cap.
CounterWorld makeCounterWorld(int64_t EnvCap) {
  auto Coh = [](const View &S) {
    if (!S.hasLabel(Ct))
      return false;
    const Val *V = S.joint(Ct).tryLookup(Cell);
    if (!V || !V->isInt())
      return false;
    return V->getInt() == static_cast<int64_t>(S.self(Ct).getNat() +
                                               S.other(Ct).getNat());
  };
  auto C = makeConcurroid("Counter", {OwnedLabel{Ct, "ct",
                                                 PCMType::nat()}},
                          Coh);
  C->addTransition(Transition(
      "bump", TransitionKind::Internal,
      [EnvCap](const View &Pre) -> std::vector<View> {
        if (!Pre.hasLabel(Ct))
          return {};
        int64_t Cur = Pre.joint(Ct).lookup(Cell).getInt();
        if (Cur >= EnvCap)
          return {};
        View Post = Pre;
        Heap Joint = Pre.joint(Ct);
        Joint.update(Cell, Val::ofInt(Cur + 1));
        Post.setJoint(Ct, std::move(Joint));
        Post.setSelf(Ct, PCMVal::ofNat(Pre.self(Ct).getNat() + 1));
        return {Post};
      },
      // Thread-side increments are uncapped.
      [](const View &Pre, const View &Post) {
        if (!Pre.hasLabel(Ct) || !Post.hasLabel(Ct))
          return false;
        for (Label L : Pre.labels())
          if (L != Ct && !(Pre.slice(L) == Post.slice(L)))
            return false;
        return Post.joint(Ct).lookup(Cell).getInt() ==
                   Pre.joint(Ct).lookup(Cell).getInt() + 1 &&
               Post.self(Ct).getNat() == Pre.self(Ct).getNat() + 1 &&
               Pre.other(Ct) == Post.other(Ct);
      }));

  CounterWorld World;
  World.C = entangle(makePriv(Pv), C);

  World.Incr = makeAction(
      "incr", World.C, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        const Val *V = Pre.joint(Ct).tryLookup(Cell);
        if (!V)
          return std::nullopt;
        View Post = Pre;
        Heap Joint = Pre.joint(Ct);
        Joint.update(Cell, Val::ofInt(V->getInt() + 1));
        Post.setJoint(Ct, std::move(Joint));
        Post.setSelf(Ct, PCMVal::ofNat(Pre.self(Ct).getNat() + 1));
        return std::vector<ActOutcome>{{*V, std::move(Post)}};
      });

  World.Read = makeAction(
      "read", World.C, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        const Val *V = Pre.joint(Ct).tryLookup(Cell);
        if (!V)
          return std::nullopt;
        return std::vector<ActOutcome>{{*V, Pre}};
      });
  return World;
}

GlobalState counterState(int64_t Initial = 0, uint64_t EnvSelf = 0) {
  GlobalState GS;
  GS.addLabel(Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()), false);
  GS.addLabel(Ct, PCMType::nat(), Heap::singleton(Cell,
                                                  Val::ofInt(Initial)),
              PCMVal::ofNat(EnvSelf), false);
  return GS;
}

EngineOptions optsFor(const CounterWorld &W, bool Env) {
  EngineOptions Opts;
  Opts.Ambient = W.C;
  Opts.EnvInterference = Env;
  Opts.Defs = &W.Defs;
  return Opts;
}

} // namespace

TEST(EngineTest, RetProducesOneTerminal) {
  CounterWorld W = makeCounterWorld(0);
  RunResult R = explore(Prog::ret(Expr::litInt(7)), counterState(),
                        optsFor(W, false));
  EXPECT_TRUE(R.complete());
  ASSERT_EQ(R.Terminals.size(), 1u);
  EXPECT_EQ(R.Terminals[0].Result, Val::ofInt(7));
}

TEST(EngineTest, BindThreadsValues) {
  CounterWorld W = makeCounterWorld(0);
  ProgRef P = Prog::bind(Prog::act(W.Incr, {}), "old",
                         Prog::ret(Expr::add(Expr::var("old"),
                                             Expr::litInt(100))));
  RunResult R = explore(P, counterState(5, 5), optsFor(W, false));
  EXPECT_TRUE(R.complete());
  ASSERT_EQ(R.Terminals.size(), 1u);
  EXPECT_EQ(R.Terminals[0].Result, Val::ofInt(105));
  EXPECT_EQ(R.Terminals[0].FinalView.joint(Ct).lookup(Cell).getInt(), 6);
}

TEST(EngineTest, IfSelectsBranch) {
  CounterWorld W = makeCounterWorld(0);
  ProgRef P = Prog::ifThenElse(Expr::litBool(false),
                               Prog::ret(Expr::litInt(1)),
                               Prog::ret(Expr::litInt(2)));
  RunResult R = explore(P, counterState(), optsFor(W, false));
  ASSERT_EQ(R.Terminals.size(), 1u);
  EXPECT_EQ(R.Terminals[0].Result, Val::ofInt(2));
}

TEST(EngineTest, RecursionWithTermination) {
  CounterWorld W = makeCounterWorld(0);
  // bump_until(n): v <-- incr; if n < v then ret v else bump_until(n).
  W.Defs.define(
      "bump_until",
      FuncDef{{"n"},
              Prog::bind(Prog::act(W.Incr, {}), "v",
                         Prog::ifThenElse(
                             Expr::lt(Expr::var("n"), Expr::var("v")),
                             Prog::ret(Expr::var("v")),
                             Prog::call("bump_until",
                                        {Expr::var("n")})))});
  RunResult R = explore(Prog::call("bump_until", {Expr::litInt(2)}),
                        counterState(), optsFor(W, false));
  EXPECT_TRUE(R.complete());
  ASSERT_EQ(R.Terminals.size(), 1u);
  EXPECT_EQ(R.Terminals[0].Result, Val::ofInt(3));
}

TEST(EngineTest, SpinLoopIsPrunedNotDiverging) {
  CounterWorld W = makeCounterWorld(/*EnvCap=*/1);
  // wait_pos(): v <-- read; if 0 < v then ret v else wait_pos().
  // Terminates only via environment interference; the pure spin cycles
  // are pruned by configuration dedup.
  W.Defs.define("wait_pos",
                FuncDef{{},
                        Prog::bind(
                            Prog::act(W.Read, {}), "v",
                            Prog::ifThenElse(
                                Expr::lt(Expr::litInt(0), Expr::var("v")),
                                Prog::ret(Expr::var("v")),
                                Prog::call("wait_pos", {})))});
  RunResult R = explore(Prog::call("wait_pos", {}), counterState(),
                        optsFor(W, true));
  EXPECT_TRUE(R.complete());
  ASSERT_EQ(R.Terminals.size(), 1u);
  EXPECT_EQ(R.Terminals[0].Result, Val::ofInt(1));
  EXPECT_GT(R.EnvSteps, 0u);
  EXPECT_GT(R.DedupHits, 0u);
}

TEST(EngineTest, ParallelIncrementsInterleave) {
  CounterWorld W = makeCounterWorld(0);
  ProgRef P = Prog::par(Prog::act(W.Incr, {}), Prog::act(W.Incr, {}));
  RunResult R = explore(P, counterState(), optsFor(W, false));
  EXPECT_TRUE(R.complete());
  // Both interleavings reach counter == 2; results differ in the pair of
  // observed old values: (0,1) and (1,0).
  ASSERT_EQ(R.Terminals.size(), 2u);
  for (const Terminal &T : R.Terminals) {
    EXPECT_EQ(T.FinalView.joint(Ct).lookup(Cell).getInt(), 2);
    EXPECT_EQ(T.FinalView.self(Ct).getNat(), 2u);
    EXPECT_TRUE(T.Result == Val::pair(Val::ofInt(0), Val::ofInt(1)) ||
                T.Result == Val::pair(Val::ofInt(1), Val::ofInt(0)));
  }
}

TEST(EngineTest, NestedParJoinsContributions) {
  CounterWorld W = makeCounterWorld(0);
  ProgRef Two = Prog::par(Prog::act(W.Incr, {}), Prog::act(W.Incr, {}));
  ProgRef Four = Prog::par(Two, Two);
  RunResult R = explore(Four, counterState(), optsFor(W, false));
  EXPECT_TRUE(R.complete());
  for (const Terminal &T : R.Terminals)
    EXPECT_EQ(T.FinalView.self(Ct).getNat(), 4u);
}

TEST(EngineTest, UnsafeActionReported) {
  CounterWorld W = makeCounterWorld(0);
  GlobalState Bad;
  Bad.addLabel(Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()), false);
  Bad.addLabel(Ct, PCMType::nat(), Heap(), PCMVal::ofNat(0), false);
  EngineOptions Opts = optsFor(W, false);
  Opts.CheckStepCoherence = false; // Reach the action itself.
  RunResult R = explore(Prog::act(W.Read, {}), Bad, Opts);
  EXPECT_FALSE(R.Safe);
  EXPECT_NE(R.FailureNote.find("read"), std::string::npos);
}

TEST(EngineTest, MaxConfigsExhaustion) {
  CounterWorld W = makeCounterWorld(0);
  W.Defs.define(
      "count_up",
      FuncDef{{},
              Prog::bind(Prog::act(W.Incr, {}), "v",
                         Prog::ifThenElse(
                             Expr::lt(Expr::litInt(1000), Expr::var("v")),
                             Prog::retUnit(),
                             Prog::call("count_up", {})))});
  EngineOptions Opts = optsFor(W, false);
  Opts.MaxConfigs = 50;
  RunResult R = explore(Prog::call("count_up", {}), counterState(), Opts);
  EXPECT_TRUE(R.Exhausted);
  EXPECT_FALSE(R.complete());
}

TEST(EngineTest, HideShieldsFromInterference) {
  // Without hide, env bumps make several terminal counter values; the
  // hidden version is deterministic.
  CounterWorld W = makeCounterWorld(/*EnvCap=*/2);
  ProgRef ReadTwice =
      Prog::bind(Prog::act(W.Read, {}), "a",
                 Prog::bind(Prog::act(W.Read, {}), "b",
                            Prog::ret(Expr::mkPair(Expr::var("a"),
                                                   Expr::var("b")))));
  RunResult Open =
      explore(ReadTwice, counterState(), optsFor(W, true));
  EXPECT_TRUE(Open.complete());
  EXPECT_GT(Open.Terminals.size(), 1u);
}

TEST(EngineTest, HideInstallsAndUninstalls) {
  CounterWorld W = makeCounterWorld(0);
  // The private heap holds the counter cell; hide installs the Counter
  // concurroid over it, the body increments twice, and on exit the cell
  // returns to the private heap with the new value.
  HideSpec Spec;
  Spec.Pv = Pv;
  Spec.Hidden = Ct;
  Spec.SelfType = PCMType::nat();
  Spec.ChooseDonation = [](const Heap &Mine) -> std::optional<Heap> {
    const Val *V = Mine.tryLookup(Cell);
    if (!V || !V->isInt())
      return std::nullopt;
    return Heap::singleton(Cell, *V);
  };
  Spec.InitSelf = PCMVal::ofNat(0);

  ProgRef Body = Prog::seq(Prog::act(W.Incr, {}), Prog::act(W.Incr, {}));
  ProgRef P = Prog::hide(Spec, Body);

  GlobalState GS;
  GS.addLabel(Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()), false);
  GS.setSelf(Pv, rootThread(),
             PCMVal::ofHeap(Heap::singleton(Cell, Val::ofInt(0))));

  EngineOptions Opts;
  Opts.Ambient = makePriv(Pv);
  Opts.EnvInterference = true;
  Opts.Defs = &W.Defs;
  RunResult R = explore(P, GS, Opts);
  EXPECT_TRUE(R.complete()) << R.FailureNote;
  ASSERT_EQ(R.Terminals.size(), 1u);
  const View &F = R.Terminals[0].FinalView;
  EXPECT_FALSE(F.hasLabel(Ct));
  EXPECT_EQ(F.self(Pv).getHeap().lookup(Cell).getInt(), 2);
}

TEST(EngineTest, HideDecorationFailureReported) {
  CounterWorld W = makeCounterWorld(0);
  HideSpec Spec;
  Spec.Pv = Pv;
  Spec.Hidden = Ct;
  Spec.SelfType = PCMType::nat();
  Spec.ChooseDonation =
      [](const Heap &) -> std::optional<Heap> { return std::nullopt; };
  Spec.InitSelf = PCMVal::ofNat(0);
  ProgRef P = Prog::hide(Spec, Prog::retUnit());

  GlobalState GS;
  GS.addLabel(Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()), false);
  EngineOptions Opts;
  Opts.Ambient = makePriv(Pv);
  Opts.Defs = &W.Defs;
  RunResult R = explore(P, GS, Opts);
  EXPECT_FALSE(R.Safe);
  EXPECT_NE(R.FailureNote.find("decoration"), std::string::npos);
}

TEST(EngineTest, EnvironmentStepsRespectOtherFixity) {
  CounterWorld W = makeCounterWorld(1);
  // A plain read under interference: my contribution never changes.
  RunResult R = explore(Prog::act(W.Read, {}), counterState(),
                        optsFor(W, true));
  EXPECT_TRUE(R.complete());
  for (const Terminal &T : R.Terminals)
    EXPECT_EQ(T.FinalView.self(Ct).getNat(), 0u);
}

//===----------------------------------------------------------------------===//
// The thread-step memo. A repeated (thread, context, global state) step is
// served from the exploration's memo instead of being re-run; the goldens
// below were captured from the engine before the memo existed, so a hit
// must reproduce exactly what a re-run would.
//===----------------------------------------------------------------------===//

namespace {

/// Serial, unreduced options: the memo's home ground, and a deterministic
/// (breadth-first) schedule for the failure trace.
EngineOptions memoOpts(const CounterWorld &W) {
  EngineOptions Opts = optsFor(W, false);
  Opts.Jobs = 1;
  Opts.Por = PorMode::Off;
  Opts.Symmetry = SymMode::Off;
  return Opts;
}

} // namespace

TEST(StepMemoTest, DoneOutcomesDependOnTheSibling) {
  CounterWorld W = makeCounterWorld(0);
  // Reads leave the global state alone, so once thread 3 has incremented,
  // thread 2 reaches each of its (context, state) pairs both while thread
  // 3 still runs and after it finished. Its first read is served from the memo the second time;
  // its last read finishes it, and only with thread 3 already done does
  // the parent join — that outcome must not be replayed from the memo.
  ProgRef Left = Prog::bind(Prog::act(W.Read, {}), "_",
                            Prog::act(W.Read, {}));
  ProgRef Right = Prog::bind(Prog::act(W.Incr, {}), "_",
                             Prog::act(W.Read, {}));
  RunResult R = explore(Prog::par(Left, Right), counterState(), memoOpts(W));
  ASSERT_TRUE(R.complete()) << R.FailureNote;
  EXPECT_EQ(R.ConfigsExplored, 11u);
  EXPECT_EQ(R.ActionSteps, 13u);
  EXPECT_EQ(R.DedupHits, 3u);
  EXPECT_EQ(R.Terminals.size(), 2u);
  EXPECT_GT(R.StepMemoHits, 0u);
}

TEST(StepMemoTest, ForkingStepServedFromTheMemo) {
  CounterWorld W = makeCounterWorld(0);
  // Thread 2's increment continues into a par, so its step forks threads
  // 4 and 5. Thread 3's reads keep the global state, so thread 2 takes
  // that step from the same context and state twice, and the second time
  // the forked threads come from the memo.
  ProgRef Left = Prog::bind(
      Prog::act(W.Incr, {}), "_",
      Prog::par(Prog::act(W.Read, {}),
                Prog::bind(Prog::act(W.Incr, {}), "_",
                           Prog::act(W.Read, {}))));
  ProgRef Right = Prog::bind(Prog::act(W.Read, {}), "_",
                             Prog::act(W.Read, {}));
  EngineOptions Opts = memoOpts(W);
  RunResult R = explore(Prog::par(Left, Right), counterState(), Opts);
  ASSERT_TRUE(R.complete()) << R.FailureNote;
  EXPECT_EQ(R.ConfigsExplored, 41u);
  EXPECT_EQ(R.ActionSteps, 58u);
  EXPECT_EQ(R.EnvSteps, 0u);
  EXPECT_EQ(R.DedupHits, 18u);
  EXPECT_EQ(R.Terminals.size(), 6u);
  EXPECT_GT(R.StepMemoHits, 0u);
  EXPECT_GT(R.StepMemoEntries, 0u);
  // Every job count reproduces the counters, memo or not.
  Opts.Jobs = 4;
  EXPECT_EQ(explore(Prog::par(Left, Right), counterState(), Opts).counters(),
            R.counters());
}

TEST(StepMemoTest, FailureTraceAfterMemoHits) {
  CounterWorld W = makeCounterWorld(0);
  // boom is unsafe once the counter reads 2.
  ActionRef Boom = makeAction(
      "boom", W.C, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        const Val *V = Pre.joint(Ct).tryLookup(Cell);
        if (!V || V->getInt() == 2)
          return std::nullopt;
        return std::vector<ActOutcome>{{*V, Pre}};
      });
  ProgRef Left = Prog::bind(
      Prog::act(W.Read, {}), "_",
      Prog::bind(Prog::act(W.Incr, {}), "_", Prog::act(W.Incr, {})));
  ProgRef Right = Prog::bind(
      Prog::act(W.Read, {}), "_",
      Prog::bind(Prog::act(W.Read, {}), "_", Prog::act(Boom, {})));
  RunResult R = explore(Prog::par(Left, Right), counterState(), memoOpts(W));
  EXPECT_FALSE(R.Safe);
  EXPECT_GT(R.StepMemoHits, 0u);
  EXPECT_EQ(R.FailureNote,
            "action boom is unsafe in the reached state (thread 3):\n"
            "1 ->> [{} | {} | {}]\n"
            "2 ->> [0 | {&1 :-> 2} | 2]\n");
  EXPECT_EQ(R.renderTrace(), "   1. thread 2: read() -> 0\n"
                             "   2. thread 2: incr() -> 0\n"
                             "   3. thread 2: incr() -> 1\n"
                             "   4. thread 3: read() -> 2\n"
                             "   5. thread 3: read() -> 2\n"
                             "   6. thread 3: boom()  <-- UNSAFE\n");
}

//===----------------------------------------------------------------------===//
// The env rows. Plain expansion serves the env steps out of a global state
// it has already expanded from the exploration's row for that state; the
// goldens below were captured from the engine before the rows existed.
//===----------------------------------------------------------------------===//

namespace {

/// Reads leave the global state alone, so the env steps out of one state
/// are taken from many configurations.
ProgRef readersUnderBumps(const CounterWorld &W) {
  return Prog::par(
      Prog::bind(Prog::act(W.Read, {}), "_", Prog::act(W.Read, {})),
      Prog::bind(Prog::act(W.Read, {}), "_", Prog::act(W.Incr, {})));
}

} // namespace

TEST(EnvRowTest, RepeatedStatesServedFromTheirRows) {
  CounterWorld W = makeCounterWorld(/*EnvCap=*/2);
  EngineOptions Opts = memoOpts(W);
  Opts.EnvInterference = true;
  for (unsigned Jobs : {1u, 4u}) {
    Opts.Jobs = Jobs;
    RunResult R = explore(readersUnderBumps(W), counterState(), Opts);
    ASSERT_TRUE(R.complete()) << R.FailureNote;
    EXPECT_EQ(R.ConfigsExplored, 42u) << "jobs=" << Jobs;
    EXPECT_EQ(R.ActionSteps, 44u) << "jobs=" << Jobs;
    EXPECT_EQ(R.EnvSteps, 16u) << "jobs=" << Jobs;
    EXPECT_EQ(R.DedupHits, 19u) << "jobs=" << Jobs;
    EXPECT_EQ(R.Terminals.size(), 10u) << "jobs=" << Jobs;
    // One row per distinct global state of an expanded non-terminal
    // configuration, whatever the schedule; hits may vary at Jobs > 1.
    EXPECT_EQ(R.EnvRowEntries, 6u) << "jobs=" << Jobs;
    if (Jobs == 1) {
      EXPECT_GT(R.EnvRowHits, 0u);
    }
  }
}

TEST(EnvRowTest, FailureTraceThroughRowHits) {
  CounterWorld W = makeCounterWorld(/*EnvCap=*/2);
  // boom is unsafe once the counter reads 2. Thread 2's read keeps the
  // state, so both bumps on the breadth-first witness start from states
  // an ancestor already expanded: they come from rows.
  ActionRef Boom = makeAction(
      "boom", W.C, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        const Val *V = Pre.joint(Ct).tryLookup(Cell);
        if (!V || V->getInt() == 2)
          return std::nullopt;
        return std::vector<ActOutcome>{{*V, Pre}};
      });
  ProgRef P = Prog::par(
      Prog::bind(Prog::act(W.Read, {}), "_", Prog::act(Boom, {})),
      Prog::act(W.Read, {}));
  EngineOptions Opts = memoOpts(W);
  Opts.EnvInterference = true;
  RunResult R = explore(P, counterState(), Opts);
  EXPECT_FALSE(R.Safe);
  EXPECT_GT(R.EnvRowHits, 0u);
  EXPECT_EQ(R.FailureNote,
            "action boom is unsafe in the reached state (thread 2):\n"
            "1 ->> [{} | {} | {}]\n"
            "2 ->> [0 | {&1 :-> 2} | 2]\n");
  EXPECT_EQ(R.renderTrace(), "   1. thread 2: read() -> 0\n"
                             "   2. env: bump\n"
                             "   3. env: bump\n"
                             "   4. thread 2: boom()  <-- UNSAFE\n");
}

//===----------------------------------------------------------------------===//
// The administrative cascade after a step: joins that climb several
// ancestors, and a hide inside one par branch. The counters were captured
// from the engine that rescanned every thread to a fixpoint after each
// step.
//===----------------------------------------------------------------------===//

namespace {

/// Whether \p A and \p B reached the same terminals.
bool sameTerminalSets(const RunResult &A, const RunResult &B) {
  return std::equal(A.Terminals.begin(), A.Terminals.end(),
                    B.Terminals.begin(), B.Terminals.end(),
                    [](const Terminal &X, const Terminal &Y) {
                      return !(X < Y) && !(Y < X);
                    });
}

} // namespace

TEST(NormalizeTest, OneCompletionJoinsThreeAncestors) {
  // par(par(par(incr, incr), incr), incr) under env bumps. On schedules
  // where thread 8 finishes last, the cascade of its one step joins
  // threads 4, 2 and 1 in turn, and the root is done.
  CounterWorld W = makeCounterWorld(/*EnvCap=*/2);
  ProgRef I = Prog::act(W.Incr, {});
  ProgRef P = Prog::par(Prog::par(Prog::par(I, I), I), I);
  EngineOptions Opts = memoOpts(W);
  Opts.EnvInterference = true;
  RunResult R = explore(P, counterState(), Opts);
  ASSERT_TRUE(R.complete()) << R.FailureNote;
  EXPECT_EQ(R.ConfigsExplored, 259u);
  EXPECT_EQ(R.ActionSteps, 252u);
  EXPECT_EQ(R.EnvSteps, 6u);
  EXPECT_EQ(R.DedupHits, 0u);
  EXPECT_EQ(R.Terminals.size(), 96u);
  for (const Terminal &T : R.Terminals)
    EXPECT_EQ(T.FinalView.self(Ct).getNat(), 4u);
  Opts.Jobs = 4;
  RunResult Par = explore(P, counterState(), Opts);
  EXPECT_EQ(Par.counters(), R.counters());
  EXPECT_TRUE(sameTerminalSets(Par, R));
}

TEST(NormalizeTest, HideInsideOneParBranch) {
  // The left branch hides its share of the private heap behind the
  // counter and increments twice; the right branch allocates, writes and
  // reads a private cell. The hidden label comes and goes while the right
  // branch runs, so the right branch's views gain and lose it.
  CounterWorld W = makeCounterWorld(0);
  ConcurroidRef PrivC = makePriv(Pv);
  ActionRef Alloc = makePrivAlloc(PrivC, Pv);
  ActionRef Write = makePrivWrite(PrivC, Pv);
  ActionRef ReadP = makePrivRead(PrivC, Pv);
  HideSpec Spec;
  Spec.Pv = Pv;
  Spec.Hidden = Ct;
  Spec.SelfType = PCMType::nat();
  Spec.ChooseDonation = [](const Heap &Mine) -> std::optional<Heap> {
    const Val *V = Mine.tryLookup(Cell);
    if (!V || !V->isInt())
      return std::nullopt;
    return Heap::singleton(Cell, *V);
  };
  Spec.InitSelf = PCMVal::ofNat(0);
  ProgRef Left = Prog::hide(
      Spec, Prog::seq(Prog::act(W.Incr, {}), Prog::act(W.Incr, {})));
  ProgRef Right = Prog::bind(
      Prog::act(Alloc, {Expr::litInt(5)}), "p",
      Prog::seq(Prog::act(Write, {Expr::var("p"), Expr::litInt(7)}),
                Prog::act(ReadP, {Expr::var("p")})));
  // The left child takes the whole private heap (the counter cell).
  ProgRef P = Prog::par(Left, Right);

  GlobalState GS;
  GS.addLabel(Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()), false);
  GS.setSelf(Pv, rootThread(),
             PCMVal::ofHeap(Heap::singleton(Cell, Val::ofInt(0))));
  EngineOptions Opts;
  Opts.Ambient = PrivC;
  Opts.EnvInterference = true;
  Opts.Defs = &W.Defs;
  Opts.Jobs = 1;
  Opts.Por = PorMode::Off;
  Opts.Symmetry = SymMode::Off;
  RunResult R = explore(P, GS, Opts);
  ASSERT_TRUE(R.complete()) << R.FailureNote;
  EXPECT_EQ(R.ConfigsExplored, 12u);
  EXPECT_EQ(R.ActionSteps, 17u);
  EXPECT_EQ(R.EnvSteps, 0u);
  EXPECT_EQ(R.DedupHits, 6u);
  ASSERT_EQ(R.Terminals.size(), 1u);
  for (const Terminal &T : R.Terminals) {
    EXPECT_FALSE(T.FinalView.hasLabel(Ct));
    EXPECT_EQ(T.FinalView.self(Pv).getHeap().lookup(Cell).getInt(), 2);
    EXPECT_EQ(T.Result.toString(), "(1, 7)");
  }
  Opts.Jobs = 4;
  RunResult Par = explore(P, GS, Opts);
  EXPECT_EQ(Par.counters(), R.counters());
  EXPECT_TRUE(sameTerminalSets(Par, R));
}

TEST(EngineTest, IncoherentSeedFailsTheRun) {
  // The seed lacks the counter cell, so the counter's coherence fails
  // before any step. The first thread step is safe and the per-step check
  // is off, so a run that went on would read the env row of the seed,
  // whose bump transition reads the missing cell.
  CounterWorld W = makeCounterWorld(/*EnvCap=*/1);
  ActionRef Nop = makeAction(
      "nop", W.C, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        return std::vector<ActOutcome>{{Val::unit(), Pre}};
      });
  GlobalState Bad;
  Bad.addLabel(Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()), false);
  Bad.addLabel(Ct, PCMType::nat(), Heap(), PCMVal::ofNat(0), false);
  EngineOptions Opts = memoOpts(W);
  Opts.EnvInterference = true;
  Opts.CheckStepCoherence = false;
  const std::string Note =
      "the initial state is not coherent under " + W.C->name();
  for (unsigned Jobs : {1u, 4u}) {
    Opts.Jobs = Jobs;
    RunResult R = explore(Prog::act(Nop, {}), Bad, Opts);
    EXPECT_FALSE(R.Safe) << "jobs=" << Jobs;
    EXPECT_EQ(R.FailureNote, Note) << "jobs=" << Jobs;
  }
  SimResult Sim = simulate(Prog::act(Nop, {}), Bad, Opts, /*Seed=*/3,
                           /*MaxSteps=*/10);
  EXPECT_FALSE(Sim.Safe);
  EXPECT_EQ(Sim.FailureNote, Note);
}

//===----------------------------------------------------------------------===//
// Mode spellings and their resolution.
//===----------------------------------------------------------------------===//

TEST(EngineModeTest, PorSpellingsRoundTrip) {
  for (PorMode M : {PorMode::Off, PorMode::On, PorMode::Dynamic,
                    PorMode::Check, PorMode::CheckDynamic}) {
    PorMode Parsed = PorMode::Default;
    ASSERT_TRUE(parsePorMode(porModeName(M), Parsed)) << porModeName(M);
    EXPECT_EQ(Parsed, M);
  }
  PorMode Alias = PorMode::Off;
  EXPECT_TRUE(parsePorMode("1", Alias));
  EXPECT_EQ(Alias, PorMode::On);
  EXPECT_STREQ(porModeName(PorMode::Default), "default");
}

TEST(EngineModeTest, SymSpellingsRoundTrip) {
  for (SymMode M : {SymMode::Off, SymMode::On, SymMode::Check}) {
    SymMode Parsed = SymMode::Default;
    ASSERT_TRUE(parseSymMode(symModeName(M), Parsed)) << symModeName(M);
    EXPECT_EQ(Parsed, M);
  }
  SymMode Alias = SymMode::Off;
  EXPECT_TRUE(parseSymMode("1", Alias));
  EXPECT_EQ(Alias, SymMode::On);
  EXPECT_STREQ(symModeName(SymMode::Default), "default");
}

TEST(EngineModeTest, EnumValuesAreTheDaemonModeBytes) {
  // fcsl-client sends these values on the wire and the obligation cache
  // fingerprints them: they must never be renumbered.
  EXPECT_EQ(static_cast<int>(PorMode::Default), 0);
  EXPECT_EQ(static_cast<int>(PorMode::Off), 1);
  EXPECT_EQ(static_cast<int>(PorMode::On), 2);
  EXPECT_EQ(static_cast<int>(PorMode::Dynamic), 3);
  EXPECT_EQ(static_cast<int>(PorMode::Check), 4);
  EXPECT_EQ(static_cast<int>(PorMode::CheckDynamic), 5);
  EXPECT_EQ(static_cast<int>(SymMode::Default), 0);
  EXPECT_EQ(static_cast<int>(SymMode::Off), 1);
  EXPECT_EQ(static_cast<int>(SymMode::On), 2);
  EXPECT_EQ(static_cast<int>(SymMode::Check), 3);
}

TEST(EngineModeTest, TyposAreRejectedAndLeaveTheOutputAlone) {
  for (const char *Bad : {"", "dynamc", "ON", "check_dynamic", "checkdynamic",
                          "default", "2", "off ", "check-dynamicx"}) {
    PorMode Por = PorMode::Dynamic;
    EXPECT_FALSE(parsePorMode(Bad, Por)) << "'" << Bad << "'";
    EXPECT_EQ(Por, PorMode::Dynamic) << "'" << Bad << "'";
  }
  for (const char *Bad : {"", "chek", "dynamic", "default", "Off"}) {
    SymMode Sym = SymMode::Check;
    EXPECT_FALSE(parseSymMode(Bad, Sym)) << "'" << Bad << "'";
    EXPECT_EQ(Sym, SymMode::Check) << "'" << Bad << "'";
  }
  PorMode Por = PorMode::On;
  SymMode Sym = SymMode::On;
  EXPECT_FALSE(parsePorMode(nullptr, Por));
  EXPECT_FALSE(parseSymMode(nullptr, Sym));
}

TEST(EngineModeTest, ResolveFoldsCheckModesIntoTheOracle) {
  struct Row {
    PorMode Por;
    SymMode Sym;
    PorMode WantPor;
    SymMode WantSym;
    bool WantOracle;
  };
  const Row Rows[] = {
      {PorMode::Off, SymMode::Off, PorMode::Off, SymMode::Off, false},
      {PorMode::Dynamic, SymMode::On, PorMode::On, SymMode::On, false},
      {PorMode::Check, SymMode::Off, PorMode::On, SymMode::Off, true},
      {PorMode::CheckDynamic, SymMode::On, PorMode::On, SymMode::On, true},
      {PorMode::On, SymMode::Check, PorMode::On, SymMode::On, true},
      {PorMode::CheckDynamic, SymMode::Check, PorMode::On, SymMode::On,
       true},
  };
  for (const Row &R : Rows) {
    ReductionModes M = resolveModes(R.Por, R.Sym);
    EXPECT_EQ(M.Por, R.WantPor) << porModeName(R.Por);
    EXPECT_EQ(M.Sym, R.WantSym) << symModeName(R.Sym);
    EXPECT_EQ(M.Oracle, R.WantOracle)
        << porModeName(R.Por) << "/" << symModeName(R.Sym);
  }
  // Default resolves to the process default.
  setDefaultPorMode(PorMode::CheckDynamic);
  ReductionModes M = resolveModes(PorMode::Default, SymMode::Off);
  setDefaultPorMode(PorMode::Off);
  EXPECT_EQ(M.Por, PorMode::On);
  EXPECT_TRUE(M.Oracle);
}
