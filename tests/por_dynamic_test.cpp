//===- tests/por_dynamic_test.cpp - The dynamic POR spellings --------------===//
//
// Part of fcsl-cpp. `--por=dynamic` and `--por=check-dynamic` are
// spellings of `on` and `check` (the dynamic ample licence is retired,
// DESIGN.md §12). Pins the alias, and the static reduction: its counters
// and env rows on an open-world spanning tree, the decline where no ample
// set can form (ticker worlds without a local action, eight Table-1
// sessions), the trailing-env terminals of a ticker world that keeps POR,
// wakeup replays from woken sleep entries (flat combiner behind a local
// step) and from a close-mask union (a two-route world),
// a pair snapshot that must never exceed the full state space,
// bit-identity across job counts, the check-dynamic oracle over every
// Table-1 session, composition with symmetry, and the reduced corpus.
//
//===----------------------------------------------------------------------===//

#include "action/AtomicAction.h"
#include "concurroid/Concurroid.h"
#include "prog/Engine.h"
#include "structures/FlatCombiner.h"
#include "structures/PairSnapshot.h"
#include "structures/SpanTree.h"
#include "structures/Suite.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <set>
#include <string>

using namespace fcsl;

namespace {

constexpr Label Pv = 1;
constexpr Label Sp = 2;
constexpr Label Rp = 3;
constexpr Label Fc = 4;

bool sameTerminals(const RunResult &A, const RunResult &B) {
  if (A.Terminals.size() != B.Terminals.size())
    return false;
  for (size_t I = 0; I != A.Terminals.size(); ++I)
    if (A.Terminals[I] < B.Terminals[I] || B.Terminals[I] < A.Terminals[I])
      return false;
  return true;
}

// A spanning-tree exploration. Its actions include statically local
// moves, so POR keeps its reduction.
struct SpanSetup {
  SpanTreeCase Case;
  ProgRef Main;
  GlobalState Initial;
  EngineOptions Opts;
};

/// 1 -> (2, 3); 2 -> 4; 3 -> 4; 4 -> (5, 6); ... a chain of diamonds.
Heap diamondOf(unsigned Layers) {
  std::vector<GraphNode> Nodes;
  uint32_t Id = 1;
  for (unsigned L = 0; L < Layers; ++L) {
    Nodes.push_back(GraphNode{Ptr(Id), Ptr(Id + 1), Ptr(Id + 2)});
    Nodes.push_back(GraphNode{Ptr(Id + 1), Ptr(Id + 3), Ptr::null()});
    Nodes.push_back(GraphNode{Ptr(Id + 2), Ptr(Id + 3), Ptr::null()});
    Id += 3;
  }
  Nodes.push_back(GraphNode{Ptr(Id), Ptr::null(), Ptr::null()});
  return buildGraph(Nodes);
}

/// span_root(1) on the two-layer diamond, closed world: bench_statespace's
/// span-diamond-2, 1,475 configs plain and 391 under POR.
SpanSetup makeSpanDiamond2() {
  SpanSetup S{makeSpanTreeCase(Pv, Sp), nullptr, {}, {}};
  S.Main = makeSpanRootProg(S.Case, Ptr(1));
  S.Initial = spanRootState(S.Case, diamondOf(2));
  S.Opts.Ambient = S.Case.PrivOnly;
  S.Opts.EnvInterference = false;
  S.Opts.Defs = &S.Case.Defs;
  S.Opts.Jobs = 1;
  return S;
}

/// span(1) on the one-layer diamond, open world: the environment marks
/// and nullifies too, so the reduced expansion reads env rows.
SpanSetup makeSpanOpenDiamond1() {
  SpanSetup S{makeSpanTreeCase(Pv, Sp), nullptr, {}, {}};
  S.Main = Prog::call("span", {Expr::litPtr(Ptr(1))});
  S.Initial = spanOpenState(S.Case, diamondOf(1), {});
  S.Opts.Ambient = S.Case.Open;
  S.Opts.EnvInterference = true;
  S.Opts.Defs = &S.Case.Defs;
  S.Opts.Jobs = 1;
  return S;
}

// The flat-combiner Table 1 session's exploration: one thread runs
// flat_combine(push 4) on its own slot while the environment publishes,
// combines, and collects on the other, capped at 4 history entries. No
// flat-combiner step is statically a local move, so POR declines.
//
// With \p NoteFirst the thread first takes a "note" step that reads and
// rewrites its own contribution unchanged. That step is statically a
// local move, so POR keeps its reduction: the note runs alone at the root,
// and every later expansion is a full one with sleep sets, where the
// combiner's steps go to sleep and wake again (wakeup replays).
struct FcSetup {
  FlatCombinerCase Case;
  ProgRef Main;
  GlobalState Initial;
  EngineOptions Opts;
};

FcSetup makeFcSetup(bool NoteFirst = false) {
  FcSetup S{makeFlatCombinerCase(Fc, /*EnvHistCap=*/4), nullptr, {}, {}};
  S.Main = Prog::call("flat_combine",
                      {Expr::litPtr(S.Case.Slot1), Expr::litInt(FcPush),
                       Expr::litInt(4)});
  if (NoteFirst) {
    ActionRef Note = makeAction(
        "note", S.Case.C, 0,
        [](const View &Pre, const std::vector<Val> &)
            -> std::optional<std::vector<ActOutcome>> {
          return std::vector<ActOutcome>{{Val::unit(), Pre}};
        },
        Footprint::none().readWrite(FpAtom::selfAux(Fc)));
    S.Main = Prog::bind(Prog::act(Note, {}), "_", S.Main);
  }
  S.Initial = flatCombinerState(S.Case, 1);
  S.Opts.Ambient = S.Case.C;
  S.Opts.EnvInterference = true;
  S.Opts.Defs = &S.Case.Defs;
  S.Opts.Jobs = 1;
  return S;
}

// A ticker world: the environment steps a counter in cell 1 through
// 0..Period-1 (tick, plus a reset to 0) while the program bumps cell 2
// twice. Statically the two clash (tick may write any cell), so no bump
// is an ample singleton. Without a local action POR declines; with one
// (a first step on the thread's own contribution) it keeps its reduction,
// and every later expansion is a full one with sleep sets.
constexpr Label Tk = 5;

struct TickerWorld {
  ProgRef Main;
  GlobalState Initial;
  EngineOptions Opts;
};

View withCell(const View &Pre, Ptr P, int64_t V) {
  View Post = Pre;
  Heap Joint = Pre.joint(Tk);
  Joint.update(P, Val::ofInt(V));
  Post.setJoint(Tk, std::move(Joint));
  return Post;
}

/// With \p WildAtOne a second env transition "wild" is enabled whenever
/// cell 1 reads 1, so that state's env row holds two transitions' runs.
/// It resets the cell, or, with \p WildIncoherent, drops cell 2, so its
/// only post is incoherent and its run is empty. With \p LocalFirst the
/// program first bumps its own contribution at the label, a step no
/// other agent's can touch.
TickerWorld makeTickerWorld(int64_t Period, bool WildAtOne,
                            bool WildIncoherent = false,
                            bool LocalFirst = false) {
  auto Coh = [](const View &S) {
    return S.hasLabel(Tk) && S.joint(Tk).contains(Ptr(1)) &&
           S.joint(Tk).contains(Ptr(2));
  };
  auto C = makeConcurroid("Ticker", {OwnedLabel{Tk, "tk", PCMType::nat()}},
                          Coh);
  Footprint AnyCell = Footprint::none().readWrite(FpAtom::joint(Tk));
  C->addTransition(
      Transition("tick", TransitionKind::Internal,
                 [Period](const View &Pre) {
                   int64_t V = Pre.joint(Tk).lookup(Ptr(1)).getInt();
                   std::vector<View> Posts;
                   if (V + 1 < Period)
                     Posts.push_back(withCell(Pre, Ptr(1), V + 1));
                   if (V != 0)
                     Posts.push_back(withCell(Pre, Ptr(1), 0));
                   return Posts;
                 })
          .withFootprint(AnyCell));
  if (WildAtOne)
    C->addTransition(
        Transition("wild", TransitionKind::Internal,
                   [WildIncoherent](const View &Pre) {
                     std::vector<View> Posts;
                     if (Pre.joint(Tk).lookup(Ptr(1)).getInt() != 1)
                       return Posts;
                     if (!WildIncoherent) {
                       Posts.push_back(withCell(Pre, Ptr(1), 0));
                       return Posts;
                     }
                     View Post = Pre;
                     Heap Joint = Pre.joint(Tk);
                     Joint.remove(Ptr(2));
                     Post.setJoint(Tk, std::move(Joint));
                     Posts.push_back(std::move(Post));
                     return Posts;
                   })
            .withFootprint(AnyCell));
  TickerWorld W;
  ActionRef Bump = makeAction(
      "bump2", C, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        Val Old = Pre.joint(Tk).lookup(Ptr(2));
        return std::vector<ActOutcome>{
            {Old, withCell(Pre, Ptr(2), Old.getInt() + 1)}};
      },
      Footprint::none().readWrite(FpAtom::jointCell(Tk, Ptr(2))));
  W.Main = Prog::bind(Prog::act(Bump, {}), "_", Prog::act(Bump, {}));
  if (LocalFirst) {
    ActionRef Note = makeAction(
        "note", C, 0,
        [](const View &Pre, const std::vector<Val> &)
            -> std::optional<std::vector<ActOutcome>> {
          View Post = Pre;
          Post.setSelf(Tk, PCMVal::ofNat(Pre.self(Tk).getNat() + 1));
          return std::vector<ActOutcome>{{Val::unit(), std::move(Post)}};
        },
        Footprint::none().readWrite(FpAtom::selfAux(Tk)));
    W.Main = Prog::bind(Prog::act(Note, {}), "_", W.Main);
  }
  Heap Joint = Heap::singleton(Ptr(1), Val::ofInt(0));
  Joint.insert(Ptr(2), Val::ofInt(0));
  W.Initial.addLabel(Tk, PCMType::nat(), std::move(Joint), PCMVal::ofNat(0),
                     false);
  W.Opts.Ambient = C;
  W.Opts.EnvInterference = true;
  W.Opts.Jobs = 1;
  W.Opts.Por = PorMode::On;
  return W;
}

// A two-route world (held in a TickerWorld): the environment sets cell 5
// ("flip") and cell 6 ("mark"), once each, while the program reads cell 5
// into x and then bumps cell 2, passing x along. Where it read 1 it first
// takes a "note" step that reads and rewrites its own contribution
// unchanged, a local move, so POR keeps its reduction. The bump's dynamic
// footprint is cell 2 when x is 1, and reads cell 6 as well otherwise. So a bump after a read of 0 licenses only the flip at
// its terminal, and a bump after a read of 1 licenses both. The terminal
// with cell 5 set is reached both ways: by the shorter route (read 0,
// bump, trailing flip) with the flip's bit alone, and by the longer one
// (flip, read 1, note, bump) with the mark's bit too. Breadth-first, the
// shorter route's terminal is expanded before the longer one arrives, so
// the union of the two masks wakes the mark there, and a replay fires it.
TickerWorld makeTwoRouteWorld() {
  auto Coh = [](const View &S) {
    if (!S.hasLabel(Tk))
      return false;
    const Heap &J = S.joint(Tk);
    return J.contains(Ptr(2)) && J.contains(Ptr(5)) && J.contains(Ptr(6));
  };
  auto C = makeConcurroid("TwoRoute", {OwnedLabel{Tk, "tk", PCMType::nat()}},
                          Coh);
  auto SetOnce = [](Ptr P) {
    return [P](const View &Pre) {
      std::vector<View> Posts;
      if (Pre.joint(Tk).lookup(P).getInt() == 0)
        Posts.push_back(withCell(Pre, P, 1));
      return Posts;
    };
  };
  auto Cell = [](unsigned P) { return FpAtom::jointCell(Tk, Ptr(P)); };
  C->addTransition(
      Transition("flip", TransitionKind::Internal, SetOnce(Ptr(5)))
          .withFootprint(Footprint::none().readWrite(Cell(5))));
  C->addTransition(
      Transition("mark", TransitionKind::Internal, SetOnce(Ptr(6)))
          .withFootprint(Footprint::none().readWrite(Cell(6))));
  ActionRef Read = makeAction(
      "read5", C, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        return std::vector<ActOutcome>{{Pre.joint(Tk).lookup(Ptr(5)), Pre}};
      },
      Footprint::none().read(Cell(5)));
  ActionRef Bump = makeAction(
      "bump2", C, 1,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        Val Old = Pre.joint(Tk).lookup(Ptr(2));
        return std::vector<ActOutcome>{
            {Old, withCell(Pre, Ptr(2), Old.getInt() + 1)}};
      },
      Footprint::none().readWrite(Cell(2)).read(Cell(6)),
      [Cell](const View &, const std::vector<Val> &Args) {
        Footprint Fp = Footprint::none().readWrite(Cell(2));
        if (Args[0].getInt() != 1)
          Fp.read(Cell(6));
        return Fp;
      });
  ActionRef Note = makeAction(
      "note", C, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        return std::vector<ActOutcome>{{Val::unit(), Pre}};
      },
      Footprint::none().readWrite(FpAtom::selfAux(Tk)));
  ProgRef BumpX = Prog::act(Bump, {Expr::var("x")});
  TickerWorld W;
  W.Main = Prog::bind(
      Prog::act(Read, {}), "x",
      Prog::ifThenElse(Expr::eq(Expr::var("x"), Expr::litInt(1)),
                       Prog::bind(Prog::act(Note, {}), "_", BumpX), BumpX));
  Heap Joint = Heap::singleton(Ptr(2), Val::ofInt(0));
  Joint.insert(Ptr(5), Val::ofInt(0));
  Joint.insert(Ptr(6), Val::ofInt(0));
  W.Initial.addLabel(Tk, PCMType::nat(), std::move(Joint), PCMVal::ofNat(0),
                     false);
  W.Opts.Ambient = C;
  W.Opts.EnvInterference = true;
  W.Opts.Jobs = 1;
  W.Opts.Por = PorMode::On;
  return W;
}

// The exact work counters of one run, with the POR counters it added.
struct PinnedCounts {
  uint64_t Configs, ActionSteps, EnvSteps, DedupHits;
  uint64_t FullExpansions, SleepHits, WakeupReplays;

  friend bool operator==(const PinnedCounts &A, const PinnedCounts &B) {
    return A.Configs == B.Configs && A.ActionSteps == B.ActionSteps &&
           A.EnvSteps == B.EnvSteps && A.DedupHits == B.DedupHits &&
           A.FullExpansions == B.FullExpansions &&
           A.SleepHits == B.SleepHits && A.WakeupReplays == B.WakeupReplays;
  }
  friend std::ostream &operator<<(std::ostream &OS, const PinnedCounts &C) {
    return OS << "{" << C.Configs << ", " << C.ActionSteps << ", "
              << C.EnvSteps << ", " << C.DedupHits << ", "
              << C.FullExpansions << ", " << C.SleepHits << ", "
              << C.WakeupReplays << "}";
  }
};

PinnedCounts countsOf(const ProgRef &Main, const GlobalState &Initial,
                      const EngineOptions &Opts) {
  PorStats Before = porStats();
  RunResult R = explore(Main, Initial, Opts);
  PorStats After = porStats();
  EXPECT_TRUE(R.complete()) << R.FailureNote;
  return {R.ConfigsExplored,
          R.ActionSteps,
          R.EnvSteps,
          R.DedupHits,
          After.FullExpansions - Before.FullExpansions,
          After.SleepHits - Before.SleepHits,
          After.WakeupReplays - Before.WakeupReplays};
}

// Restores the process-default POR mode on scope exit (tests in this
// binary flip it to exercise session-level defaults).
struct PorDefaultGuard {
  ~PorDefaultGuard() { setDefaultPorMode(PorMode::Default); }
};

} // namespace

//===----------------------------------------------------------------------===//
// The alias: dynamic spells on, check-dynamic spells check.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, DynamicIsASpellingOfOn) {
  PorMode Dyn = PorMode::Off, CheckDyn = PorMode::Off;
  ASSERT_TRUE(parsePorMode("dynamic", Dyn));
  ASSERT_TRUE(parsePorMode("check-dynamic", CheckDyn));
  ReductionModes M = resolveModes(Dyn, SymMode::Off);
  EXPECT_EQ(M.Por, PorMode::On);
  EXPECT_FALSE(M.Oracle);
  M = resolveModes(CheckDyn, SymMode::Off);
  ReductionModes Check = resolveModes(PorMode::Check, SymMode::Off);
  EXPECT_EQ(M.Por, Check.Por);
  EXPECT_EQ(M.Oracle, Check.Oracle);
  EXPECT_TRUE(M.Oracle);

  // An exploration under the spelling is the exploration under On.
  SpanSetup S = makeSpanDiamond2();
  S.Opts.Por = PorMode::On;
  RunResult On = explore(S.Main, S.Initial, S.Opts);
  S.Opts.Por = PorMode::Dynamic;
  RunResult Dynamic = explore(S.Main, S.Initial, S.Opts);
  ASSERT_TRUE(On.complete()) << On.FailureNote;
  EXPECT_EQ(Dynamic.Reduction.Por, PorMode::On);
  EXPECT_EQ(Dynamic.Safe, On.Safe);
  EXPECT_TRUE(sameTerminals(Dynamic, On));
  EXPECT_EQ(Dynamic.counters(), On.counters());
}

//===----------------------------------------------------------------------===//
// The reduction never explores more than the full state space.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, PairSnapshotNeverExceedsFull) {
  // Regression pin for the sleep-set identity bug: the reduced mode must
  // never *grow* the state space, even where no reduction exists.
  PairSnapCase Case = makePairSnapCase(Rp, /*EnvHistCap=*/2);
  EngineOptions Opts;
  Opts.Ambient = Case.C;
  Opts.EnvInterference = true;
  Opts.Defs = &Case.Defs;
  Opts.Jobs = 1;
  Opts.Por = PorMode::Off;
  RunResult Full = explore(Prog::call("readPair", {}), pairSnapState(Case),
                           Opts);
  ASSERT_TRUE(Full.complete()) << Full.FailureNote;
  Opts.Por = PorMode::On;
  RunResult Red = explore(Prog::call("readPair", {}), pairSnapState(Case),
                          Opts);
  ASSERT_TRUE(Red.complete()) << Red.FailureNote;
  EXPECT_TRUE(sameTerminals(Full, Red));
  EXPECT_LE(Red.ConfigsExplored, Full.ConfigsExplored);
}

//===----------------------------------------------------------------------===//
// Exact counters: the reduced expansion takes its env candidates from the
// env rows.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, ReducedExpansionReadsTheEnvRows) {
  // {configs, action steps, env steps, dedup hits, full expansions, sleep
  //  hits, wakeup replays} at Jobs = 1.
  SpanSetup S = makeSpanOpenDiamond1();
  S.Opts.Por = PorMode::On;
  const PinnedCounts Static{431, 339, 495, 404, 261, 33, 0};
  EXPECT_EQ(countsOf(S.Main, S.Initial, S.Opts), Static);
  RunResult R = explore(S.Main, S.Initial, S.Opts);
  EXPECT_FALSE(R.Reduction.PorDeclined);
  EXPECT_GT(R.EnvRowEntries, 0u);
  EXPECT_GT(R.EnvRowHits, 0u);
}

//===----------------------------------------------------------------------===//
// The decline: where no reachable action is statically a local move, no
// ample set can form, and POR runs the plain engine.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, TickerWorldsWithoutALocalActionDecline) {
  // No bump is statically a local move, so each run declines POR and is
  // the plain engine, whatever its env transitions (an incoherent "wild"
  // never fires). Each keeps the plain engine's four terminals: cell 1 at
  // 0..3 when the second bump lands.
  const TickerWorld Worlds[] = {
      makeTickerWorld(/*Period=*/4, /*WildAtOne=*/false),
      makeTickerWorld(/*Period=*/4, /*WildAtOne=*/true),
      makeTickerWorld(/*Period=*/4, /*WildAtOne=*/true,
                      /*WildIncoherent=*/true)};
  const PinnedCounts Plain[] = {{12, 8, 12, 9, 0, 0, 0},
                                {12, 8, 14, 11, 0, 0, 0},
                                {12, 8, 12, 9, 0, 0, 0}};
  for (size_t I = 0; I != 3; ++I) {
    const TickerWorld &W = Worlds[I];
    PorStats Before = porStats();
    EXPECT_EQ(countsOf(W.Main, W.Initial, W.Opts), Plain[I]) << I;
    EXPECT_EQ(porStats().Declined - Before.Declined, 1u) << I;
    RunResult On = explore(W.Main, W.Initial, W.Opts);
    EngineOptions OffOpts = W.Opts;
    OffOpts.Por = PorMode::Off;
    RunResult Off = explore(W.Main, W.Initial, OffOpts);
    EXPECT_EQ(On.Reduction.Por, PorMode::On) << I;
    EXPECT_TRUE(On.Reduction.PorDeclined) << I;
    EXPECT_FALSE(Off.Reduction.PorDeclined) << I;
    EXPECT_EQ(Off.Terminals.size(), 4u) << I;
    EXPECT_TRUE(sameTerminals(On, Off)) << I;
    EXPECT_EQ(On.counters(), Off.counters()) << I;
  }
}

TEST(PorDynamicTest, LocalTickerWorldKeepsEveryTerminal) {
  // A first step on the thread's own contribution is a local move, so
  // POR keeps its reduction, and the bumps go to sleep across ticks. A
  // tick judges the sleeping bumps by its static footprint, as the close
  // mask judges it at a terminal, so all four plain terminals survive.
  // (Judged by a one-cell dynamic footprint of the tick, a bump stayed
  // asleep across it while no terminal licensed the tick after the last
  // bump, and only one terminal was left.) The wild worlds add a second
  // transition's run to the rows at counter 1, or an empty one.
  const TickerWorld Worlds[] = {
      makeTickerWorld(/*Period=*/4, /*WildAtOne=*/false,
                      /*WildIncoherent=*/false, /*LocalFirst=*/true),
      makeTickerWorld(/*Period=*/4, /*WildAtOne=*/true,
                      /*WildIncoherent=*/false, /*LocalFirst=*/true),
      makeTickerWorld(/*Period=*/4, /*WildAtOne=*/true,
                      /*WildIncoherent=*/true, /*LocalFirst=*/true)};
  const PinnedCounts Reduced[] = {{13, 9, 12, 9, 8, 0, 0},
                                  {13, 9, 14, 11, 8, 0, 0},
                                  {13, 9, 12, 9, 8, 0, 0}};
  for (size_t I = 0; I != 3; ++I) {
    TickerWorld W = Worlds[I];
    EXPECT_EQ(countsOf(W.Main, W.Initial, W.Opts), Reduced[I]) << I;
    RunResult On = explore(W.Main, W.Initial, W.Opts);
    EngineOptions OffOpts = W.Opts;
    OffOpts.Por = PorMode::Off;
    RunResult Off = explore(W.Main, W.Initial, OffOpts);
    ASSERT_TRUE(On.complete()) << On.FailureNote;
    EXPECT_FALSE(On.Reduction.PorDeclined) << I;
    EXPECT_EQ(Off.Terminals.size(), 4u) << I;
    EXPECT_TRUE(sameTerminals(On, Off)) << I;
    W.Opts.Por = PorMode::Check;
    RunResult Checked = explore(W.Main, W.Initial, W.Opts);
    EXPECT_TRUE(Checked.Safe) << Checked.FailureNote;
    EXPECT_FALSE(Checked.Reduction.Oracle.Mismatch) << I;
  }
}

TEST(PorDynamicTest, DeclinesWhereNoAmpleSetCanForm) {
  // Which Table-1 explorations decline: every one of all but three
  // sessions, and none of CG increment, CG allocator and Spanning tree,
  // whose explorations all reach a statically local action. The oracle
  // runs one reduced exploration per explore() call, so its run count is
  // the session's exploration count.
  const std::set<std::string> Keep = {"CG increment", "CG allocator",
                                      "Spanning tree"};
  uint64_t Declined = 0, Kept = 0;
  for (const CaseEntry &Case : allCaseStudies()) {
    OracleTotals O0 = oracleTotals();
    PorStats P0 = porStats();
    SessionReport Report = Case.MakeSession().run(
        {PorMode::Check, SymMode::Off, cache::CacheMode::Off}, /*Jobs=*/1);
    EXPECT_TRUE(Report.AllPassed) << Case.Name;
    uint64_t Runs = oracleTotals().Runs - O0.Runs;
    uint64_t D = porStats().Declined - P0.Declined;
    EXPECT_GT(Runs, 0u) << Case.Name;
    EXPECT_EQ(D, Keep.count(Case.Name) ? 0u : Runs) << Case.Name;
    (Keep.count(Case.Name) ? Kept : Declined) += Runs;
  }
  EXPECT_EQ(Declined, 22u);
  EXPECT_EQ(Kept, 25u);

  // A declined On run is the plain engine: same verdict, terminals and
  // work counters, at one job and at four.
  FcSetup S = makeFcSetup();
  for (unsigned Jobs : {1u, 4u}) {
    S.Opts.Jobs = Jobs;
    S.Opts.Por = PorMode::Off;
    RunResult Off = explore(S.Main, S.Initial, S.Opts);
    S.Opts.Por = PorMode::On;
    RunResult On = explore(S.Main, S.Initial, S.Opts);
    ASSERT_TRUE(Off.complete()) << Off.FailureNote;
    EXPECT_TRUE(On.Reduction.PorDeclined) << Jobs << " jobs";
    EXPECT_EQ(On.Safe, Off.Safe) << Jobs << " jobs";
    EXPECT_TRUE(sameTerminals(On, Off)) << Jobs << " jobs";
    EXPECT_EQ(On.counters(), Off.counters()) << Jobs << " jobs";
  }
}

//===----------------------------------------------------------------------===//
// Wakeup replays: a revisit that shrinks a node's sleep set re-expands it.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, FlatCombinerBehindALocalStepReplaysWakeups) {
  // The combiner's steps go to sleep along one route and are woken by a
  // later arrival along another, so the reduced run replays expansions.
  // Replays re-execute steps already counted, so the work counters must
  // still count each step once: they are pinned at one job, and at four
  // they must match. Verdict and terminals match the plain engine's; the
  // plain run explores more, because it also interleaves the environment
  // before the note.
  FcSetup S = makeFcSetup(/*NoteFirst=*/true);
  S.Opts.Por = PorMode::On;
  const PinnedCounts Reduced{2521, 1774, 3630, 2884, 3131, 936, 611};
  EXPECT_EQ(countsOf(S.Main, S.Initial, S.Opts), Reduced);
  S.Opts.Por = PorMode::Off;
  RunResult Plain = explore(S.Main, S.Initial, S.Opts);
  ASSERT_TRUE(Plain.complete()) << Plain.FailureNote;
  EXPECT_EQ(Plain.ConfigsExplored, 2702u);
  std::optional<EngineCounters> Serial;
  for (unsigned Jobs : {1u, 4u}) {
    S.Opts.Jobs = Jobs;
    S.Opts.Por = PorMode::On;
    PorStats Before = porStats();
    RunResult On = explore(S.Main, S.Initial, S.Opts);
    PorStats After = porStats();
    ASSERT_TRUE(On.complete()) << On.FailureNote;
    EXPECT_FALSE(On.Reduction.PorDeclined) << Jobs << " jobs";
    EXPECT_GT(After.WakeupReplays - Before.WakeupReplays, 0u)
        << Jobs << " jobs";
    EXPECT_EQ(On.Safe, Plain.Safe) << Jobs << " jobs";
    EXPECT_TRUE(sameTerminals(On, Plain)) << Jobs << " jobs";
    EXPECT_EQ(On.ConfigsExplored, Reduced.Configs) << Jobs << " jobs";
    if (!Serial)
      Serial = On.counters();
    EXPECT_EQ(On.counters(), *Serial) << Jobs << " jobs";
    S.Opts.Por = PorMode::Check;
    RunResult Checked = explore(S.Main, S.Initial, S.Opts);
    EXPECT_TRUE(Checked.Safe) << Checked.FailureNote;
    EXPECT_TRUE(Checked.Reduction.Oracle.Ran) << Jobs << " jobs";
    EXPECT_FALSE(Checked.Reduction.Oracle.Mismatch) << Jobs << " jobs";
    EXPECT_EQ(Checked.Reduction.Oracle.ReducedConfigs, Reduced.Configs)
        << Jobs << " jobs";
  }
}

TEST(PorDynamicTest, ReplayCountersRepeatAtFourJobs) {
  // At several workers a wakeup replay can run while the node's first
  // expansion is still going, and a re-executed step can then insert a
  // successor before the step's first execution does. The work counters
  // must not depend on which arrives first: every one of many 4-job runs
  // matches the serial run.
  FcSetup S = makeFcSetup(/*NoteFirst=*/true);
  S.Opts.Por = PorMode::On;
  S.Opts.Jobs = 1;
  RunResult Serial = explore(S.Main, S.Initial, S.Opts);
  ASSERT_TRUE(Serial.complete()) << Serial.FailureNote;
  S.Opts.Jobs = 4;
  for (int Run = 0; Run != 40; ++Run) {
    RunResult On = explore(S.Main, S.Initial, S.Opts);
    ASSERT_TRUE(On.complete()) << On.FailureNote;
    EXPECT_EQ(On.counters(), Serial.counters()) << "run " << Run;
  }
}

TEST(PorDynamicTest, CloseMasksUnionAcrossRoutes) {
  // The terminal with cell 5 set is reached first with the flip's mask
  // alone, then with the mark's bit too: the merge wakes the mark there,
  // and the replay fires it. The plain engine's terminals survive, and
  // the work counters count each step once at one job and at four.
  TickerWorld W = makeTwoRouteWorld();
  const PinnedCounts Reduced{15, 8, 9, 3, 16, 11, 2};
  EXPECT_EQ(countsOf(W.Main, W.Initial, W.Opts), Reduced);
  EngineOptions OffOpts = W.Opts;
  OffOpts.Por = PorMode::Off;
  RunResult Off = explore(W.Main, W.Initial, OffOpts);
  ASSERT_TRUE(Off.complete()) << Off.FailureNote;
  EXPECT_EQ(Off.Terminals.size(), 4u);
  RunResult Serial = explore(W.Main, W.Initial, W.Opts);
  for (unsigned Jobs : {1u, 4u}) {
    W.Opts.Jobs = Jobs;
    W.Opts.Por = PorMode::On;
    RunResult On = explore(W.Main, W.Initial, W.Opts);
    ASSERT_TRUE(On.complete()) << On.FailureNote;
    EXPECT_FALSE(On.Reduction.PorDeclined) << Jobs << " jobs";
    EXPECT_TRUE(sameTerminals(On, Off)) << Jobs << " jobs";
    EXPECT_EQ(On.counters(), Serial.counters()) << Jobs << " jobs";
    W.Opts.Por = PorMode::Check;
    RunResult Checked = explore(W.Main, W.Initial, W.Opts);
    EXPECT_TRUE(Checked.Safe) << Checked.FailureNote;
    EXPECT_FALSE(Checked.Reduction.Oracle.Mismatch) << Jobs << " jobs";
  }
}

//===----------------------------------------------------------------------===//
// Determinism: bit-identical counters across job counts.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, BitIdenticalAcrossJobCounts) {
  SpanSetup S = makeSpanDiamond2();
  S.Opts.Por = PorMode::On;
  S.Opts.Jobs = 1;
  RunResult Serial = explore(S.Main, S.Initial, S.Opts);
  ASSERT_TRUE(Serial.complete()) << Serial.FailureNote;
  for (unsigned Jobs : {2u, 8u}) {
    S.Opts.Jobs = Jobs;
    RunResult Par = explore(S.Main, S.Initial, S.Opts);
    EXPECT_EQ(Serial.Safe, Par.Safe) << Jobs << " jobs";
    EXPECT_TRUE(sameTerminals(Serial, Par)) << Jobs << " jobs";
    EXPECT_EQ(Serial.ConfigsExplored, Par.ConfigsExplored) << Jobs
                                                           << " jobs";
    EXPECT_EQ(Serial.ActionSteps, Par.ActionSteps) << Jobs << " jobs";
    EXPECT_EQ(Serial.EnvSteps, Par.EnvSteps) << Jobs << " jobs";
  }
}

//===----------------------------------------------------------------------===//
// The soundness oracle under the check-dynamic spelling, and composition.
//===----------------------------------------------------------------------===//

TEST(PorDynamicTest, CheckDynamicModeReportsBothRuns) {
  SpanSetup S = makeSpanDiamond2();
  S.Opts.Por = PorMode::CheckDynamic;
  RunResult R = explore(S.Main, S.Initial, S.Opts);
  EXPECT_TRUE(R.Safe);
  EXPECT_TRUE(R.Reduction.Oracle.Ran);
  EXPECT_FALSE(R.Reduction.Oracle.Mismatch);
  EXPECT_GT(R.Reduction.Oracle.PlainConfigs, 0u);
  EXPECT_GT(R.Reduction.Oracle.ReducedConfigs, 0u);
  EXPECT_LT(R.Reduction.Oracle.ReducedConfigs,
            R.Reduction.Oracle.PlainConfigs);
  // Like Check, CheckDynamic reports the plain (ground-truth) run, checked
  // against the On reduction it spells.
  EXPECT_EQ(R.Reduction.Por, PorMode::On);
  EXPECT_EQ(R.ConfigsExplored, R.Reduction.Oracle.PlainConfigs);
}

TEST(PorDynamicTest, CheckDynamicCrossValidatesAllSessions) {
  // Every Table-1 session discharged with the oracle's check-dynamic
  // spelling as the process default: any verdict or terminal-set
  // divergence anywhere in a session's obligations fails it.
  PorDefaultGuard Guard;
  setDefaultPorMode(PorMode::CheckDynamic);
  for (const CaseEntry &Case : allCaseStudies()) {
    SessionReport Report = Case.MakeSession().run();
    EXPECT_TRUE(Report.AllPassed)
        << Case.Name << ": "
        << (Report.Failures.empty() ? "" : Report.Failures.front());
  }
}

TEST(PorDynamicTest, ComposesWithSymmetry) {
  SpanSetup S = makeSpanDiamond2();
  S.Opts.Por = PorMode::Off;
  S.Opts.Symmetry = SymMode::Off;
  RunResult Full = explore(S.Main, S.Initial, S.Opts);
  ASSERT_TRUE(Full.complete()) << Full.FailureNote;
  S.Opts.Por = PorMode::On;
  S.Opts.Symmetry = SymMode::On;
  RunResult Local = explore(S.Main, S.Initial, S.Opts);
  EXPECT_EQ(Full.Safe, Local.Safe);
  EXPECT_TRUE(sameTerminals(Full, Local));
}

//===----------------------------------------------------------------------===//
// The reduced corpus: every `fcsl-verify verify all` session at one job.
// Exploration work, POR effort and symmetry effort are all pinned, so a
// change to how the reduced expansion is computed cannot move any of them
// unnoticed.
//===----------------------------------------------------------------------===//

namespace {

// {configs, action steps, env steps, dedup hits, wakeup replays, sleep
//  hits, full expansions, orbit lookups, canonicalized, pointer-renamed},
// summed over every obligation.
using CorpusCounts = std::array<uint64_t, 10>;

CorpusCounts corpusCounts(PorMode Por, SymMode Sym) {
  // The effort counters vary with the schedule at more than one job.
  setDefaultJobs(1);
  const ResolvedModes Modes{Por, Sym, cache::CacheMode::Off};
  PorStats P0 = porStats();
  SymmetryStats S0 = symmetryStats();
  EngineCounters Work;
  for (const CaseEntry &Case : allVerifiableSessions()) {
    VerificationSession Session = Case.MakeSession();
    for (const ProofUnit &U : Session.units()) {
      ObligationResult R = U.Run(Modes);
      EXPECT_TRUE(R.Passed) << Case.Name << ": " << U.Name << ": " << R.Note;
      Work += R.Counters;
    }
  }
  PorStats P1 = porStats();
  SymmetryStats S1 = symmetryStats();
  return {Work.Configs,
          Work.ActionSteps,
          Work.EnvSteps,
          Work.DedupHits,
          P1.WakeupReplays - P0.WakeupReplays,
          P1.SleepHits - P0.SleepHits,
          P1.FullExpansions - P0.FullExpansions,
          S1.Lookups - S0.Lookups,
          S1.Changed - S0.Changed,
          S1.Renames - S0.Renames};
}

} // namespace

TEST(PorDynamicTest, PinsTheReducedCorpus) {
  const CorpusCounts StaticSym{9905, 6225, 11803, 6293, 0,
                               152,  817,  13480, 27,   4};
  EXPECT_EQ(corpusCounts(PorMode::On, SymMode::On), StaticSym);
  const CorpusCounts Static{10038, 6400, 11803, 6335, 0,
                            152,   866,  0,     0,    0};
  EXPECT_EQ(corpusCounts(PorMode::On, SymMode::Off), Static);
}
