//===- tests/trace_test.cpp - Counterexample trace tests -------------------===//
//
// Part of fcsl-cpp. When verification fails, the engine reconstructs the
// schedule that reaches the failure — the tool-side counterpart of
// staring at a failing Coq goal.
//
//===----------------------------------------------------------------------===//

#include "concurroid/Entangle.h"
#include "concurroid/Priv.h"
#include "structures/SpanTree.h"

#include <gtest/gtest.h>

using namespace fcsl;

namespace {
constexpr Label Pv = 1;
constexpr Label Sp = 2;
} // namespace

TEST(TraceTest, UnsafeActionGetsASchedule) {
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sp);
  // mark 1, then nullify node 2 which we never marked: unsafe after one
  // successful step.
  ProgRef Main = Prog::seq(
      Prog::act(Case.TryMark, {Expr::litPtr(Ptr(1))}),
      Prog::act(Case.NullifyL, {Expr::litPtr(Ptr(2))}));
  EngineOptions Opts;
  Opts.Ambient = Case.Open;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  RunResult R =
      explore(Main, spanOpenState(Case, figure2Graph(), {}), Opts);
  ASSERT_FALSE(R.Safe);
  ASSERT_FALSE(R.FailureTrace.empty());
  // The trace ends at the unsafe nullify and contains the prior trymark.
  EXPECT_NE(R.FailureTrace.back().find("UNSAFE"), std::string::npos);
  EXPECT_NE(R.FailureTrace.back().find("nullify_l"), std::string::npos);
  bool SawMark = false;
  for (const std::string &Step : R.FailureTrace)
    SawMark |= Step.find("trymark") != std::string::npos;
  EXPECT_TRUE(SawMark);
  // Rendering numbers the steps.
  EXPECT_NE(R.renderTrace().find("1. "), std::string::npos);
}

TEST(TraceTest, SafeRunsHaveNoTrace) {
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sp);
  ProgRef Main = Prog::act(Case.TryMark, {Expr::litPtr(Ptr(1))});
  EngineOptions Opts;
  Opts.Ambient = Case.Open;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  RunResult R =
      explore(Main, spanOpenState(Case, figure2Graph(), {}), Opts);
  EXPECT_TRUE(R.complete());
  EXPECT_TRUE(R.FailureTrace.empty());
}

TEST(TraceTest, EnvironmentStepsAppearInTraces) {
  // Under interference, an env mark can make our later nullify unsafe
  // only if WE never marked... instead: our trymark succeeds only when
  // env has not claimed the node; drive a failure whose schedule must
  // mention an env step: trymark(1); if it FAILED (env won), nullify(1)
  // unsafely.
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sp);
  ProgRef Main = Prog::bind(
      Prog::act(Case.TryMark, {Expr::litPtr(Ptr(1))}), "b",
      Prog::ifThenElse(Expr::var("b"), Prog::ret(Expr::litBool(true)),
                       Prog::seq(Prog::act(Case.NullifyL,
                                           {Expr::litPtr(Ptr(1))}),
                                 Prog::ret(Expr::litBool(false)))));
  EngineOptions Opts;
  Opts.Ambient = Case.Open;
  Opts.EnvInterference = true;
  Opts.Defs = &Case.Defs;
  RunResult R =
      explore(Main, spanOpenState(Case, figure2Graph(), {}), Opts);
  ASSERT_FALSE(R.Safe);
  bool SawEnv = false;
  for (const std::string &Step : R.FailureTrace)
    SawEnv |= Step.find("env: ") != std::string::npos;
  EXPECT_TRUE(SawEnv) << R.renderTrace();
}

//===----------------------------------------------------------------------===//
// Golden trace text. Steps are kept as compact codes during exploration and
// rendered only when a failure publishes its schedule; these pin the
// rendered text byte for byte against the eagerly formatted strings the
// engine used to store on every visited node.
//===----------------------------------------------------------------------===//

namespace {

constexpr Label Ct = 3;
const Ptr Cell = Ptr(1);

/// A closed counter world: `incr` returns the cell's old value and bumps
/// the cell and the caller's share; `probe(v)` is never safe.
struct CounterWorld {
  ConcurroidRef C;
  ActionRef Incr;
  ActionRef Probe;
};

CounterWorld makeCounterWorld() {
  auto Coh = [](const View &S) {
    if (!S.hasLabel(Ct))
      return false;
    const Val *V = S.joint(Ct).tryLookup(Cell);
    return V && V->isInt() &&
           V->getInt() == static_cast<int64_t>(S.self(Ct).getNat() +
                                               S.other(Ct).getNat());
  };
  CounterWorld W;
  W.C = entangle(makePriv(Pv), makeConcurroid("Counter",
                                              {OwnedLabel{Ct, "ct",
                                                          PCMType::nat()}},
                                              Coh));
  W.Incr = makeAction(
      "incr", W.C, 0,
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
  W.Probe = makeAction(
      "probe", W.C, 1,
      [](const View &, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> { return std::nullopt; });
  return W;
}

GlobalState counterState() {
  GlobalState GS;
  GS.addLabel(Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()), false);
  GS.addLabel(Ct, PCMType::nat(), Heap::singleton(Cell, Val::ofInt(0)),
              PCMVal::ofNat(0), false);
  return GS;
}

} // namespace

TEST(TraceTest, ThreadStepTextIsPinned) {
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sp);
  ProgRef Main = Prog::seq(
      Prog::act(Case.TryMark, {Expr::litPtr(Ptr(1))}),
      Prog::act(Case.NullifyL, {Expr::litPtr(Ptr(2))}));
  EngineOptions Opts;
  Opts.Ambient = Case.Open;
  Opts.EnvInterference = false;
  Opts.Defs = &Case.Defs;
  Opts.Jobs = 1;
  RunResult R = explore(Main, spanOpenState(Case, figure2Graph(), {}), Opts);
  ASSERT_FALSE(R.Safe);
  EXPECT_EQ(R.FailureTrace,
            (std::vector<std::string>{"thread 1: trymark(&1) -> true",
                                      "thread 1: nullify_l(&2)  <-- UNSAFE"}));
}

TEST(TraceTest, EnvStepTextIsPinned) {
  SpanTreeCase Case = makeSpanTreeCase(Pv, Sp);
  ProgRef Main = Prog::bind(
      Prog::act(Case.TryMark, {Expr::litPtr(Ptr(1))}), "b",
      Prog::ifThenElse(Expr::var("b"), Prog::ret(Expr::litBool(true)),
                       Prog::seq(Prog::act(Case.NullifyL,
                                           {Expr::litPtr(Ptr(1))}),
                                 Prog::ret(Expr::litBool(false)))));
  EngineOptions Opts;
  Opts.Ambient = Case.Open;
  Opts.EnvInterference = true;
  Opts.Defs = &Case.Defs;
  Opts.Jobs = 1;
  for (PorMode Por : {PorMode::Off, PorMode::Dynamic}) {
    Opts.Por = Por;
    RunResult R =
        explore(Main, spanOpenState(Case, figure2Graph(), {}), Opts);
    ASSERT_FALSE(R.Safe);
    EXPECT_EQ(R.FailureTrace,
              (std::vector<std::string>{
                  "env: marknode_trans", "thread 1: trymark(&1) -> false",
                  "thread 1: nullify_l(&1)  <-- UNSAFE"}))
        << porModeName(Por);
  }
}

TEST(TraceTest, SymmetryMirrorStepTextIsPinned) {
  // par(incr, incr) delivers (0, 1) on the identity path and (1, 0) as a
  // symmetric-join mirror; only the mirror's order reaches the probe.
  CounterWorld W = makeCounterWorld();
  ProgRef Main = Prog::bind(
      Prog::par(Prog::act(W.Incr, {}), Prog::act(W.Incr, {})), "p",
      Prog::ifThenElse(
          Expr::lt(Expr::fst(Expr::var("p")), Expr::snd(Expr::var("p"))),
          Prog::ret(Expr::var("p")),
          Prog::act(W.Probe, {Expr::var("p")})));
  EngineOptions Opts;
  Opts.Ambient = W.C;
  Opts.EnvInterference = false;
  Opts.Jobs = 1;
  Opts.Symmetry = SymMode::On;
  RunResult R = explore(Main, counterState(), Opts);
  ASSERT_FALSE(R.Safe);
  EXPECT_EQ(R.FailureTrace, (std::vector<std::string>{
                                "thread 2: incr() -> 0",
                                "thread 3: incr() -> 1 [sym-mirror]",
                                "thread 1: probe((1, 0))  <-- UNSAFE"}));
}
