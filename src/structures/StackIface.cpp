//===- structures/StackIface.cpp - The abstract stack interface ------------===//
//
// Part of fcsl-cpp. See StackIface.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "structures/StackIface.h"

#include "concurroid/Registry.h"
#include "structures/FlatCombiner.h"
#include "structures/TreiberStack.h"

using namespace fcsl;

namespace {

constexpr Label PvLbl = 1;
constexpr Label TrLbl = 2;
constexpr Label FcLbl = 1;

} // namespace

StackProtocol fcsl::treiberStackProtocol() {
  TreiberCase Case = makeTreiberCase(PvLbl, TrLbl, /*EnvHistCap=*/0);

  StackProtocol P;
  P.Name = "Treiber";
  P.C = Case.C;
  P.Defs = std::make_shared<DefTable>(std::move(Case.Defs));
  // s_push(tok, v) := push(tok, v); the token is the private node cell.
  P.Defs->define("s_push",
                 FuncDef{{"tok", "v"},
                         Prog::call("push",
                                    {Expr::var("tok"), Expr::var("v")})});
  // s_pop(tok) := pop(); Treiber pops need no token.
  P.Defs->define("s_pop", FuncDef{{"tok"}, Prog::call("pop", {})});

  P.Initial = treiberState(Case, {}, /*MyCells=*/2, /*EnvCells=*/0);
  P.TokenLeft = Val::ofPtr(Ptr(20));
  P.TokenRight = Val::ofPtr(Ptr(21));

  Label Pv = Case.Pv;
  P.Split = [Pv](const View &V)
      -> std::map<Label, std::pair<PCMVal, PCMVal>> {
    Heap Mine = V.self(Pv).getHeap();
    Heap Left, Right;
    for (const auto &Cell : Mine)
      (Cell.first == Ptr(21) ? Right : Left)
          .insert(Cell.first, Cell.second);
    return {{Pv, {PCMVal::ofHeap(std::move(Left)),
                  PCMVal::ofHeap(std::move(Right))}}};
  };

  Label Tr = Case.Tr;
  P.SelfHist = [Tr](const View &S) { return S.self(Tr).getHist(); };
  return P;
}

StackProtocol fcsl::fcStackProtocol() {
  FlatCombinerCase Case = makeFlatCombinerCase(FcLbl, /*EnvHistCap=*/0);

  StackProtocol P;
  P.Name = "FC";
  P.C = Case.C;
  P.Defs = std::make_shared<DefTable>(std::move(Case.Defs));
  // s_push(tok, v) := flat_combine(tok, push, v); the token is the
  // caller's publication slot.
  P.Defs->define(
      "s_push",
      FuncDef{{"tok", "v"},
              Prog::seq(Prog::call("flat_combine",
                                   {Expr::var("tok"),
                                    Expr::litInt(FcPush),
                                    Expr::var("v")}),
                        Prog::retUnit())});
  // s_pop(tok) := r <-- flat_combine(tok, pop, 0);
  //               ret (~~(r == 0), r)  -- 0 is the empty marker.
  P.Defs->define(
      "s_pop",
      FuncDef{{"tok"},
              Prog::bind(Prog::call("flat_combine",
                                    {Expr::var("tok"),
                                     Expr::litInt(FcPop),
                                     Expr::litInt(0)}),
                         "r",
                         Prog::ret(Expr::mkPair(
                             Expr::notE(Expr::eq(Expr::var("r"),
                                                 Expr::litInt(0))),
                             Expr::var("r"))))});

  P.Initial = flatCombinerState(Case, /*MySlots=*/2);
  P.TokenLeft = Val::ofPtr(Case.Slot1);
  P.TokenRight = Val::ofPtr(Case.Slot2);

  Label Fc = Case.Fc;
  Ptr S2 = Case.Slot2;
  P.Split = [Fc, S2](const View &V)
      -> std::map<Label, std::pair<PCMVal, PCMVal>> {
    const PCMVal &Self = V.self(Fc);
    std::set<Ptr> Left, Right;
    for (Ptr Slot : Self.second().first().getPtrSet())
      (Slot == S2 ? Right : Left).insert(Slot);
    PCMVal L = PCMVal::makePair(
        Self.first(),
        PCMVal::makePair(PCMVal::ofPtrSet(std::move(Left)),
                         PCMVal::ofHist(Self.second().second().getHist())));
    PCMVal R = PCMVal::makePair(
        PCMVal::mutexFree(),
        PCMVal::makePair(PCMVal::ofPtrSet(std::move(Right)),
                         PCMVal::ofHist(History())));
    return {{Fc, {std::move(L), std::move(R)}}};
  };

  P.SelfHist = [Fc](const View &S) {
    return S.self(Fc).second().second().getHist();
  };
  return P;
}

ObligationResult fcsl::verifyUnifiedPushPair(const StackProtocol &P,
                                             int64_t A, int64_t B,
                                             const ResolvedModes &Modes) {
  Spec S;
  S.Name = P.Name + "/unified_push_pair";
  S.C = P.C;
  S.Pre = assertTrue();
  S.PostName = "both pushes recorded in the joined self history";
  auto SelfHist = P.SelfHist;
  S.Post = [SelfHist, A, B](const Val &R, const View &, const View &F) {
    if (!R.isPair())
      return false;
    History Mine = SelfHist(F);
    if (Mine.size() != 2)
      return false;
    bool SawA = false, SawB = false;
    for (const auto &Entry : Mine) {
      if (Entry.second.After ==
          Val::pair(Val::ofInt(A), Entry.second.Before))
        SawA = true;
      if (Entry.second.After ==
          Val::pair(Val::ofInt(B), Entry.second.Before))
        SawB = true;
    }
    return SawA && SawB;
  };

  ProgRef Main = Prog::par(
      Prog::call("s_push", {Expr::lit(P.TokenLeft), Expr::litInt(A)}),
      Prog::call("s_push", {Expr::lit(P.TokenRight), Expr::litInt(B)}),
      P.Split);
  EngineOptions Opts;
  Opts.Ambient = P.C;
  Opts.EnvInterference = false;
  Opts.Defs = P.Defs.get();
  Opts.Por = Modes.Por;
  Opts.Symmetry = Modes.Sym;
  return toObligation(
      verifyTriple(Main, S, {VerifyInstance{P.Initial, {}}}, Opts));
}

ObligationResult fcsl::verifyUnifiedPushPop(const StackProtocol &P,
                                            int64_t V,
                                            const ResolvedModes &Modes) {
  Spec S;
  S.Name = P.Name + "/unified_push_pop";
  S.C = P.C;
  S.Pre = assertTrue();
  S.PostName = "pop sees the pushed value or emptiness; push recorded";
  auto SelfHist = P.SelfHist;
  S.Post = [SelfHist, V](const Val &R, const View &, const View &F) {
    if (!R.isPair() || !R.second().isPair())
      return false;
    const Val &PopRes = R.second();
    if (!PopRes.first().isBool())
      return false;
    if (PopRes.first().getBool() && PopRes.second() != Val::ofInt(V))
      return false;
    // The push is always recorded, whoever executed it.
    History Mine = SelfHist(F);
    for (const auto &Entry : Mine)
      if (Entry.second.After ==
          Val::pair(Val::ofInt(V), Entry.second.Before))
        return true;
    return false;
  };

  ProgRef Main = Prog::par(
      Prog::call("s_push", {Expr::lit(P.TokenLeft), Expr::litInt(V)}),
      Prog::call("s_pop", {Expr::lit(P.TokenRight)}), P.Split);
  EngineOptions Opts;
  Opts.Ambient = P.C;
  Opts.EnvInterference = false;
  Opts.Defs = P.Defs.get();
  Opts.Por = Modes.Por;
  Opts.Symmetry = Modes.Sym;
  return toObligation(
      verifyTriple(Main, S, {VerifyInstance{P.Initial, {}}}, Opts));
}

namespace {

/// Declares the inputs of a unified-client obligation: everything the
/// theorem reads off the protocol (concurroid, s_push/s_pop definitions,
/// initial state, tokens) plus the theorem's name and integer arguments.
/// The Split/SelfHist closures are opaque; the site revision stands in
/// for their logic.
ObligationInputs unifiedInputs(const StackProtocol &P,
                               std::string_view Theorem,
                               std::initializer_list<int64_t> Args) {
  ObligationInputs In(ObKind::Triple);
  In.mix(P.C->fingerprint());
  In.text(P.Name);
  In.text(Theorem);
  In.mix(fpOfDefs(*P.Defs));
  In.mix(codecFp(P.Initial));
  In.mix(codecFp(P.TokenLeft));
  In.mix(codecFp(P.TokenRight));
  for (int64_t A : Args)
    In.num(A);
  In.rev(1);
  return In;
}

} // namespace

VerificationSession fcsl::makeStackIfaceSession() {
  VerificationSession Session("Abstract stack");
  auto Treiber = std::make_shared<StackProtocol>(treiberStackProtocol());
  auto Fc = std::make_shared<StackProtocol>(fcStackProtocol());

  Session.addObligation(ObCategory::Main, "push_pair_treiber",
                        unifiedInputs(*Treiber, "push_pair", {1, 2}),
                        [Treiber](const ResolvedModes &Modes) {
    return verifyUnifiedPushPair(*Treiber, 1, 2, Modes);
  });
  Session.addObligation(ObCategory::Main, "push_pair_fc",
                        unifiedInputs(*Fc, "push_pair", {1, 2}),
                        [Fc](const ResolvedModes &Modes) {
    return verifyUnifiedPushPair(*Fc, 1, 2, Modes);
  });
  Session.addObligation(ObCategory::Main, "push_pop_treiber",
                        unifiedInputs(*Treiber, "push_pop", {9}),
                        [Treiber](const ResolvedModes &Modes) {
    return verifyUnifiedPushPop(*Treiber, 9, Modes);
  });
  Session.addObligation(ObCategory::Main, "push_pop_fc",
                        unifiedInputs(*Fc, "push_pop", {9}),
                        [Fc](const ResolvedModes &Modes) {
    return verifyUnifiedPushPop(*Fc, 9, Modes);
  });
  return Session;
}

void fcsl::registerStackIfaceLibrary() {
  // The interface node the paper left as an exercise: realized by both
  // stack implementations.
  globalRegistry().registerLibrary(LibraryInfo{
      "Abstract stack", {}, {"Treiber stack", "FC-stack"}});
}
