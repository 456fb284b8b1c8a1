//===- structures/SeqStack.cpp - Sequential stack via hiding ---------------===//
//
// Part of fcsl-cpp. See SeqStack.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "structures/SeqStack.h"

#include "concurroid/Registry.h"

using namespace fcsl;

namespace {

constexpr Label PvLbl = 1;
constexpr Label TrLbl = 2;

/// Initial state: the Treiber layout (sentinel cell) and two node cells
/// all sit in the root thread's private heap; nothing is installed yet.
GlobalState seqStackInitialState(const TreiberCase &C) {
  Heap Mine;
  Mine.insert(C.Sentinel, Val::ofPtr(Ptr::null()));
  Mine.insert(Ptr(20), Val::pair(Val::ofInt(0), Val::ofPtr(Ptr::null())));
  Mine.insert(Ptr(21), Val::pair(Val::ofInt(0), Val::ofPtr(Ptr::null())));
  GlobalState GS;
  GS.addLabel(PvLbl, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()),
              /*EnvClosed=*/false);
  GS.setSelf(PvLbl, rootThread(), PCMVal::ofHeap(std::move(Mine)));
  return GS;
}

/// hide { push 1; push 2; a <-- pop; b <-- pop; ret (a, b) }.
ProgRef seqStackProg(const TreiberCase &C) {
  HideSpec Spec;
  Spec.Pv = C.Pv;
  Spec.Hidden = C.Tr;
  Spec.SelfType = PCMType::hist();
  Spec.Installed = C.Treiber;
  Ptr Snt = C.Sentinel;
  // Decoration: donate the sentinel cell (an empty stack layout); node
  // cells stay private until pushed.
  Spec.ChooseDonation = [Snt](const Heap &Mine) -> std::optional<Heap> {
    const Val *Head = Mine.tryLookup(Snt);
    if (!Head || !Head->isPtr() || !Head->getPtr().isNull())
      return std::nullopt;
    return Heap::singleton(Snt, *Head);
  };
  Spec.InitSelf = PCMVal::ofHist(History());

  ProgRef Body = Prog::seq(
      Prog::call("push", {Expr::litPtr(Ptr(20)), Expr::litInt(1)}),
      Prog::seq(
          Prog::call("push", {Expr::litPtr(Ptr(21)), Expr::litInt(2)}),
          Prog::bind(
              Prog::call("pop", {}), "a",
              Prog::bind(Prog::call("pop", {}), "b",
                         Prog::ret(Expr::mkPair(
                             Expr::snd(Expr::var("a")),
                             Expr::snd(Expr::var("b"))))))));
  return Prog::hide(std::move(Spec), std::move(Body));
}

} // namespace

VerificationSession fcsl::makeSeqStackSession() {
  VerificationSession Session("Seq. stack");
  auto Case = std::make_shared<TreiberCase>(
      makeTreiberCase(PvLbl, TrLbl, /*EnvHistCap=*/0));

  // Libs: the client-side list lemma — the abstract stack read off any
  // list-shaped joint heap is unique and LIFO-consistent with the cell
  // chain (exercised over a family of layouts).
  std::vector<std::vector<int64_t>> Layouts = {
      {}, {1}, {2, 1}, {3, 2, 1}, {5, 5}};
  ObligationInputs ListIn(ObKind::Check);
  ListIn.text("list_abstraction");
  for (const std::vector<int64_t> &Elems : Layouts)
    ListIn.mix(codecFp(treiberState(*Case, Elems, 0, 0)));
  ListIn.rev(1);
  Session.addObligation(ObCategory::Libs, "list_abstraction_lemma", ListIn,
                        [Case, Layouts](const ResolvedModes &) {
    ObligationResult O;
    for (const std::vector<int64_t> &Elems : Layouts) {
      GlobalState GS = treiberState(*Case, Elems, 0, 0);
      std::optional<Val> Abs =
          treiberAbstractStack(*Case, GS.joint(TrLbl));
      ++O.Checks;
      if (!Abs) {
        O.Passed = false;
        O.Note = "list abstraction undefined";
        return O;
      }
      // Peel the cons list and compare element by element.
      Val Cur = *Abs;
      for (int64_t E : Elems) {
        if (!Cur.isPair() || Cur.first() != Val::ofInt(E)) {
          O.Passed = false;
          O.Note = "list abstraction mismatch";
          return O;
        }
        Cur = Cur.second();
        ++O.Checks;
      }
      if (!Cur.isUnit()) {
        O.Passed = false;
        O.Note = "list tail not nil";
        return O;
      }
    }
    return O;
  });

  {
    TripleCase TC;
    TC.Main = seqStackProg(*Case);
    TC.S.Name = "seq_stack";
    TC.S.C = Case->C;
    TC.S.Pre = assertTrue();
    TC.S.PostName = "LIFO: push 1; push 2; pop = 2; pop = 1";
    TC.S.Post = [](const Val &R, const View &, const View &) {
      return R.isPair() && R.first() == Val::ofInt(2) &&
             R.second() == Val::ofInt(1);
    };
    TC.Instances.push_back(
        VerifyInstance{seqStackInitialState(*Case), {}});
    // The ambient protocol outside the hide is just Priv; the Treiber
    // concurroid only exists inside the hidden scope.
    TC.Opts.Ambient = makePriv(PvLbl);
    TC.Opts.EnvInterference = true; // Priv generates no interference anyway.
    TC.Defs = std::shared_ptr<const DefTable>(Case, &Case->Defs);
    addTriple(Session, "lifo_under_hiding", std::move(TC));
  }

  {
    // hide { a <-- pop; ret a } on the empty stack observes emptiness.
    HideSpec Spec;
    Spec.Pv = Case->Pv;
    Spec.Hidden = Case->Tr;
    Spec.SelfType = PCMType::hist();
    Spec.Installed = Case->Treiber;
    Ptr Snt = Case->Sentinel;
    Spec.ChooseDonation = [Snt](const Heap &Mine) -> std::optional<Heap> {
      const Val *Head = Mine.tryLookup(Snt);
      if (!Head)
        return std::nullopt;
      return Heap::singleton(Snt, *Head);
    };
    Spec.InitSelf = PCMVal::ofHist(History());

    TripleCase TC;
    TC.Main = Prog::hide(std::move(Spec), Prog::call("pop", {}));
    TC.S.Name = "seq_stack_empty_pop";
    TC.S.C = Case->C;
    TC.S.Pre = assertTrue();
    TC.S.PostName = "pop on the empty stack reports empty";
    TC.S.Post = [](const Val &R, const View &, const View &) {
      return R.isPair() && R.first() == Val::ofBool(false);
    };
    TC.Instances.push_back(
        VerifyInstance{seqStackInitialState(*Case), {}});
    TC.Opts.Ambient = makePriv(PvLbl);
    TC.Opts.EnvInterference = true;
    TC.Defs = std::shared_ptr<const DefTable>(Case, &Case->Defs);
    addTriple(Session, "pop_empty_after_hiding", std::move(TC));
  }

  return Session;
}

void fcsl::registerSeqStackLibrary() {
  globalRegistry().registerLibrary(LibraryInfo{
      "Seq. stack",
      {ConcurroidUse{"Priv", false}, ConcurroidUse{"CLock", true},
       ConcurroidUse{"TLock", true}, ConcurroidUse{"Treiber", false}},
      {"Treiber stack"}});
}
