//===- structures/SpanTree.cpp - Concurrent spanning tree ------------------===//
//
// Part of fcsl-cpp. See SpanTree.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "structures/SpanTree.h"

#include "concurroid/Registry.h"
#include "pcm/Algebra.h"

#include <algorithm>

using namespace fcsl;

namespace {

/// The marked-node sets in a view at label sp.
PtrSet selfMarked(const View &S, Label Sp) {
  return S.self(Sp).getPtrSet();
}

PtrSet unionSets(const PtrSet &A, const PtrSet &B) {
  PtrSet Out = A;
  Out.insert(B.begin(), B.end());
  return Out;
}

/// Footprint field masks for graph cells (NodeCell has three independent
/// fields; see Footprint.h on field-masked joint atoms).
constexpr uint8_t FpLeft = 1;
constexpr uint8_t FpRight = 2;
constexpr uint8_t FpMarked = 4;

} // namespace

SpanTreeCase fcsl::makeSpanTreeCase(Label Pv, Label Sp) {
  SpanTreeCase Case;
  Case.Pv = Pv;
  Case.Sp = Sp;

  // --- Coherence (the paper's coh, Section 3.3) --------------------------
  auto Coh = [Sp](const View &S) {
    if (!S.hasLabel(Sp))
      return false;
    if (S.self(Sp).kind() != PCMKind::PtrSet ||
        S.other(Sp).kind() != PCMKind::PtrSet)
      return false;
    std::optional<PCMVal> Total = S.selfOtherJoin(Sp);
    if (!Total)
      return false;
    const Heap &G = S.joint(Sp);
    if (!isGraphHeap(G))
      return false;
    // x \in self \+ other  <->  mark g x.
    return markedNodes(G) == Total->getPtrSet();
  };

  auto Span = makeConcurroid(
      "SpanTree", {OwnedLabel{Sp, "sp", PCMType::ptrSet()}}, Coh);

  // --- marknode_trans -----------------------------------------------------
  // Footprint (the agent is the environment): scans every cell's Marked
  // bit, marks one, and grows its own contribution — Left/Right fields
  // are never touched, so marking commutes with edge nullification.
  Transition MarkT(
      "marknode_trans", TransitionKind::Internal,
      [Sp](const View &Pre) -> std::vector<View> {
        std::vector<View> Out;
        if (!Pre.hasLabel(Sp))
          return Out;
        const Heap &G = Pre.joint(Sp);
        for (const auto &Cell : G) {
          if (Cell.second.getNode().Marked)
            continue;
          View Post = Pre;
          Post.setJoint(Sp, markNode(G, Cell.first));
          PtrSet Mine = Pre.self(Sp).getPtrSet();
          Mine.insert(Cell.first);
          Post.setSelf(Sp, PCMVal::ofPtrSet(std::move(Mine)));
          Out.push_back(std::move(Post));
        }
        return Out;
      });
  MarkT.withFootprint(Footprint::none()
                          .readWrite(FpAtom::joint(Sp, FpMarked))
                          .readWrite(FpAtom::selfAux(Sp)));
  Span->addTransition(std::move(MarkT));

  // --- nullify_trans -------------------------------------------------------
  // Footprint: reads its own marked set and reads/writes the Left/Right
  // fields of cells it owns (x in the agent's self set is governed by that
  // contribution, and distinct agents' ptrset contributions are disjoint).
  Transition NullT(
      "nullify_trans", TransitionKind::Internal,
      [Sp](const View &Pre) -> std::vector<View> {
        std::vector<View> Out;
        if (!Pre.hasLabel(Sp))
          return Out;
        const Heap &G = Pre.joint(Sp);
        for (Ptr X : Pre.self(Sp).getPtrSet()) {
          for (Side S : {Side::Left, Side::Right}) {
            if (succOf(G, X, S).isNull())
              continue;
            View Post = Pre;
            Post.setJoint(Sp, nullEdge(G, X, S));
            Out.push_back(std::move(Post));
          }
        }
        return Out;
      });
  NullT.withFootprint(
      Footprint::none()
          .read(FpAtom::selfAux(Sp))
          .readWrite(FpAtom::joint(Sp, FpLeft | FpRight,
                                   FpRegion::SelfOwned)));
  Span->addTransition(std::move(NullT));

  ConcurroidRef PrivC = makePriv(Pv);
  Case.Span = Span;
  Case.Open = entangle(PrivC, Span);
  Case.PrivOnly = PrivC;

  // --- Actions (Section 3.4) ----------------------------------------------
  Case.TryMark = makeAction(
      "trymark", Case.Open, 1,
      [Sp](const View &Pre, const std::vector<Val> &Args)
          -> std::optional<std::vector<ActOutcome>> {
        if (!Args[0].isPtr())
          return std::nullopt;
        Ptr X = Args[0].getPtr();
        const Heap &G = Pre.joint(Sp);
        if (!G.contains(X))
          return std::nullopt; // Precondition: x \in dom (joint s1).
        if (G.lookup(X).getNode().Marked)
          return std::vector<ActOutcome>{{Val::ofBool(false), Pre}};
        View Post = Pre;
        Post.setJoint(Sp, markNode(G, X));
        PtrSet Mine = Pre.self(Sp).getPtrSet();
        Mine.insert(X);
        Post.setSelf(Sp, PCMVal::ofPtrSet(std::move(Mine)));
        return std::vector<ActOutcome>{{Val::ofBool(true), std::move(Post)}};
      },
      // Static: may touch any cell's Marked bit plus own contribution.
      // Dynamically the cell is known, but stays FpRegion::Any — x may be
      // another agent's node (that is the whole point of trymark's race).
      Footprint::none()
          .readWrite(FpAtom::joint(Sp, FpMarked))
          .readWrite(FpAtom::selfAux(Sp)),
      [Sp](const View &, const std::vector<Val> &Args) -> Footprint {
        if (!Args[0].isPtr())
          return Footprint::none(); // Unsafe in every state: no footprint.
        return Footprint::none()
            .readWrite(FpAtom::jointCell(Sp, Args[0].getPtr(), FpMarked))
            .readWrite(FpAtom::selfAux(Sp));
      });

  auto MakeReadChild = [Sp, &Case](const char *Name, Side S) {
    return makeAction(
        Name, Case.Open, 1,
        [Sp, S](const View &Pre, const std::vector<Val> &Args)
            -> std::optional<std::vector<ActOutcome>> {
          if (!Args[0].isPtr())
            return std::nullopt;
          Ptr X = Args[0].getPtr();
          if (!Pre.self(Sp).getPtrSet().count(X))
            return std::nullopt; // Precondition: x \in self.
          return std::vector<ActOutcome>{
              {Val::ofPtr(succOf(Pre.joint(Sp), X, S)), Pre}};
        },
        // Safety needs only the own marked set; the edge read is confined
        // to one Left/Right field of a cell the agent owns (x in self).
        Footprint::none()
            .read(FpAtom::selfAux(Sp))
            .read(FpAtom::joint(Sp, FpLeft | FpRight, FpRegion::SelfOwned)),
        [Sp, S](const View &, const std::vector<Val> &Args) -> Footprint {
          if (!Args[0].isPtr())
            return Footprint::none();
          return Footprint::none()
              .read(FpAtom::selfAux(Sp))
              .read(FpAtom::jointCell(Sp, Args[0].getPtr(),
                                      S == Side::Left ? FpLeft : FpRight,
                                      FpRegion::SelfOwned));
        });
  };
  Case.ReadChildL = MakeReadChild("read_child_l", Side::Left);
  Case.ReadChildR = MakeReadChild("read_child_r", Side::Right);

  auto MakeNullify = [Sp, &Case](const char *Name, Side S) {
    return makeAction(
        Name, Case.Open, 1,
        [Sp, S](const View &Pre, const std::vector<Val> &Args)
            -> std::optional<std::vector<ActOutcome>> {
          if (!Args[0].isPtr())
            return std::nullopt;
          Ptr X = Args[0].getPtr();
          if (!Pre.self(Sp).getPtrSet().count(X))
            return std::nullopt; // Precondition: x \in self.
          View Post = Pre;
          Post.setJoint(Sp, nullEdge(Pre.joint(Sp), X, S));
          return std::vector<ActOutcome>{{Val::unit(), std::move(Post)}};
        },
        Footprint::none()
            .read(FpAtom::selfAux(Sp))
            .readWrite(
                FpAtom::joint(Sp, FpLeft | FpRight, FpRegion::SelfOwned)),
        [Sp, S](const View &, const std::vector<Val> &Args) -> Footprint {
          if (!Args[0].isPtr())
            return Footprint::none();
          return Footprint::none()
              .read(FpAtom::selfAux(Sp))
              .readWrite(FpAtom::jointCell(Sp, Args[0].getPtr(),
                                           S == Side::Left ? FpLeft : FpRight,
                                           FpRegion::SelfOwned));
        });
  };
  Case.NullifyL = MakeNullify("nullify_l", Side::Left);
  Case.NullifyR = MakeNullify("nullify_r", Side::Right);

  // --- The span program (Figure 3) ----------------------------------------
  ExprRef X = Expr::var("x");
  ProgRef MarkedBranch = Prog::bind(
      Prog::act(Case.ReadChildL, {X}), "xl",
      Prog::bind(
          Prog::act(Case.ReadChildR, {X}), "xr",
          Prog::bind(
              Prog::par(Prog::call("span", {Expr::var("xl")}),
                        Prog::call("span", {Expr::var("xr")})),
              "rs",
              Prog::seq(
                  Prog::ifThenElse(Expr::notE(Expr::fst(Expr::var("rs"))),
                                   Prog::act(Case.NullifyL, {X}),
                                   Prog::retUnit()),
                  Prog::seq(
                      Prog::ifThenElse(
                          Expr::notE(Expr::snd(Expr::var("rs"))),
                          Prog::act(Case.NullifyR, {X}),
                          Prog::retUnit()),
                      Prog::ret(Expr::litBool(true)))))));

  ProgRef SpanBody = Prog::ifThenElse(
      Expr::isNull(X), Prog::ret(Expr::litBool(false)),
      Prog::bind(Prog::act(Case.TryMark, {X}), "b",
                 Prog::ifThenElse(Expr::var("b"), MarkedBranch,
                                  Prog::ret(Expr::litBool(false)))));
  Case.Defs.define("span", FuncDef{{"x"}, SpanBody});
  return Case;
}

GlobalState fcsl::spanOpenState(const SpanTreeCase &C, const Heap &G,
                                const PtrSet &EnvMarked) {
  Heap Marked = G;
  for (Ptr X : EnvMarked)
    Marked = markNode(Marked, X);
  GlobalState GS;
  GS.addLabel(C.Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()),
              /*EnvClosed=*/false);
  GS.addLabel(C.Sp, PCMType::ptrSet(), std::move(Marked),
              PCMVal::ofPtrSet(EnvMarked), /*EnvClosed=*/false);
  return GS;
}

GlobalState fcsl::spanRootState(const SpanTreeCase &C, const Heap &G) {
  GlobalState GS;
  GS.addLabel(C.Pv, PCMType::heap(), Heap(), PCMVal::ofHeap(Heap()),
              /*EnvClosed=*/false);
  GS.setSelf(C.Pv, rootThread(), PCMVal::ofHeap(G));
  return GS;
}

ProgRef fcsl::makeSpanRootProg(const SpanTreeCase &C, Ptr Root) {
  HideSpec Spec;
  Spec.Pv = C.Pv;
  Spec.Hidden = C.Sp;
  Spec.SelfType = PCMType::ptrSet();
  Spec.Installed = C.Span;
  // The decoration predicate of span_root (graph_dec): donate the whole
  // private heap, provided it is graph-shaped.
  Spec.ChooseDonation = [](const Heap &Mine) -> std::optional<Heap> {
    if (!isGraphHeap(Mine))
      return std::nullopt;
    return Mine;
  };
  Spec.InitSelf = PCMVal::ofPtrSet({});
  return Prog::hide(std::move(Spec),
                    Prog::call("span", {Expr::litPtr(Root)}));
}

bool fcsl::spanSubgraphRel(Label Sp, const View &S1, const View &S2) {
  if (!S1.hasLabel(Sp) || !S2.hasLabel(Sp))
    return false;
  const Heap &G1 = S1.joint(Sp);
  const Heap &G2 = S2.joint(Sp);
  if (!isSubgraphEvolution(G1, G2))
    return false;
  // Self- and other-marked sets only grow.
  for (Ptr X : S1.self(Sp).getPtrSet())
    if (!S2.self(Sp).getPtrSet().count(X))
      return false;
  for (Ptr X : S1.other(Sp).getPtrSet())
    if (!S2.other(Sp).getPtrSet().count(X))
      return false;
  return true;
}

bool fcsl::spanTpPost(const SpanTreeCase &C, Ptr X, const Val &R,
                      const View &I, const View &F) {
  if (!R.isBool())
    return false;
  if (!spanSubgraphRel(C.Sp, I, F))
    return false;
  const Heap &G1 = I.joint(C.Sp);
  const Heap &G2 = F.joint(C.Sp);
  const PtrSet SelfI = selfMarked(I, C.Sp);
  const PtrSet SelfF = selfMarked(F, C.Sp);

  if (!R.getBool()) {
    // r = false: x is null or already marked; nothing newly self-marked.
    if (!(X.isNull() || nodeMarked(G2, X)))
      return false;
    return SelfF == SelfI;
  }

  // r = true: the freshly marked nodes t form a maximal tree with root x,
  // whose front in the initial graph is marked (by someone).
  if (X.isNull())
    return false;
  PtrSet T;
  for (Ptr N : SelfF)
    if (!SelfI.count(N))
      T.insert(N);
  if (!std::includes(SelfF.begin(), SelfF.end(), SelfI.begin(),
                     SelfI.end()))
    return false;
  if (!isTreeIn(G2, X, T) || !isMaximal(G2, T))
    return false;
  PtrSet MarkedF = unionSets(SelfF, F.other(C.Sp).getPtrSet());
  for (Ptr N : T)
    for (Ptr Succ : succsOf(G1, N))
      if (!MarkedF.count(Succ))
        return false;
  return true;
}

std::vector<View> fcsl::spanSampleViews(const SpanTreeCase &C,
                                        const Heap &G) {
  std::vector<View> Out;
  std::vector<Ptr> Nodes = G.domain();
  size_t N = Nodes.size();
  assert(N <= 10 && "sample views need a small graph");
  // Each node is unmarked (0), self-marked (1) or other-marked (2).
  std::vector<unsigned> Assign(N, 0);
  while (true) {
    Heap Marked = G;
    PtrSet Mine, Theirs;
    for (size_t I = 0; I < N; ++I) {
      if (Assign[I] == 0)
        continue;
      Marked = markNode(Marked, Nodes[I]);
      (Assign[I] == 1 ? Mine : Theirs).insert(Nodes[I]);
    }
    View S;
    S.addLabel(C.Pv, LabelSlice{PCMVal::ofHeap(Heap()), Heap(),
                                PCMVal::ofHeap(Heap())});
    S.addLabel(C.Sp, LabelSlice{PCMVal::ofPtrSet(std::move(Mine)),
                                std::move(Marked),
                                PCMVal::ofPtrSet(std::move(Theirs))});
    Out.push_back(std::move(S));
    // Next ternary assignment.
    size_t I = 0;
    while (I < N && Assign[I] == 2)
      Assign[I++] = 0;
    if (I == N)
      break;
    ++Assign[I];
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// The Table 1 row.
//===----------------------------------------------------------------------===//

namespace {

constexpr Label PvLbl = 1;
constexpr Label SpLbl = 2;

/// A three-node test graph with a diamond-ish shape and a back edge:
/// 1 -> (2, 3), 2 -> (3, null), 3 -> (1, null).
Heap threeNodeGraph() {
  return buildGraph({GraphNode{Ptr(1), Ptr(2), Ptr(3)},
                     GraphNode{Ptr(2), Ptr(3), Ptr::null()},
                     GraphNode{Ptr(3), Ptr(1), Ptr::null()}});
}

} // namespace

VerificationSession fcsl::makeSpanTreeSession() {
  VerificationSession Session("Spanning tree");
  auto Case = std::make_shared<SpanTreeCase>(makeSpanTreeCase(PvLbl, SpLbl));
  auto Samples = std::make_shared<std::vector<View>>(
      spanSampleViews(*Case, threeNodeGraph()));

  // --- Libs: the graph library lemmas (Section 3.2) ----------------------
  std::vector<PCMVal> LawSample = {
      PCMVal::ofPtrSet({}), PCMVal::singletonPtr(Ptr(1)),
      PCMVal::singletonPtr(Ptr(2)), PCMVal::ofPtrSet({Ptr(1), Ptr(2)}),
      PCMVal::ofPtrSet({Ptr(2), Ptr(3)})};
  Session.addObligation(
      ObCategory::Libs, "ptrset_pcm_laws",
      pcmLawInputs(PCMType::ptrSet(), LawSample, 1).text("cancellative"),
      [LawSample](const ResolvedModes &) {
        PCMLawReport R = checkPCMLaws(*PCMType::ptrSet(), LawSample);
        return lawObligation(R.allHold() && checkCancellativity(LawSample),
                             R.JoinsEvaluated);
      });

  Session.addObligation(ObCategory::Libs, "lemma_max_tree2",
                        ObligationInputs(ObKind::Check)
                            .text("lemma_max_tree2")
                            .num(0xfc51)
                            .num(60)
                            .num(5)
                            .rev(1),
                        [](const ResolvedModes &) {
    // Sweep the lemma over random graphs and candidate subtree pairs.
    Rng R(0xfc51);
    ObligationResult O;
    for (unsigned Iter = 0; Iter < 60; ++Iter) {
      Heap G = randomGraph(5, R, /*ConnectedFromRoot=*/false);
      for (const auto &Cell : G) {
        Ptr X = Cell.first;
        Ptr Y1 = Cell.second.getNode().Left;
        Ptr Y2 = Cell.second.getNode().Right;
        PtrSet TY1 = Y1.isNull() ? PtrSet{} : reachableFrom(G, Y1);
        PtrSet TY2 = Y2.isNull() ? PtrSet{} : reachableFrom(G, Y2);
        ++O.Checks;
        if (!lemmaMaxTree2(G, X, Y1, Y2, TY1, TY2)) {
          O.Passed = false;
          O.Note = "max_tree2 counterexample found";
          return O;
        }
      }
    }
    return O;
  });

  Session.addObligation(ObCategory::Libs, "lemma_maximal_tree_spans",
                        ObligationInputs(ObKind::Check)
                            .text("lemma_maximal_tree_spans")
                            .num(0x51ab)
                            .num(60)
                            .num(5)
                            .rev(1),
                        [](const ResolvedModes &) {
    Rng R(0x51ab);
    ObligationResult O;
    for (unsigned Iter = 0; Iter < 60; ++Iter) {
      Heap G = randomGraph(5, R, /*ConnectedFromRoot=*/true);
      PtrSet All = reachableFrom(G, Ptr(1));
      ++O.Checks;
      if (!lemmaMaximalTreeSpans(G, Ptr(1), All)) {
        O.Passed = false;
        O.Note = "maximal-tree-spans counterexample";
        return O;
      }
    }
    return O;
  });

  // --- Conc: SpanTree metatheory ------------------------------------------
  Session.addObligation(ObCategory::Conc, "spantree_metatheory",
                        sampleInputs(ObKind::Metatheory, *Case->Open,
                                     *Samples, 1),
                        [Case, Samples](const ResolvedModes &) {
    return toObligation(checkConcurroidWellFormed(*Case->Open, *Samples));
  });

  // --- Acts ----------------------------------------------------------------
  std::vector<ActionArgs> NodeArgs;
  for (uint32_t I = 0; I <= 3; ++I)
    NodeArgs.push_back({Val::ofPtr(Ptr(I))});

  Session.addObligation(ObCategory::Acts, "trymark_wf",
                        actionInputs(*Case->TryMark, *Samples, NodeArgs, 1)
                            .text("wf"),
                        [Case, Samples, NodeArgs](const ResolvedModes &) {
    return toObligation(
        checkActionWellFormed(*Case->TryMark, *Samples, NodeArgs));
  });
  Session.addObligation(ObCategory::Acts, "trymark_total_on_nodes",
                        actionInputs(*Case->TryMark, *Samples, NodeArgs, 1)
                            .text("total"),
                        [Case, Samples, NodeArgs](const ResolvedModes &) {
    Label Sp = Case->Sp;
    return toObligation(checkActionTotality(
        *Case->TryMark, *Samples, NodeArgs,
        [Sp](const View &S, const ActionArgs &Args) {
          return Args[0].isPtr() && S.joint(Sp).contains(Args[0].getPtr());
        }));
  });
  Session.addObligation(ObCategory::Acts, "read_child_wf",
                        actionInputs(*Case->ReadChildL, *Samples,
                                     NodeArgs, 1)
                            .text(Case->ReadChildR->name())
                            .num(Case->ReadChildR->arity())
                            .text("wf"),
                        [Case, Samples, NodeArgs](const ResolvedModes &) {
    MetaReport R;
    R.absorb(checkActionWellFormed(*Case->ReadChildL, *Samples, NodeArgs));
    R.absorb(checkActionWellFormed(*Case->ReadChildR, *Samples, NodeArgs));
    return toObligation(R);
  });
  Session.addObligation(ObCategory::Acts, "nullify_wf",
                        actionInputs(*Case->NullifyL, *Samples, NodeArgs, 1)
                            .text(Case->NullifyR->name())
                            .num(Case->NullifyR->arity())
                            .text("wf"),
                        [Case, Samples, NodeArgs](const ResolvedModes &) {
    MetaReport R;
    R.absorb(checkActionWellFormed(*Case->NullifyL, *Samples, NodeArgs));
    R.absorb(checkActionWellFormed(*Case->NullifyR, *Samples, NodeArgs));
    return toObligation(R);
  });

  // --- Stab -----------------------------------------------------------------
  Assertion NodeInDom = jointContains(Case->Sp, Ptr(2));
  Session.addObligation(ObCategory::Stab, "node_in_dom_stable",
                        stabilityInputs(*Case->Open, NodeInDom.name(),
                                        *Samples, 1),
                        [Case, Samples, NodeInDom](const ResolvedModes &) {
    return toObligation(checkStability(NodeInDom, *Case->Open, *Samples));
  });
  Session.addObligation(ObCategory::Stab, "subgraph_steps",
                        stabilityInputs(*Case->Open, "subgraph",
                                        *Samples, 1),
                        [Case, Samples](const ResolvedModes &) {
    // Lemma subgraph_steps: env_steps s1 s2 -> subgraph g1 g2.
    Label Sp = Case->Sp;
    return toObligation(checkRelationStability(
        [Sp](const View &Seed, const View &S) {
          return spanSubgraphRel(Sp, Seed, S);
        },
        "subgraph", *Case->Open, *Samples));
  });
  Session.addObligation(ObCategory::Stab, "my_marks_stay_mine",
                        stabilityInputs(*Case->Open,
                                        "node 1 is self-marked",
                                        *Samples, 1),
                        [Case, Samples](const ResolvedModes &) {
    Label Sp = Case->Sp;
    Assertion Mine("node 1 is self-marked", [Sp](const View &S) {
      return S.self(Sp).getPtrSet().count(Ptr(1)) != 0;
    });
    return toObligation(checkStability(Mine, *Case->Open, *Samples));
  });

  // --- Main: span_tp (open world) and span_root_tp (hidden) ----------------
  // Composite units (several triples under one verdict): the declared
  // inputs enumerate exactly the (start ptr, initial state) grid the
  // closure sweeps.
  ObligationInputs SpanTpIn(ObKind::Triple);
  SpanTpIn.text("span_tp");
  SpanTpIn.mix(Case->Open->fingerprint());
  SpanTpIn.mix(fpOfDefs(Case->Defs));
  for (Ptr X : {Ptr::null(), Ptr(1), Ptr(2)})
    for (const PtrSet &EnvMarked :
         {PtrSet{}, PtrSet{Ptr(3)}, PtrSet{Ptr(2), Ptr(3)}}) {
      SpanTpIn.mix(codecFp(Val::ofPtr(X)));
      SpanTpIn.mix(
          codecFp(spanOpenState(*Case, threeNodeGraph(), EnvMarked)));
    }
  SpanTpIn.rev(1);
  Session.addObligation(ObCategory::Main, "span_tp_open_world", SpanTpIn,
                        [Case](const ResolvedModes &Modes) {
    VerifyResult Sum;
    EngineCounters Counters;
    Heap G = threeNodeGraph();
    for (Ptr X : {Ptr::null(), Ptr(1), Ptr(2)}) {
      for (const PtrSet &EnvMarked :
           {PtrSet{}, PtrSet{Ptr(3)}, PtrSet{Ptr(2), Ptr(3)}}) {
        Spec S;
        S.Name = "span_tp";
        S.C = Case->Open;
        Label Sp = Case->Sp;
        S.Pre = Assertion("x null or in graph", [Sp, X](const View &V) {
          return X.isNull() || V.joint(Sp).contains(X);
        });
        S.PostName = "Figure 4 postcondition";
        S.Post = [Case, X](const Val &R, const View &I, const View &F) {
          return spanTpPost(*Case, X, R, I, F);
        };
        ProgRef Main = Prog::call("span", {Expr::litPtr(X)});
        EngineOptions Opts;
        Opts.Ambient = Case->Open;
        Opts.EnvInterference = true;
        Opts.Defs = &Case->Defs;
        Opts.Por = Modes.Por;
        Opts.Symmetry = Modes.Sym;
        VerifyResult R = verifyTriple(
            Main, S, {VerifyInstance{spanOpenState(*Case, G, EnvMarked),
                                     {}}},
            Opts);
        Sum.ConfigsExplored += R.ConfigsExplored;
        Sum.TerminalsChecked += R.TerminalsChecked;
        Counters += R.counters();
        if (!R.Holds) {
          ObligationResult O;
          O.Passed = false;
          O.Checks = Sum.ConfigsExplored;
          O.Note = R.FailureNote;
          O.Counters = Counters;
          return O;
        }
      }
    }
    ObligationResult O;
    O.Checks = Sum.ConfigsExplored;
    O.Counters = Counters;
    return O;
  });

  std::vector<Heap> RootGraphs = {figure2Graph(), threeNodeGraph()};
  {
    Rng R(0x5eed);
    RootGraphs.push_back(randomGraph(4, R, /*ConnectedFromRoot=*/true));
  }
  ObligationInputs SpanRootIn(ObKind::Triple);
  SpanRootIn.text("span_root_tp");
  SpanRootIn.mix(Case->PrivOnly->fingerprint());
  SpanRootIn.mix(fpOfDefs(Case->Defs));
  SpanRootIn.mix(makeSpanRootProg(*Case, Ptr(1))->fingerprint());
  for (const Heap &G : RootGraphs)
    SpanRootIn.mix(codecFp(spanRootState(*Case, G)));
  SpanRootIn.rev(1);
  Session.addObligation(ObCategory::Main, "span_root_spanning_tree",
                        SpanRootIn,
                        [Case, RootGraphs](const ResolvedModes &Modes) {
    uint64_t Checks = 0;
    EngineCounters Counters;
    const std::vector<Heap> &Graphs = RootGraphs;
    for (const Heap &G : Graphs) {
      Spec S;
      S.Name = "span_root_tp";
      S.C = Case->PrivOnly;
      Label Pv = Case->Pv;
      Heap G1 = G;
      S.Pre = Assertion("private graph, connected from root",
                        [Pv, G1](const View &V) {
                          return V.self(Pv).getHeap() == G1 &&
                                 isConnectedFrom(G1, Ptr(1));
                        });
      S.PostName = "the private heap is a spanning tree of the input";
      S.Post = [Pv, G1](const Val &Res, const View &, const View &F) {
        if (!Res.isBool() || !Res.getBool())
          return false;
        const Heap &G2 = F.self(Pv).getHeap();
        if (G1.domain() != G2.domain())
          return false;
        // Edges only nullified.
        for (const auto &Cell : G1) {
          const NodeCell &Before = Cell.second.getNode();
          const NodeCell &After = G2.lookup(Cell.first).getNode();
          if (After.Left != Before.Left && !After.Left.isNull())
            return false;
          if (After.Right != Before.Right && !After.Right.isNull())
            return false;
        }
        // The final topology is a tree covering every node.
        PtrSet All;
        for (const auto &Cell : G2)
          All.insert(Cell.first);
        return isTreeIn(G2, Ptr(1), All);
      };
      ProgRef Main = makeSpanRootProg(*Case, Ptr(1));
      EngineOptions Opts;
      Opts.Ambient = Case->PrivOnly;
      Opts.EnvInterference = false;
      Opts.Defs = &Case->Defs;
      Opts.Por = Modes.Por;
      Opts.Symmetry = Modes.Sym;
      VerifyResult VR = verifyTriple(
          Main, S, {VerifyInstance{spanRootState(*Case, G), {}}}, Opts);
      Checks += VR.ConfigsExplored;
      Counters += VR.counters();
      if (!VR.Holds) {
        ObligationResult O;
        O.Passed = false;
        O.Checks = Checks;
        O.Note = VR.FailureNote;
        O.Counters = Counters;
        return O;
      }
    }
    ObligationResult O;
    O.Checks = Checks;
    O.Counters = Counters;
    return O;
  });

  return Session;
}

void fcsl::registerSpanTreeLibrary() {
  globalRegistry().registerLibrary(LibraryInfo{
      "Spanning tree",
      {ConcurroidUse{"Priv", false}, ConcurroidUse{"SpanTree", false}},
      {}});
}
