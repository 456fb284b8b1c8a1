//===- support/Codec.cpp - Deterministic binary state codec ----------------===//
//
// Part of fcsl-cpp. See Codec.h for the interface and format notes.
//
//===----------------------------------------------------------------------===//

#include "support/Codec.h"

#include "spec/Session.h"

#include <cassert>
#include <cstring>

using namespace fcsl;

static const char CodecMagic[4] = {'F', 'C', 'S', 'L'};

void fcsl::encodeHeader(Encoder &E) {
  for (char C : CodecMagic)
    E.u8(static_cast<uint8_t>(C));
  E.u32(CodecVersion);
}

bool fcsl::decodeHeader(Decoder &D) {
  for (char C : CodecMagic)
    if (D.u8() != static_cast<uint8_t>(C)) {
      D.fail();
      return false;
    }
  if (D.u32() != CodecVersion) {
    D.fail();
    return false;
  }
  return !D.failed();
}

//===----------------------------------------------------------------------===//
// Ptr / Val
//===----------------------------------------------------------------------===//

void fcsl::encode(Encoder &E, Ptr P) { E.u32(P.id()); }

Ptr fcsl::decodePtr(Decoder &D) { return Ptr(D.u32()); }

void fcsl::encode(Encoder &E, const Val &V) {
  E.u8(static_cast<uint8_t>(V.kind()));
  switch (V.kind()) {
  case Val::Kind::Unit:
    break;
  case Val::Kind::Int:
    E.i64(V.getInt());
    break;
  case Val::Kind::Bool:
    E.u8(V.getBool());
    break;
  case Val::Kind::Pointer:
    encode(E, V.getPtr());
    break;
  case Val::Kind::Node: {
    const NodeCell &N = V.getNode();
    E.u8(N.Marked);
    encode(E, N.Left);
    encode(E, N.Right);
    break;
  }
  case Val::Kind::Pair:
    encode(E, V.first());
    encode(E, V.second());
    break;
  }
}

Val fcsl::decodeVal(Decoder &D) {
  switch (static_cast<Val::Kind>(D.u8())) {
  case Val::Kind::Unit:
    return Val::unit();
  case Val::Kind::Int:
    return Val::ofInt(D.i64());
  case Val::Kind::Bool:
    return Val::ofBool(D.u8() != 0);
  case Val::Kind::Pointer:
    return Val::ofPtr(decodePtr(D));
  case Val::Kind::Node: {
    bool Marked = D.u8() != 0;
    Ptr Left = decodePtr(D);
    Ptr Right = decodePtr(D);
    return Val::node(Marked, Left, Right);
  }
  case Val::Kind::Pair: {
    Val First = decodeVal(D);
    Val Second = decodeVal(D);
    return Val::pair(std::move(First), std::move(Second));
  }
  }
  D.fail();
  return Val();
}

//===----------------------------------------------------------------------===//
// Heap / History
//===----------------------------------------------------------------------===//

void fcsl::encode(Encoder &E, const Heap &H) {
  E.u32(static_cast<uint32_t>(H.size()));
  for (const auto &Cell : H) {
    encode(E, Cell.first);
    encode(E, Cell.second);
  }
}

Heap fcsl::decodeHeap(Decoder &D) {
  Heap H;
  uint32_t Count = D.u32();
  for (uint32_t I = 0; I != Count && !D.failed(); ++I) {
    Ptr P = decodePtr(D);
    Val V = decodeVal(D);
    if (D.failed() || P.isNull() || H.contains(P)) {
      D.fail();
      break;
    }
    H.insert(P, std::move(V));
  }
  return D.failed() ? Heap() : H;
}

void fcsl::encode(Encoder &E, const History &H) {
  E.u32(static_cast<uint32_t>(H.size()));
  for (const auto &Entry : H) {
    E.u64(Entry.first);
    encode(E, Entry.second.Before);
    encode(E, Entry.second.After);
  }
}

History fcsl::decodeHistory(Decoder &D) {
  History H;
  uint32_t Count = D.u32();
  for (uint32_t I = 0; I != Count && !D.failed(); ++I) {
    uint64_t Stamp = D.u64();
    Val Before = decodeVal(D);
    Val After = decodeVal(D);
    if (D.failed() || Stamp == 0 || H.contains(Stamp)) {
      D.fail();
      break;
    }
    H.add(Stamp, HistEntry{std::move(Before), std::move(After)});
  }
  return D.failed() ? History() : H;
}

//===----------------------------------------------------------------------===//
// PCMType / PCMVal
//===----------------------------------------------------------------------===//

void fcsl::encode(Encoder &E, const PCMTypeRef &T) {
  // Tag 0 is "absent"; otherwise kind + 1 so the nullable case is explicit.
  if (!T) {
    E.u8(0);
    return;
  }
  E.u8(static_cast<uint8_t>(T->kind()) + 1);
  switch (T->kind()) {
  case PCMKind::Pair:
    encode(E, T->first());
    encode(E, T->second());
    break;
  case PCMKind::Lift:
    encode(E, T->inner());
    break;
  default:
    break;
  }
}

PCMTypeRef fcsl::decodePCMType(Decoder &D) {
  uint8_t Tag = D.u8();
  if (Tag == 0)
    return nullptr;
  switch (static_cast<PCMKind>(Tag - 1)) {
  case PCMKind::Nat:
    return PCMType::nat();
  case PCMKind::Mutex:
    return PCMType::mutex();
  case PCMKind::PtrSet:
    return PCMType::ptrSet();
  case PCMKind::HeapPCM:
    return PCMType::heap();
  case PCMKind::Hist:
    return PCMType::hist();
  case PCMKind::Pair: {
    PCMTypeRef First = decodePCMType(D);
    PCMTypeRef Second = decodePCMType(D);
    if (D.failed() || !First || !Second) {
      D.fail();
      return nullptr;
    }
    return PCMType::pairOf(std::move(First), std::move(Second));
  }
  case PCMKind::Lift: {
    PCMTypeRef Inner = decodePCMType(D);
    if (D.failed() || !Inner) {
      D.fail();
      return nullptr;
    }
    return PCMType::lifted(std::move(Inner));
  }
  }
  D.fail();
  return nullptr;
}

void fcsl::encode(Encoder &E, const PCMVal &V) {
  E.u8(static_cast<uint8_t>(V.kind()));
  switch (V.kind()) {
  case PCMKind::Nat:
    E.u64(V.getNat());
    break;
  case PCMKind::Mutex:
    E.u8(V.isOwn());
    break;
  case PCMKind::PtrSet: {
    const std::set<Ptr> &S = V.getPtrSet();
    E.u32(static_cast<uint32_t>(S.size()));
    for (Ptr P : S)
      encode(E, P);
    break;
  }
  case PCMKind::HeapPCM:
    encode(E, V.getHeap());
    break;
  case PCMKind::Hist:
    encode(E, V.getHist());
    break;
  case PCMKind::Pair:
    encode(E, V.first());
    encode(E, V.second());
    break;
  case PCMKind::Lift:
    E.u8(!V.isLiftUndef());
    if (V.isLiftUndef())
      encode(E, PCMTypeRef()); // carrier advisory; undefs share one node.
    else
      encode(E, V.liftInner());
    break;
  }
}

PCMVal fcsl::decodePCMVal(Decoder &D) {
  switch (static_cast<PCMKind>(D.u8())) {
  case PCMKind::Nat:
    return PCMVal::ofNat(D.u64());
  case PCMKind::Mutex:
    return D.u8() != 0 ? PCMVal::mutexOwn() : PCMVal::mutexFree();
  case PCMKind::PtrSet: {
    uint32_t Count = D.u32();
    std::set<Ptr> S;
    for (uint32_t I = 0; I != Count && !D.failed(); ++I) {
      Ptr P = decodePtr(D);
      if (P.isNull() || !S.insert(P).second) {
        D.fail();
        break;
      }
    }
    if (D.failed())
      return PCMVal();
    return PCMVal::ofPtrSet(std::move(S));
  }
  case PCMKind::HeapPCM:
    return PCMVal::ofHeap(decodeHeap(D));
  case PCMKind::Hist:
    return PCMVal::ofHist(decodeHistory(D));
  case PCMKind::Pair: {
    PCMVal First = decodePCMVal(D);
    PCMVal Second = decodePCMVal(D);
    return PCMVal::makePair(std::move(First), std::move(Second));
  }
  case PCMKind::Lift: {
    bool Defined = D.u8() != 0;
    if (!Defined)
      return PCMVal::liftUndef(decodePCMType(D));
    return PCMVal::liftDef(decodePCMVal(D));
  }
  }
  D.fail();
  return PCMVal();
}

//===----------------------------------------------------------------------===//
// View / GlobalState
//===----------------------------------------------------------------------===//

void fcsl::encode(Encoder &E, const View &V) {
  E.u32(static_cast<uint32_t>(V.numLabels()));
  for (const auto &Entry : V) {
    E.u32(Entry.first);
    encode(E, Entry.second.Self);
    encode(E, Entry.second.Joint);
    encode(E, Entry.second.Other);
  }
}

View fcsl::decodeView(Decoder &D) {
  View V;
  uint32_t Count = D.u32();
  for (uint32_t I = 0; I != Count && !D.failed(); ++I) {
    Label L = D.u32();
    PCMVal Self = decodePCMVal(D);
    Heap Joint = decodeHeap(D);
    PCMVal Other = decodePCMVal(D);
    if (D.failed() || V.hasLabel(L)) {
      D.fail();
      break;
    }
    V.addLabel(L, LabelSlice{std::move(Self), std::move(Joint),
                             std::move(Other)});
  }
  return D.failed() ? View() : V;
}

void fcsl::encode(Encoder &E, const GlobalState &S) {
  std::vector<Label> Labels = S.labels();
  E.u32(static_cast<uint32_t>(Labels.size()));
  for (Label L : Labels) {
    E.u32(L);
    encode(E, S.selfType(L));
    encode(E, S.joint(L));
    encode(E, S.envSelf(L));
    E.u8(S.isEnvClosed(L));
    const std::map<ThreadId, PCMVal> &Selves = S.selves(L);
    E.u32(static_cast<uint32_t>(Selves.size()));
    for (const auto &Entry : Selves) {
      E.u64(Entry.first);
      encode(E, Entry.second);
    }
  }
}

GlobalState fcsl::decodeGlobalState(Decoder &D) {
  GlobalState S;
  uint32_t Count = D.u32();
  for (uint32_t I = 0; I != Count && !D.failed(); ++I) {
    Label L = D.u32();
    PCMTypeRef SelfType = decodePCMType(D);
    Heap Joint = decodeHeap(D);
    PCMVal EnvSelf = decodePCMVal(D);
    bool Closed = D.u8() != 0;
    if (D.failed() || !SelfType || S.hasLabel(L)) {
      D.fail();
      break;
    }
    S.addLabel(L, SelfType, std::move(Joint), std::move(EnvSelf), Closed);
    uint32_t NumSelves = D.u32();
    for (uint32_t J = 0; J != NumSelves && !D.failed(); ++J) {
      ThreadId T = D.u64();
      PCMVal V = decodePCMVal(D);
      if (!D.failed())
        S.setSelf(L, T, std::move(V));
    }
  }
  return D.failed() ? GlobalState() : S;
}

//===----------------------------------------------------------------------===//
// Footprints
//===----------------------------------------------------------------------===//

void fcsl::encode(Encoder &E, const FpAtom &A) {
  E.u32(A.L);
  E.u8(static_cast<uint8_t>(A.Comp));
  E.u8(static_cast<uint8_t>(A.Region));
  E.u8(A.Fields);
  E.u8(A.AllCells);
  if (!A.AllCells) {
    E.u32(static_cast<uint32_t>(A.Cells.size()));
    for (Ptr P : A.Cells)
      encode(E, P);
  }
}

FpAtom fcsl::decodeFpAtom(Decoder &D) {
  FpAtom A;
  A.L = D.u32();
  uint8_t Comp = D.u8();
  uint8_t Region = D.u8();
  A.Fields = D.u8();
  A.AllCells = D.u8() != 0;
  if (Comp > static_cast<uint8_t>(FpComp::OtherAux) ||
      Region > static_cast<uint8_t>(FpRegion::Unowned)) {
    D.fail();
    return FpAtom();
  }
  A.Comp = static_cast<FpComp>(Comp);
  A.Region = static_cast<FpRegion>(Region);
  if (!A.AllCells) {
    uint32_t Count = D.u32();
    for (uint32_t I = 0; I != Count && !D.failed(); ++I) {
      Ptr P = decodePtr(D);
      // Cell lists are sorted and duplicate-free by construction.
      if (P.isNull() || (!A.Cells.empty() && !(A.Cells.back() < P))) {
        D.fail();
        break;
      }
      A.Cells.push_back(P);
    }
  }
  return D.failed() ? FpAtom() : A;
}

void fcsl::encode(Encoder &E, const Footprint &F) {
  E.u8(F.known());
  if (!F.known())
    return;
  E.u32(static_cast<uint32_t>(F.reads().size()));
  for (const FpAtom &A : F.reads())
    encode(E, A);
  E.u32(static_cast<uint32_t>(F.writes().size()));
  for (const FpAtom &A : F.writes())
    encode(E, A);
}

Footprint fcsl::decodeFootprint(Decoder &D) {
  if (D.u8() == 0)
    return Footprint();
  Footprint F = Footprint::none();
  uint32_t NumReads = D.u32();
  for (uint32_t I = 0; I != NumReads && !D.failed(); ++I)
    F.read(decodeFpAtom(D));
  uint32_t NumWrites = D.u32();
  for (uint32_t I = 0; I != NumWrites && !D.failed(); ++I)
    F.write(decodeFpAtom(D));
  return D.failed() ? Footprint() : F;
}

//===----------------------------------------------------------------------===//
// ProgTable / frontier configurations
//===----------------------------------------------------------------------===//

ProgTable::ProgTable(const Prog *Root, const DefTable *Defs) {
  if (Root)
    visit(Root);
  if (Defs)
    for (const std::string &Name : Defs->names())
      visit(Defs->lookup(Name).Body.get());
}

void ProgTable::visit(const Prog *P) {
  if (!P || Index.count(P))
    return;
  Index.emplace(P, static_cast<uint32_t>(Nodes.size()));
  Nodes.push_back(P);
  switch (P->kind()) {
  case Prog::Kind::Ret:
  case Prog::Kind::Act:
  case Prog::Kind::Call:
    break;
  case Prog::Kind::Bind:
    visit(P->first().get());
    visit(P->rest().get());
    break;
  case Prog::Kind::If:
    visit(P->thenProg().get());
    visit(P->elseProg().get());
    break;
  case Prog::Kind::Par:
    visit(P->left().get());
    visit(P->right().get());
    break;
  case Prog::Kind::Hide:
    visit(P->body().get());
    break;
  }
}

uint32_t ProgTable::indexOf(const Prog *P) const {
  auto It = Index.find(P);
  assert(It != Index.end() && "program node not in the table");
  return It->second;
}

const Prog *ProgTable::progAt(uint32_t I) const {
  assert(I < Nodes.size() && "program index out of range");
  return Nodes[I];
}

//===----------------------------------------------------------------------===//
// Dictionary-scoped contexts (DESIGN.md §14)
//===----------------------------------------------------------------------===//

namespace {

/// ProgTable::NoProg and "no entry" both need a spare value under varint
/// encoding; indices shift up by one so zero can mean "absent".
uint64_t shifted(uint32_t Idx) {
  return Idx == ProgTable::NoProg ? 0 : static_cast<uint64_t>(Idx) + 1;
}

uint32_t unshifted(Decoder &D, uint64_t V) {
  if (V == 0)
    return ProgTable::NoProg;
  if (V > 0xFFFFFFFFull) {
    D.fail();
    return ProgTable::NoProg;
  }
  return static_cast<uint32_t>(V - 1);
}

} // namespace

uint32_t NodeDictEncoder::internVal(Encoder &Defs, const Val &V) {
  auto It = ValIdx.find(V);
  if (It != ValIdx.end())
    return It->second;
  // Children first: a definition's references always point at lower
  // indices, so the decoder can resolve the stream in one pass.
  uint32_t A = 0, B = 0;
  if (V.kind() == Val::Kind::Pair) {
    A = internVal(Defs, V.first());
    B = internVal(Defs, V.second());
  }
  Defs.u8(static_cast<uint8_t>(DictDef::Val));
  Defs.u8(static_cast<uint8_t>(V.kind()));
  switch (V.kind()) {
  case Val::Kind::Unit:
    break;
  case Val::Kind::Int:
    Defs.vi(V.getInt());
    break;
  case Val::Kind::Bool:
    Defs.u8(V.getBool());
    break;
  case Val::Kind::Pointer:
    Defs.vu(V.getPtr().id());
    break;
  case Val::Kind::Node: {
    const NodeCell &N = V.getNode();
    Defs.u8(N.Marked);
    Defs.vu(N.Left.id());
    Defs.vu(N.Right.id());
    break;
  }
  case Val::Kind::Pair:
    Defs.vu(A);
    Defs.vu(B);
    break;
  }
  uint32_t Idx = Count++;
  ValIdx.emplace(V, Idx);
  return Idx;
}

uint32_t NodeDictEncoder::internHeap(Encoder &Defs, const Heap &H) {
  auto It = HeapIdx.find(H);
  if (It != HeapIdx.end())
    return It->second;
  std::vector<uint32_t> Cells;
  Cells.reserve(H.size());
  for (const auto &Cell : H)
    Cells.push_back(internVal(Defs, Cell.second));
  Defs.u8(static_cast<uint8_t>(DictDef::Heap));
  Defs.vu(H.size());
  size_t I = 0;
  for (const auto &Cell : H) {
    Defs.vu(Cell.first.id());
    Defs.vu(Cells[I++]);
  }
  uint32_t Idx = Count++;
  HeapIdx.emplace(H, Idx);
  return Idx;
}

uint32_t NodeDictEncoder::internHist(Encoder &Defs, const History &H) {
  auto It = HistIdx.find(H);
  if (It != HistIdx.end())
    return It->second;
  std::vector<std::pair<uint32_t, uint32_t>> Vals;
  Vals.reserve(H.size());
  for (const auto &Entry : H)
    Vals.emplace_back(internVal(Defs, Entry.second.Before),
                      internVal(Defs, Entry.second.After));
  Defs.u8(static_cast<uint8_t>(DictDef::Hist));
  Defs.vu(H.size());
  size_t I = 0;
  for (const auto &Entry : H) {
    Defs.vu(Entry.first);
    Defs.vu(Vals[I].first);
    Defs.vu(Vals[I].second);
    ++I;
  }
  uint32_t Idx = Count++;
  HistIdx.emplace(H, Idx);
  return Idx;
}

uint32_t NodeDictEncoder::internPcm(Encoder &Defs, const PCMVal &V) {
  auto It = PcmIdx.find(V);
  if (It != PcmIdx.end())
    return It->second;
  uint32_t A = 0, B = 0;
  switch (V.kind()) {
  case PCMKind::HeapPCM:
    A = internHeap(Defs, V.getHeap());
    break;
  case PCMKind::Hist:
    A = internHist(Defs, V.getHist());
    break;
  case PCMKind::Pair:
    A = internPcm(Defs, V.first());
    B = internPcm(Defs, V.second());
    break;
  case PCMKind::Lift:
    if (!V.isLiftUndef())
      A = internPcm(Defs, V.liftInner());
    break;
  default:
    break;
  }
  Defs.u8(static_cast<uint8_t>(DictDef::Pcm));
  Defs.u8(static_cast<uint8_t>(V.kind()));
  switch (V.kind()) {
  case PCMKind::Nat:
    Defs.vu(V.getNat());
    break;
  case PCMKind::Mutex:
    Defs.u8(V.isOwn());
    break;
  case PCMKind::PtrSet: {
    const std::set<Ptr> &S = V.getPtrSet();
    Defs.vu(S.size());
    for (Ptr P : S)
      Defs.vu(P.id());
    break;
  }
  case PCMKind::HeapPCM:
  case PCMKind::Hist:
    Defs.vu(A);
    break;
  case PCMKind::Pair:
    Defs.vu(A);
    Defs.vu(B);
    break;
  case PCMKind::Lift:
    Defs.u8(!V.isLiftUndef());
    if (V.isLiftUndef())
      Defs.vu(0); // carrier advisory; undefs share one node.
    else
      Defs.vu(A);
    break;
  }
  uint32_t Idx = Count++;
  PcmIdx.emplace(V, Idx);
  return Idx;
}

uint32_t NodeDictEncoder::internPcmType(Encoder &Defs, const PCMTypeRef &T) {
  assert(T && "nullable carriers encode as index 0 at the use site");
  Encoder Key;
  encode(Key, T);
  auto It = TypeIdx.find(Key.buffer());
  if (It != TypeIdx.end())
    return It->second;
  uint32_t A = 0, B = 0;
  switch (T->kind()) {
  case PCMKind::Pair:
    A = internPcmType(Defs, T->first());
    B = internPcmType(Defs, T->second());
    break;
  case PCMKind::Lift:
    A = internPcmType(Defs, T->inner());
    break;
  default:
    break;
  }
  Defs.u8(static_cast<uint8_t>(DictDef::PcmType));
  Defs.u8(static_cast<uint8_t>(T->kind()));
  switch (T->kind()) {
  case PCMKind::Pair:
    Defs.vu(A);
    Defs.vu(B);
    break;
  case PCMKind::Lift:
    Defs.vu(A);
    break;
  default:
    break;
  }
  uint32_t Idx = Count++;
  TypeIdx.emplace(Key.take(), Idx);
  return Idx;
}

uint32_t NodeDictEncoder::internStr(Encoder &Defs, const std::string &S) {
  auto It = StrIdx.find(S);
  if (It != StrIdx.end())
    return It->second;
  Defs.u8(static_cast<uint8_t>(DictDef::Str));
  Defs.vu(S.size());
  for (char C : S)
    Defs.u8(static_cast<uint8_t>(C));
  uint32_t Idx = Count++;
  StrIdx.emplace(S, Idx);
  return Idx;
}

uint32_t NodeDictEncoder::internThread(Encoder &Defs, const FrontierThread &T) {
  // Build the body in a scratch encoder: interning children first keeps
  // the children-before-parents stream invariant, and the finished body
  // bytes double as the dedup key (child references are deterministic per
  // dictionary, so byte equality is structural equality). A dedup hit
  // appends no definitions — its children were interned by the first copy.
  Encoder Body;
  Body.vu(T.Id);
  Body.u8(T.Waiting);
  Body.vu(T.SymGroup);
  Body.u8(T.Done.has_value());
  if (T.Done)
    Body.vu(internVal(Defs, *T.Done));
  Body.vu(T.Frames.size());
  for (const FrontierFrame &F : T.Frames) {
    Body.u8(F.Kind);
    Body.vu(shifted(F.Node));
    Body.vu(shifted(F.Rest));
    Body.vu(internStr(Defs, F.Var));
    Body.vu(F.Env.size());
    for (const auto &Binding : F.Env) {
      Body.vu(internStr(Defs, Binding.first));
      Body.vu(internVal(Defs, Binding.second));
    }
  }
  auto It = ThreadIdx.find(Body.buffer());
  if (It != ThreadIdx.end())
    return It->second;
  Defs.u8(static_cast<uint8_t>(DictDef::Thread));
  Defs.raw(Body.buffer());
  uint32_t Idx = Count++;
  ThreadIdx.emplace(Body.take(), Idx);
  return Idx;
}

uint32_t NodeDictEncoder::internLabelState(Encoder &Defs,
                                           const GlobalState &GS, Label L) {
  Encoder Body;
  Body.vu(L);
  Body.vu(internPcmType(Defs, GS.selfType(L)));
  Body.vu(internHeap(Defs, GS.joint(L)));
  Body.vu(internPcm(Defs, GS.envSelf(L)));
  Body.u8(GS.isEnvClosed(L));
  const std::map<ThreadId, PCMVal> &Selves = GS.selves(L);
  Body.vu(Selves.size());
  for (const auto &Entry : Selves) {
    Body.vu(Entry.first);
    Body.vu(internPcm(Defs, Entry.second));
  }
  auto It = LabelIdx.find(Body.buffer());
  if (It != LabelIdx.end())
    return It->second;
  Defs.u8(static_cast<uint8_t>(DictDef::LabelState));
  Defs.raw(Body.buffer());
  uint32_t Idx = Count++;
  LabelIdx.emplace(Body.take(), Idx);
  return Idx;
}

void NodeDictEncoder::encodeConfig(Encoder &Defs, Encoder &Refs,
                                   const FrontierConfig &C) {
  // Global state: one composite reference per label slice. Successive
  // configs usually change one label's slice (or none), so the rest cost
  // one varint each.
  std::vector<Label> Labels = C.GS.labels();
  Refs.vu(Labels.size());
  for (Label L : Labels)
    Refs.vu(internLabelState(Defs, C.GS, L));
  // Threads: one composite reference per stack — only the thread that
  // stepped since the last shipped config defines a new node.
  Refs.vu(C.Threads.size());
  for (const FrontierThread &T : C.Threads)
    Refs.vu(internThread(Defs, T));
  // Wake payload and the accounting flag (sleep footprints are rare and
  // stay plainly encoded).
  Refs.vu(C.Sleep.size());
  for (const FrontierSleep &S : C.Sleep) {
    Refs.u8(S.IsEnv);
    Refs.vu(S.T);
    Refs.vu(shifted(S.ActNode));
    Refs.vu(S.EnvIdx);
  }
  Refs.vu(C.EnvCloseMask);
  for (const FrontierSleep &S : C.Sleep)
    encode(Refs, S.Fp);
  Refs.u8(C.Counts);
}

const NodeDictDecoder::Entry *NodeDictDecoder::entryAt(Decoder &D,
                                                       DictDef Kind) {
  if (Corrupt) {
    D.fail();
    return nullptr;
  }
  uint64_t Idx = D.vu();
  if (D.failed())
    return nullptr;
  if (Idx >= Entries.size() || Entries[Idx].Kind != Kind) {
    D.fail(); // Out-of-range or kind-mismatched dictionary reference.
    return nullptr;
  }
  return &Entries[Idx];
}

const Val *NodeDictDecoder::valAt(Decoder &D) {
  const Entry *E = entryAt(D, DictDef::Val);
  return E ? &E->V : nullptr;
}
const Heap *NodeDictDecoder::heapAt(Decoder &D) {
  const Entry *E = entryAt(D, DictDef::Heap);
  return E ? &E->H : nullptr;
}
const History *NodeDictDecoder::histAt(Decoder &D) {
  const Entry *E = entryAt(D, DictDef::Hist);
  return E ? &E->Hist : nullptr;
}
const PCMVal *NodeDictDecoder::pcmAt(Decoder &D) {
  const Entry *E = entryAt(D, DictDef::Pcm);
  return E ? &E->P : nullptr;
}
const PCMTypeRef *NodeDictDecoder::typeAt(Decoder &D) {
  const Entry *E = entryAt(D, DictDef::PcmType);
  return E ? &E->T : nullptr;
}
const std::string *NodeDictDecoder::strAt(Decoder &D) {
  const Entry *E = entryAt(D, DictDef::Str);
  return E ? &E->S : nullptr;
}

bool NodeDictDecoder::feedDefs(const uint8_t *Data, size_t N) {
  if (Corrupt)
    return false;
  Decoder D(Data, N);
  while (!D.atEnd()) {
    uint8_t Tag = D.u8();
    Entry E;
    switch (static_cast<DictDef>(Tag)) {
    case DictDef::Val: {
      E.Kind = DictDef::Val;
      switch (static_cast<Val::Kind>(D.u8())) {
      case Val::Kind::Unit:
        E.V = Val::unit();
        break;
      case Val::Kind::Int:
        E.V = Val::ofInt(D.vi());
        break;
      case Val::Kind::Bool:
        E.V = Val::ofBool(D.u8() != 0);
        break;
      case Val::Kind::Pointer:
        E.V = Val::ofPtr(Ptr(static_cast<uint32_t>(D.vu())));
        break;
      case Val::Kind::Node: {
        bool Marked = D.u8() != 0;
        Ptr Left(static_cast<uint32_t>(D.vu()));
        Ptr Right(static_cast<uint32_t>(D.vu()));
        E.V = Val::node(Marked, Left, Right);
        break;
      }
      case Val::Kind::Pair: {
        const Val *A = valAt(D);
        const Val *B = valAt(D);
        if (A && B)
          E.V = Val::pair(*A, *B);
        break;
      }
      default:
        D.fail();
        break;
      }
      break;
    }
    case DictDef::Heap: {
      E.Kind = DictDef::Heap;
      uint64_t Cells = D.vu();
      Heap H;
      for (uint64_t I = 0; I != Cells && !D.failed(); ++I) {
        Ptr P(static_cast<uint32_t>(D.vu()));
        const Val *V = valAt(D);
        if (!V || P.isNull() || H.contains(P)) {
          D.fail();
          break;
        }
        H.insert(P, *V);
      }
      E.H = std::move(H);
      break;
    }
    case DictDef::Hist: {
      E.Kind = DictDef::Hist;
      uint64_t N2 = D.vu();
      History H;
      for (uint64_t I = 0; I != N2 && !D.failed(); ++I) {
        uint64_t Stamp = D.vu();
        const Val *Before = valAt(D);
        const Val *After = valAt(D);
        if (!Before || !After || Stamp == 0 || H.contains(Stamp)) {
          D.fail();
          break;
        }
        H.add(Stamp, HistEntry{*Before, *After});
      }
      E.Hist = std::move(H);
      break;
    }
    case DictDef::Pcm: {
      E.Kind = DictDef::Pcm;
      switch (static_cast<PCMKind>(D.u8())) {
      case PCMKind::Nat:
        E.P = PCMVal::ofNat(D.vu());
        break;
      case PCMKind::Mutex:
        E.P = D.u8() != 0 ? PCMVal::mutexOwn() : PCMVal::mutexFree();
        break;
      case PCMKind::PtrSet: {
        uint64_t N2 = D.vu();
        std::set<Ptr> S;
        for (uint64_t I = 0; I != N2 && !D.failed(); ++I) {
          Ptr P(static_cast<uint32_t>(D.vu()));
          if (P.isNull() || !S.insert(P).second) {
            D.fail();
            break;
          }
        }
        if (!D.failed())
          E.P = PCMVal::ofPtrSet(std::move(S));
        break;
      }
      case PCMKind::HeapPCM: {
        const Heap *H = heapAt(D);
        if (H)
          E.P = PCMVal::ofHeap(*H);
        break;
      }
      case PCMKind::Hist: {
        const History *H = histAt(D);
        if (H)
          E.P = PCMVal::ofHist(*H);
        break;
      }
      case PCMKind::Pair: {
        const PCMVal *A = pcmAt(D);
        const PCMVal *B = pcmAt(D);
        if (A && B)
          E.P = PCMVal::makePair(*A, *B);
        break;
      }
      case PCMKind::Lift: {
        bool Defined = D.u8() != 0;
        if (!Defined) {
          uint64_t TRef = D.vu();
          if (TRef == 0) {
            E.P = PCMVal::liftUndef(nullptr);
          } else if (TRef - 1 >= Entries.size() ||
                     Entries[TRef - 1].Kind != DictDef::PcmType) {
            D.fail();
          } else {
            E.P = PCMVal::liftUndef(Entries[TRef - 1].T);
          }
        } else {
          const PCMVal *Inner = pcmAt(D);
          if (Inner)
            E.P = PCMVal::liftDef(*Inner);
        }
        break;
      }
      default:
        D.fail();
        break;
      }
      break;
    }
    case DictDef::PcmType: {
      E.Kind = DictDef::PcmType;
      switch (static_cast<PCMKind>(D.u8())) {
      case PCMKind::Nat:
        E.T = PCMType::nat();
        break;
      case PCMKind::Mutex:
        E.T = PCMType::mutex();
        break;
      case PCMKind::PtrSet:
        E.T = PCMType::ptrSet();
        break;
      case PCMKind::HeapPCM:
        E.T = PCMType::heap();
        break;
      case PCMKind::Hist:
        E.T = PCMType::hist();
        break;
      case PCMKind::Pair: {
        const PCMTypeRef *A = typeAt(D);
        const PCMTypeRef *B = typeAt(D);
        if (A && B)
          E.T = PCMType::pairOf(*A, *B);
        break;
      }
      case PCMKind::Lift: {
        const PCMTypeRef *Inner = typeAt(D);
        if (Inner)
          E.T = PCMType::lifted(*Inner);
        break;
      }
      default:
        D.fail();
        break;
      }
      break;
    }
    case DictDef::Str: {
      E.Kind = DictDef::Str;
      uint64_t Len = D.vu();
      if (Len > D.remaining()) {
        D.fail();
        break;
      }
      std::string S;
      S.reserve(Len);
      for (uint64_t I = 0; I != Len && !D.failed(); ++I)
        S.push_back(static_cast<char>(D.u8()));
      E.S = std::move(S);
      break;
    }
    case DictDef::Thread: {
      E.Kind = DictDef::Thread;
      FrontierThread T;
      T.Id = D.vu();
      T.Waiting = D.u8() != 0;
      T.SymGroup = D.vu();
      if (D.u8() != 0) {
        const Val *V = valAt(D);
        if (V)
          T.Done = *V;
      }
      uint64_t NumFrames = D.vu();
      if (NumFrames > D.remaining()) {
        D.fail();
        break;
      }
      for (uint64_t I = 0; I != NumFrames && !D.failed(); ++I) {
        FrontierFrame F;
        F.Kind = D.u8();
        F.Node = unshifted(D, D.vu());
        F.Rest = unshifted(D, D.vu());
        const std::string *Var = strAt(D);
        if (Var)
          F.Var = *Var;
        uint64_t NumBindings = D.vu();
        for (uint64_t K = 0; K != NumBindings && !D.failed(); ++K) {
          const std::string *Name = strAt(D);
          const Val *V = valAt(D);
          if (Name && V)
            F.Env.emplace(*Name, *V);
        }
        T.Frames.push_back(std::move(F));
      }
      E.FT = std::move(T);
      break;
    }
    case DictDef::LabelState: {
      E.Kind = DictDef::LabelState;
      E.LsLabel = static_cast<Label>(D.vu());
      const PCMTypeRef *T = typeAt(D);
      const Heap *J = heapAt(D);
      const PCMVal *Env = pcmAt(D);
      E.LsClosed = D.u8() != 0;
      if (!T || !*T || !J || !Env) {
        D.fail();
        break;
      }
      E.LsType = *T;
      E.LsJoint = *J;
      E.LsEnv = *Env;
      uint64_t NumSelves = D.vu();
      if (NumSelves > D.remaining()) {
        D.fail();
        break;
      }
      for (uint64_t I = 0; I != NumSelves && !D.failed(); ++I) {
        ThreadId Tid = D.vu();
        const PCMVal *V = pcmAt(D);
        if (V)
          E.LsSelves.emplace_back(Tid, *V);
      }
      break;
    }
    default:
      D.fail();
      break;
    }
    if (D.failed()) {
      Corrupt = true;
      return false;
    }
    Entries.push_back(std::move(E));
  }
  return true;
}

FrontierConfig NodeDictDecoder::decodeConfig(Decoder &D) {
  FrontierConfig C;
  if (Corrupt) {
    D.fail();
    return C;
  }
  uint64_t NumLabels = D.vu();
  for (uint64_t I = 0; I != NumLabels && !D.failed(); ++I) {
    const Entry *E = entryAt(D, DictDef::LabelState);
    if (!E || C.GS.hasLabel(E->LsLabel)) {
      D.fail();
      break;
    }
    C.GS.addLabel(E->LsLabel, E->LsType, E->LsJoint, E->LsEnv, E->LsClosed);
    for (const auto &Self : E->LsSelves)
      C.GS.setSelf(E->LsLabel, Self.first, Self.second);
  }
  uint64_t NumThreads = D.vu();
  for (uint64_t I = 0; I != NumThreads && !D.failed(); ++I) {
    const Entry *E = entryAt(D, DictDef::Thread);
    if (!E)
      break;
    C.Threads.push_back(E->FT);
  }
  uint64_t NumSleep = D.vu();
  if (NumSleep > D.remaining())
    D.fail();
  for (uint64_t I = 0; I != NumSleep && !D.failed(); ++I) {
    FrontierSleep S;
    uint8_t IsEnv = D.u8();
    if (IsEnv > 1) {
      D.fail();
      break;
    }
    S.IsEnv = IsEnv != 0;
    S.T = D.vu();
    S.ActNode = unshifted(D, D.vu());
    S.EnvIdx = D.vu();
    C.Sleep.push_back(std::move(S));
  }
  C.EnvCloseMask = static_cast<uint32_t>(D.vu());
  for (size_t I = 0; I != C.Sleep.size() && !D.failed(); ++I)
    C.Sleep[I].Fp = decodeFootprint(D);
  uint8_t Counts = D.u8();
  if (Counts > 1)
    D.fail();
  C.Counts = Counts != 0;
  return D.failed() ? FrontierConfig() : C;
}

//===----------------------------------------------------------------------===//
// SessionReport — the payload of the service's Report frame.
//===----------------------------------------------------------------------===//

namespace {

// Doubles travel as their IEEE-754 bit pattern so a daemon-served report
// round-trips bit-identically (the codec has no native float lane).
void encodeDouble(Encoder &E, double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V), "double must be 64-bit");
  std::memcpy(&Bits, &V, sizeof(Bits));
  E.u64(Bits);
}

double decodeDouble(Decoder &D) {
  uint64_t Bits = D.u64();
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

} // namespace

void fcsl::encode(Encoder &E, const SessionReport &R) {
  E.str(R.Program);
  E.u8(R.AllPassed ? 1 : 0);
  for (const CategoryStats &S : R.PerCategory) {
    E.u64(S.Obligations);
    E.u64(S.Checks);
    encodeDouble(E, S.ElapsedMs);
  }
  encodeDouble(E, R.TotalMs);
  E.u32(static_cast<uint32_t>(R.Failures.size()));
  for (const std::string &F : R.Failures)
    E.str(F);
  E.u64(R.Cache.Hits);
  E.u64(R.Cache.Misses);
  E.u64(R.Cache.StaleFlags);
  E.u64(R.Cache.Stores);
  E.u64(R.Cache.CheckRuns);
  E.u64(R.Cache.Divergences);
  E.u64(R.Cache.Unkeyed);
  E.u64(R.Cache.ReplayedChecks);
  E.u64(R.Cache.ReplayedConfigs);
  E.u64(R.Cache.ReplayedUs);
}

SessionReport fcsl::decodeSessionReport(Decoder &D) {
  SessionReport R;
  R.Program = D.str();
  uint8_t Passed = D.u8();
  if (Passed > 1)
    D.fail();
  R.AllPassed = Passed != 0;
  for (CategoryStats &S : R.PerCategory) {
    S.Obligations = D.u64();
    S.Checks = D.u64();
    S.ElapsedMs = decodeDouble(D);
  }
  R.TotalMs = decodeDouble(D);
  uint32_t NumFailures = D.u32();
  for (uint32_t I = 0; I != NumFailures && !D.failed(); ++I)
    R.Failures.push_back(D.str());
  R.Cache.Hits = D.u64();
  R.Cache.Misses = D.u64();
  R.Cache.StaleFlags = D.u64();
  R.Cache.Stores = D.u64();
  R.Cache.CheckRuns = D.u64();
  R.Cache.Divergences = D.u64();
  R.Cache.Unkeyed = D.u64();
  R.Cache.ReplayedChecks = D.u64();
  R.Cache.ReplayedConfigs = D.u64();
  R.Cache.ReplayedUs = D.u64();
  return D.failed() ? SessionReport() : R;
}
