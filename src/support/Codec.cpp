//===- support/Codec.cpp - Deterministic binary state codec ----------------===//
//
// Part of fcsl-cpp. See Codec.h for the interface and format notes.
//
//===----------------------------------------------------------------------===//

#include "support/Codec.h"

#include "spec/Session.h"

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
