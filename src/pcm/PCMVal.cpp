//===- pcm/PCMVal.cpp - Dynamic PCM elements -------------------------------===//
//
// Part of fcsl-cpp. See PCMVal.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "pcm/PCMVal.h"

#include "support/Format.h"
#include "support/Intern.h"

#include <algorithm>
#include <cassert>

using namespace fcsl;
using fcsl::detail::PCMNode;

namespace {

detail::InternArena<PCMNode> &arena() {
  static auto *A = new detail::InternArena<PCMNode>("pcmval");
  return *A;
}

uint64_t pcmSalt() {
  static const uint64_t Salt = fpString("fcsl.pcmval");
  return Salt;
}

uint64_t fpOf(const PCMNode &V) {
  uint64_t Fp = fpCombine(pcmSalt(), static_cast<uint64_t>(V.K));
  switch (V.K) {
  case PCMKind::Nat:
    Fp = fpCombine(Fp, V.Nat);
    break;
  case PCMKind::Mutex:
    Fp = fpCombine(Fp, V.Own);
    break;
  case PCMKind::PtrSet:
    Fp = fpCombine(Fp, V.Set.size());
    for (Ptr P : V.Set)
      Fp = fpCombine(Fp, P.id());
    break;
  case PCMKind::HeapPCM:
    Fp = fpCombine(Fp, V.HeapVal.fingerprint());
    break;
  case PCMKind::Hist:
    Fp = fpCombine(Fp, V.Hist.fingerprint());
    break;
  case PCMKind::Pair:
    Fp = fpCombine(Fp, V.FirstN->Fp);
    Fp = fpCombine(Fp, V.SecondN->Fp);
    break;
  case PCMKind::Lift:
    // The carrier type of an undefined element is deliberately excluded:
    // structural equality (and hence interning) never distinguished
    // undefined elements by carrier, so all of them share one node.
    Fp = fpCombine(Fp, V.LiftN != nullptr);
    if (V.LiftN)
      Fp = fpCombine(Fp, V.LiftN->Fp);
    break;
  }
  return Fp;
}

const PCMNode *intern(PCMNode &&V) {
  V.Fp = fpOf(V);
  return arena().intern(std::move(V));
}

/// The interned mutex element \p Own. join() asks for the two mutex
/// constants on every call, so each is interned once.
const PCMNode *mutexNode(bool Own) {
  PCMNode V;
  V.K = PCMKind::Mutex;
  V.Own = Own;
  return intern(std::move(V));
}

} // namespace

bool PCMNode::samePayload(const PCMNode &O) const {
  if (Fp != O.Fp || K != O.K)
    return false;
  switch (K) {
  case PCMKind::Nat:
    return Nat == O.Nat;
  case PCMKind::Mutex:
    return Own == O.Own;
  case PCMKind::PtrSet:
    return Set == O.Set;
  case PCMKind::HeapPCM:
    return HeapVal == O.HeapVal;
  case PCMKind::Hist:
    return Hist == O.Hist;
  case PCMKind::Pair:
    return FirstN == O.FirstN && SecondN == O.SecondN;
  case PCMKind::Lift:
    return LiftN == O.LiftN;
  }
  return false;
}

const PCMNode *fcsl::detail::pcmNatUnitNode() {
  static const PCMNode *N = [] {
    PCMNode V;
    V.K = PCMKind::Nat;
    return intern(std::move(V));
  }();
  return N;
}

PCMVal PCMVal::ofNat(uint64_t N) {
  PCMNode V;
  V.K = PCMKind::Nat;
  V.Nat = N;
  return PCMVal(intern(std::move(V)));
}

PCMVal PCMVal::mutexOwn() {
  static const PCMNode *N = mutexNode(true);
  return PCMVal(N);
}

PCMVal PCMVal::mutexFree() {
  static const PCMNode *N = mutexNode(false);
  return PCMVal(N);
}

PCMVal PCMVal::ofPtrSet(std::set<Ptr> S) {
  PCMNode V;
  V.K = PCMKind::PtrSet;
  V.Set = std::move(S);
  return PCMVal(intern(std::move(V)));
}

PCMVal PCMVal::singletonPtr(Ptr P) {
  assert(!P.isNull() && "null cannot be a set element");
  return ofPtrSet({P});
}

PCMVal PCMVal::ofHeap(Heap H) {
  PCMNode V;
  V.K = PCMKind::HeapPCM;
  V.HeapVal = std::move(H);
  return PCMVal(intern(std::move(V)));
}

PCMVal PCMVal::ofHist(History H) {
  PCMNode V;
  V.K = PCMKind::Hist;
  V.Hist = std::move(H);
  return PCMVal(intern(std::move(V)));
}

PCMVal PCMVal::makePair(PCMVal First, PCMVal Second) {
  PCMNode V;
  V.K = PCMKind::Pair;
  V.FirstN = First.N;
  V.SecondN = Second.N;
  return PCMVal(intern(std::move(V)));
}

PCMVal PCMVal::liftDef(PCMVal Inner) {
  PCMNode V;
  V.K = PCMKind::Lift;
  V.LiftN = Inner.N;
  return PCMVal(intern(std::move(V)));
}

PCMVal PCMVal::liftUndef(PCMTypeRef Inner) {
  // All undefined elements intern to one node (they always compared equal),
  // so the stored carrier is whichever one was interned first. That is fine:
  // the carrier is advisory — only join reads it, to decorate another
  // undefined element.
  PCMNode V;
  V.K = PCMKind::Lift;
  V.LiftInnerType = std::move(Inner);
  return PCMVal(intern(std::move(V)));
}

uint64_t PCMVal::getNat() const {
  assert(N->K == PCMKind::Nat && "not a nat element");
  return N->Nat;
}

bool PCMVal::isOwn() const {
  assert(N->K == PCMKind::Mutex && "not a mutex element");
  return N->Own;
}

const std::set<Ptr> &PCMVal::getPtrSet() const {
  assert(N->K == PCMKind::PtrSet && "not a pointer-set element");
  return N->Set;
}

const Heap &PCMVal::getHeap() const {
  assert(N->K == PCMKind::HeapPCM && "not a heap element");
  return N->HeapVal;
}

const History &PCMVal::getHist() const {
  assert(N->K == PCMKind::Hist && "not a history element");
  return N->Hist;
}

PCMVal PCMVal::first() const {
  assert(N->K == PCMKind::Pair && "not a product element");
  return PCMVal(N->FirstN);
}

PCMVal PCMVal::second() const {
  assert(N->K == PCMKind::Pair && "not a product element");
  return PCMVal(N->SecondN);
}

bool PCMVal::isLiftUndef() const {
  assert(N->K == PCMKind::Lift && "not a lifted element");
  return N->LiftN == nullptr;
}

PCMVal PCMVal::liftInner() const {
  assert(N->K == PCMKind::Lift && N->LiftN &&
         "not a defined lifted element");
  return PCMVal(N->LiftN);
}

namespace {

/// Cached PCMVal::join results; a null result is the undefined join.
using JoinTable = detail::ComputedTable<
    std::pair<const PCMNode *, const PCMNode *>, const PCMNode *>;

} // namespace

std::optional<PCMVal> PCMVal::join(const PCMVal &A, const PCMVal &B) {
  assert(A.N->K == B.N->K && "joining elements of different PCMs");
  // Pair and Lift children join through join() again, so each level of a
  // product probes the table.
  auto Compute = [&A, &B]() -> const PCMNode * {
    switch (A.N->K) {
    case PCMKind::Nat:
      return ofNat(A.N->Nat + B.N->Nat).N;
    case PCMKind::Mutex:
      // Own * Own is undefined: at most one thread holds the lock token.
      if (A.N->Own && B.N->Own)
        return nullptr;
      return A.N->Own || B.N->Own ? mutexOwn().N : mutexFree().N;
    case PCMKind::PtrSet: {
      for (Ptr P : A.N->Set)
        if (B.N->Set.count(P))
          return nullptr;
      std::set<Ptr> Out = A.N->Set;
      Out.insert(B.N->Set.begin(), B.N->Set.end());
      return ofPtrSet(std::move(Out)).N;
    }
    case PCMKind::HeapPCM: {
      std::optional<Heap> H = Heap::join(A.N->HeapVal, B.N->HeapVal);
      return H ? ofHeap(std::move(*H)).N : nullptr;
    }
    case PCMKind::Hist: {
      std::optional<History> H = History::join(A.N->Hist, B.N->Hist);
      return H ? ofHist(std::move(*H)).N : nullptr;
    }
    case PCMKind::Pair: {
      std::optional<PCMVal> First = join(A.first(), B.first());
      if (!First)
        return nullptr;
      std::optional<PCMVal> Second = join(A.second(), B.second());
      if (!Second)
        return nullptr;
      return makePair(std::move(*First), std::move(*Second)).N;
    }
    case PCMKind::Lift: {
      // The lifted PCM makes join total by absorbing failures into the
      // explicit undefined element.
      PCMTypeRef InnerTy =
          A.N->LiftInnerType ? A.N->LiftInnerType : B.N->LiftInnerType;
      if (A.isLiftUndef() || B.isLiftUndef())
        return liftUndef(InnerTy).N;
      std::optional<PCMVal> Inner = join(A.liftInner(), B.liftInner());
      if (!Inner)
        return liftUndef(InnerTy).N;
      return liftDef(std::move(*Inner)).N;
    }
    }
    assert(false && "unknown PCM kind");
    return nullptr;
  };
  thread_local JoinTable Table("pcmval.join");
  const PCMNode *R =
      Table.get({A.N, B.N}, fpCombine(A.N->Fp, B.N->Fp), Compute);
  if (!R)
    return std::nullopt;
  return PCMVal(R);
}

bool PCMVal::isValid() const {
  switch (N->K) {
  case PCMKind::Pair:
    return first().isValid() && second().isValid();
  case PCMKind::Lift:
    return !isLiftUndef() && liftInner().isValid();
  default:
    return true;
  }
}

bool PCMVal::isUnitOf(const PCMType &T) const {
  return T.admits(*this) && *this == T.unit();
}

PCMVal PCMVal::renamePtrs(const std::map<Ptr, Ptr> &M) const {
  if (M.empty())
    return *this;
  switch (N->K) {
  case PCMKind::Nat:
  case PCMKind::Mutex:
    return *this;
  case PCMKind::PtrSet: {
    auto Map = [&M](Ptr P) {
      auto It = M.find(P);
      return It == M.end() ? P : It->second;
    };
    std::set<Ptr> Out;
    bool Changed = false;
    for (Ptr P : N->Set) {
      Ptr Q = Map(P);
      Changed |= Q != P;
      bool Inserted = Out.insert(Q).second;
      assert(Inserted && "pointer renaming must stay injective on the set");
      (void)Inserted;
    }
    return Changed ? ofPtrSet(std::move(Out)) : *this;
  }
  case PCMKind::HeapPCM: {
    Heap H = N->HeapVal.renamePtrs(M);
    return H == N->HeapVal ? *this : ofHeap(std::move(H));
  }
  case PCMKind::Hist: {
    History H = N->Hist.renamePtrs(M);
    return H == N->Hist ? *this : ofHist(std::move(H));
  }
  case PCMKind::Pair: {
    PCMVal First = first().renamePtrs(M);
    PCMVal Second = second().renamePtrs(M);
    if (First.N == N->FirstN && Second.N == N->SecondN)
      return *this;
    return makePair(std::move(First), std::move(Second));
  }
  case PCMKind::Lift: {
    if (isLiftUndef())
      return *this;
    PCMVal Inner = liftInner().renamePtrs(M);
    return Inner.N == N->LiftN ? *this : liftDef(std::move(Inner));
  }
  }
  assert(false && "unknown PCM kind");
  return *this;
}

void PCMVal::collectPtrs(std::set<Ptr> &Out) const {
  switch (N->K) {
  case PCMKind::Nat:
  case PCMKind::Mutex:
    return;
  case PCMKind::PtrSet:
    for (Ptr P : N->Set)
      if (!P.isNull())
        Out.insert(P);
    return;
  case PCMKind::HeapPCM:
    N->HeapVal.collectPtrs(Out);
    return;
  case PCMKind::Hist:
    N->Hist.collectPtrs(Out);
    return;
  case PCMKind::Pair:
    first().collectPtrs(Out);
    second().collectPtrs(Out);
    return;
  case PCMKind::Lift:
    if (!isLiftUndef())
      liftInner().collectPtrs(Out);
    return;
  }
  assert(false && "unknown PCM kind");
}

int PCMVal::compare(const PCMVal &Other) const {
  if (N == Other.N)
    return 0;
  if (N->K != Other.N->K)
    return N->K < Other.N->K ? -1 : 1;
  switch (N->K) {
  case PCMKind::Nat:
    if (N->Nat != Other.N->Nat)
      return N->Nat < Other.N->Nat ? -1 : 1;
    return 0;
  case PCMKind::Mutex:
    if (N->Own != Other.N->Own)
      return N->Own < Other.N->Own ? -1 : 1;
    return 0;
  case PCMKind::PtrSet: {
    const std::set<Ptr> &A = N->Set, &B = Other.N->Set;
    if (A.size() != B.size())
      return A.size() < B.size() ? -1 : 1;
    auto AIt = A.begin();
    auto BIt = B.begin();
    for (; AIt != A.end(); ++AIt, ++BIt)
      if (*AIt != *BIt)
        return *AIt < *BIt ? -1 : 1;
    return 0;
  }
  case PCMKind::HeapPCM:
    return N->HeapVal.compare(Other.N->HeapVal);
  case PCMKind::Hist:
    return N->Hist.compare(Other.N->Hist);
  case PCMKind::Pair: {
    int First = PCMVal(N->FirstN).compare(PCMVal(Other.N->FirstN));
    if (First != 0)
      return First;
    return PCMVal(N->SecondN).compare(PCMVal(Other.N->SecondN));
  }
  case PCMKind::Lift: {
    bool AUndef = isLiftUndef(), BUndef = Other.isLiftUndef();
    if (AUndef != BUndef)
      return AUndef ? -1 : 1;
    if (AUndef)
      return 0;
    return PCMVal(N->LiftN).compare(PCMVal(Other.N->LiftN));
  }
  }
  assert(false && "unknown PCM kind");
  return 0;
}

namespace {

/// Truncates \p Out to \p Limit elements if a limit is set.
void clampTo(std::vector<PCMVal> &Out, size_t Limit) {
  if (Limit != 0 && Out.size() > Limit)
    Out.resize(Limit);
}

} // namespace

std::vector<PCMVal> fcsl::enumerateSubElements(const PCMVal &V,
                                               size_t Limit) {
  std::vector<PCMVal> Out;
  switch (V.kind()) {
  case PCMKind::Nat:
    for (uint64_t N = 0; N <= V.getNat(); ++N)
      Out.push_back(PCMVal::ofNat(N));
    break;
  case PCMKind::Mutex:
    Out.push_back(PCMVal::mutexFree());
    if (V.isOwn())
      Out.push_back(PCMVal::mutexOwn());
    break;
  case PCMKind::PtrSet: {
    // All subsets; carriers in the case studies keep sets small.
    std::vector<Ptr> Elems(V.getPtrSet().begin(), V.getPtrSet().end());
    size_t Count = size_t{1} << std::min<size_t>(Elems.size(), 20);
    for (size_t Mask = 0; Mask < Count; ++Mask) {
      std::set<Ptr> Subset;
      for (size_t I = 0; I < Elems.size(); ++I)
        if (Mask & (size_t{1} << I))
          Subset.insert(Elems[I]);
      Out.push_back(PCMVal::ofPtrSet(std::move(Subset)));
      if (Limit != 0 && Out.size() >= Limit)
        break;
    }
    break;
  }
  case PCMKind::HeapPCM: {
    std::vector<std::pair<Ptr, Val>> Cells(V.getHeap().begin(),
                                           V.getHeap().end());
    size_t Count = size_t{1} << std::min<size_t>(Cells.size(), 20);
    for (size_t Mask = 0; Mask < Count; ++Mask) {
      Heap Sub;
      for (size_t I = 0; I < Cells.size(); ++I)
        if (Mask & (size_t{1} << I))
          Sub.insert(Cells[I].first, Cells[I].second);
      Out.push_back(PCMVal::ofHeap(std::move(Sub)));
      if (Limit != 0 && Out.size() >= Limit)
        break;
    }
    break;
  }
  case PCMKind::Hist: {
    std::vector<std::pair<uint64_t, HistEntry>> Entries(V.getHist().begin(),
                                                        V.getHist().end());
    size_t Count = size_t{1} << std::min<size_t>(Entries.size(), 20);
    for (size_t Mask = 0; Mask < Count; ++Mask) {
      History Sub;
      for (size_t I = 0; I < Entries.size(); ++I)
        if (Mask & (size_t{1} << I))
          Sub.add(Entries[I].first, Entries[I].second);
      Out.push_back(PCMVal::ofHist(std::move(Sub)));
      if (Limit != 0 && Out.size() >= Limit)
        break;
    }
    break;
  }
  case PCMKind::Pair: {
    std::vector<PCMVal> Firsts = enumerateSubElements(V.first(), Limit);
    std::vector<PCMVal> Seconds = enumerateSubElements(V.second(), Limit);
    for (const PCMVal &F : Firsts) {
      for (const PCMVal &S : Seconds) {
        Out.push_back(PCMVal::makePair(F, S));
        if (Limit != 0 && Out.size() >= Limit)
          break;
      }
      if (Limit != 0 && Out.size() >= Limit)
        break;
    }
    break;
  }
  case PCMKind::Lift:
    if (V.isLiftUndef()) {
      Out.push_back(V);
    } else {
      for (PCMVal &Inner : enumerateSubElements(V.liftInner(), Limit))
        Out.push_back(PCMVal::liftDef(std::move(Inner)));
    }
    break;
  }
  clampTo(Out, Limit);
  return Out;
}

std::string PCMVal::toString() const {
  switch (N->K) {
  case PCMKind::Nat:
    return formatString("%llu", static_cast<unsigned long long>(N->Nat));
  case PCMKind::Mutex:
    return N->Own ? "Own" : "NotOwn";
  case PCMKind::PtrSet: {
    std::string Out = "{";
    bool First = true;
    for (Ptr P : N->Set) {
      if (!First)
        Out += ", ";
      First = false;
      Out += P.toString();
    }
    return Out + "}";
  }
  case PCMKind::HeapPCM:
    return N->HeapVal.toString();
  case PCMKind::Hist:
    return N->Hist.toString();
  case PCMKind::Pair:
    return "<" + first().toString() + " | " + second().toString() + ">";
  case PCMKind::Lift:
    return isLiftUndef() ? "Undef"
                         : "Def(" + liftInner().toString() + ")";
  }
  assert(false && "unknown PCM kind");
  return "<?>";
}
