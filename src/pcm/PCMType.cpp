//===- pcm/PCMType.cpp - PCM type descriptors ------------------------------===//
//
// Part of fcsl-cpp. See PCMType.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "pcm/PCMType.h"

#include "pcm/PCMVal.h"

#include <cassert>

using namespace fcsl;

PCMTypeRef PCMType::nat() {
  static PCMTypeRef T = finish(new PCMType(PCMKind::Nat));
  return T;
}

PCMTypeRef PCMType::mutex() {
  static PCMTypeRef T = finish(new PCMType(PCMKind::Mutex));
  return T;
}

PCMTypeRef PCMType::ptrSet() {
  static PCMTypeRef T = finish(new PCMType(PCMKind::PtrSet));
  return T;
}

PCMTypeRef PCMType::heap() {
  static PCMTypeRef T = finish(new PCMType(PCMKind::HeapPCM));
  return T;
}

PCMTypeRef PCMType::hist() {
  static PCMTypeRef T = finish(new PCMType(PCMKind::Hist));
  return T;
}

PCMTypeRef PCMType::pairOf(PCMTypeRef First, PCMTypeRef Second) {
  assert(First && Second && "pair components must be non-null");
  auto *T = new PCMType(PCMKind::Pair);
  T->First = std::move(First);
  T->Second = std::move(Second);
  return finish(T);
}

PCMTypeRef PCMType::lifted(PCMTypeRef Inner) {
  assert(Inner && "lifted component must be non-null");
  auto *T = new PCMType(PCMKind::Lift);
  T->Inner = std::move(Inner);
  return finish(T);
}

const PCMTypeRef &PCMType::first() const {
  assert(K == PCMKind::Pair && "not a product PCM");
  return First;
}

const PCMTypeRef &PCMType::second() const {
  assert(K == PCMKind::Pair && "not a product PCM");
  return Second;
}

const PCMTypeRef &PCMType::inner() const {
  assert(K == PCMKind::Lift && "not a lifted PCM");
  return Inner;
}

PCMType::~PCMType() = default;

PCMTypeRef PCMType::finish(PCMType *T) {
  auto UnitOf = [T]() -> PCMVal {
    switch (T->K) {
    case PCMKind::Nat:
      return PCMVal::ofNat(0);
    case PCMKind::Mutex:
      return PCMVal::mutexFree();
    case PCMKind::PtrSet:
      return PCMVal::ofPtrSet({});
    case PCMKind::HeapPCM:
      return PCMVal::ofHeap(Heap());
    case PCMKind::Hist:
      return PCMVal::ofHist(History());
    case PCMKind::Pair:
      return PCMVal::makePair(T->First->unit(), T->Second->unit());
    case PCMKind::Lift:
      return PCMVal::liftDef(T->Inner->unit());
    }
    assert(false && "unknown PCM kind");
    return PCMVal();
  };
  T->Unit = std::make_unique<const PCMVal>(UnitOf());
  return PCMTypeRef(T);
}

const PCMVal &PCMType::unit() const { return *Unit; }

bool PCMType::admits(const PCMVal &V) const {
  if (V.kind() != K)
    return false;
  switch (K) {
  case PCMKind::Pair:
    return First->admits(V.first()) && Second->admits(V.second());
  case PCMKind::Lift:
    return V.isLiftUndef() || Inner->admits(V.liftInner());
  default:
    return true;
  }
}

std::string PCMType::name() const {
  switch (K) {
  case PCMKind::Nat:
    return "nat";
  case PCMKind::Mutex:
    return "mutex";
  case PCMKind::PtrSet:
    return "ptrset";
  case PCMKind::HeapPCM:
    return "heap";
  case PCMKind::Hist:
    return "hist";
  case PCMKind::Pair:
    return "(" + First->name() + " x " + Second->name() + ")";
  case PCMKind::Lift:
    return "lift(" + Inner->name() + ")";
  }
  assert(false && "unknown PCM kind");
  return "<?>";
}

bool fcsl::operator==(const PCMType &A, const PCMType &B) {
  if (A.K != B.K)
    return false;
  switch (A.K) {
  case PCMKind::Pair:
    return *A.First == *B.First && *A.Second == *B.Second;
  case PCMKind::Lift:
    return *A.Inner == *B.Inner;
  default:
    return true;
  }
}
