//===- heap/Heap.cpp - Heaps as finite maps with disjoint union -----------===//
//
// Part of fcsl-cpp. See Heap.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "heap/Heap.h"

#include "support/Intern.h"

#include <algorithm>
#include <cassert>

using namespace fcsl;
using fcsl::detail::HeapNode;

namespace {

detail::InternArena<HeapNode> &arena() {
  static auto *A = new detail::InternArena<HeapNode>("heap");
  return *A;
}

uint64_t heapSalt() {
  static const uint64_t Salt = fpString("fcsl.heap");
  return Salt;
}

const HeapNode *intern(std::map<Ptr, Val> Cells) {
  HeapNode H;
  uint64_t Fp = fpCombine(heapSalt(), Cells.size());
  for (const auto &Cell : Cells) {
    Fp = fpCombine(Fp, Cell.first.id());
    Fp = fpCombine(Fp, Cell.second.fingerprint());
  }
  H.Cells = std::move(Cells);
  H.Fp = Fp;
  return arena().intern(std::move(H));
}

/// Cached Heap::update results, keyed by the heap, the cell and the value
/// written.
struct UpdateKey {
  const HeapNode *N = nullptr;
  Ptr P;
  Val V;

  friend bool operator==(const UpdateKey &A, const UpdateKey &B) {
    return A.N == B.N && A.P == B.P && A.V == B.V;
  }
};
using UpdateTable = detail::ComputedTable<UpdateKey, const HeapNode *>;

/// Cached Heap::join results; a null result is the undefined join.
using JoinTable = detail::ComputedTable<
    std::pair<const HeapNode *, const HeapNode *>, const HeapNode *>;

} // namespace

const HeapNode *fcsl::detail::heapEmptyNode() {
  static const HeapNode *N = intern({});
  return N;
}

Heap Heap::singleton(Ptr P, Val V) {
  Heap H;
  H.insert(P, std::move(V));
  return H;
}

const Val *Heap::tryLookup(Ptr P) const {
  auto It = N->Cells.find(P);
  return It == N->Cells.end() ? nullptr : &It->second;
}

const Val &Heap::lookup(Ptr P) const {
  const Val *V = tryLookup(P);
  assert(V && "lookup of a pointer outside the heap domain");
  return *V;
}

void Heap::update(Ptr P, Val V) {
  thread_local UpdateTable Table("heap.update");
  UpdateKey Key{N, P, V};
  uint64_t Hash = fpCombine(fpCombine(N->Fp, P.id()), V.fingerprint());
  N = Table.get(Key, Hash, [&] {
    std::map<Ptr, Val> Cells = N->Cells;
    auto It = Cells.find(P);
    assert(It != Cells.end() && "update of a pointer outside the heap domain");
    It->second = V;
    return intern(std::move(Cells));
  });
}

void Heap::insert(Ptr P, Val V) {
  assert(!P.isNull() && "cannot allocate the null pointer");
  std::map<Ptr, Val> Cells = N->Cells;
  bool Inserted = Cells.emplace(P, std::move(V)).second;
  assert(Inserted && "insert of an already-allocated pointer");
  (void)Inserted;
  N = intern(std::move(Cells));
}

void Heap::remove(Ptr P) {
  std::map<Ptr, Val> Cells = N->Cells;
  size_t Erased = Cells.erase(P);
  assert(Erased == 1 && "free of a pointer outside the heap domain");
  (void)Erased;
  N = intern(std::move(Cells));
}

std::vector<Ptr> Heap::domain() const {
  std::vector<Ptr> Dom;
  Dom.reserve(N->Cells.size());
  for (const auto &Cell : N->Cells)
    Dom.push_back(Cell.first);
  return Dom;
}

Ptr Heap::freshPtr() const {
  uint32_t Candidate = 1;
  for (const auto &Cell : N->Cells) {
    if (Cell.first.id() != Candidate)
      break;
    ++Candidate;
  }
  return Ptr(Candidate);
}

std::optional<Heap> Heap::join(const Heap &A, const Heap &B) {
  if (A.isEmpty())
    return B;
  if (B.isEmpty())
    return A;
  thread_local JoinTable Table("heap.join");
  const HeapNode *R = Table.get(
      {A.N, B.N}, fpCombine(A.N->Fp, B.N->Fp), [&]() -> const HeapNode * {
        if (!disjoint(A, B))
          return nullptr;
        std::map<Ptr, Val> Cells = A.N->Cells;
        for (const auto &Cell : B.N->Cells)
          Cells.emplace(Cell.first, Cell.second);
        return intern(std::move(Cells));
      });
  if (!R)
    return std::nullopt;
  return Heap(R);
}

Heap Heap::without(const std::vector<Ptr> &Doomed) const {
  std::map<Ptr, Val> Cells = N->Cells;
  for (Ptr P : Doomed)
    Cells.erase(P);
  return Heap(intern(std::move(Cells)));
}

bool Heap::disjoint(const Heap &A, const Heap &B) {
  const Heap &Small = A.size() <= B.size() ? A : B;
  const Heap &Large = A.size() <= B.size() ? B : A;
  for (const auto &Cell : Small.N->Cells)
    if (Large.contains(Cell.first))
      return false;
  return true;
}

Heap Heap::renamePtrs(const std::map<Ptr, Ptr> &M) const {
  if (M.empty() || isEmpty())
    return *this;
  auto Map = [&M](Ptr P) {
    auto It = M.find(P);
    return It == M.end() ? P : It->second;
  };
  std::map<Ptr, Val> Cells;
  bool Changed = false;
  for (const auto &Cell : N->Cells) {
    Ptr P = Map(Cell.first);
    Val V = Cell.second.renamePtrs(M);
    Changed |= P != Cell.first || V != Cell.second;
    bool Inserted = Cells.emplace(P, std::move(V)).second;
    assert(Inserted && "pointer renaming must stay injective on the domain");
    (void)Inserted;
  }
  return Changed ? Heap(intern(std::move(Cells))) : *this;
}

void Heap::collectPtrs(std::set<Ptr> &Out) const {
  for (const auto &Cell : N->Cells) {
    Out.insert(Cell.first);
    Cell.second.collectPtrs(Out);
  }
}

int Heap::compare(const Heap &Other) const {
  if (N == Other.N)
    return 0;
  auto AIt = N->Cells.begin(), AEnd = N->Cells.end();
  auto BIt = Other.N->Cells.begin(), BEnd = Other.N->Cells.end();
  for (; AIt != AEnd && BIt != BEnd; ++AIt, ++BIt) {
    if (AIt->first != BIt->first)
      return AIt->first < BIt->first ? -1 : 1;
    int ValCmp = AIt->second.compare(BIt->second);
    if (ValCmp != 0)
      return ValCmp;
  }
  if (AIt != AEnd)
    return 1;
  if (BIt != BEnd)
    return -1;
  return 0;
}

std::string Heap::toString() const {
  std::string Out = "{";
  bool First = true;
  for (const auto &Cell : N->Cells) {
    if (!First)
      Out += ", ";
    First = false;
    Out += Cell.first.toString() + " :-> " + Cell.second.toString();
  }
  Out += "}";
  return Out;
}
