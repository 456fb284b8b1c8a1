//===- pcm/Histories.cpp - Time-stamped action histories ------------------===//
//
// Part of fcsl-cpp. See Histories.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "pcm/Histories.h"

#include "support/Format.h"
#include "support/Intern.h"

#include <cassert>

using namespace fcsl;
using fcsl::detail::HistNode;

namespace {

detail::InternArena<HistNode> &arena() {
  static auto *A = new detail::InternArena<HistNode>("history");
  return *A;
}

uint64_t histSalt() {
  static const uint64_t Salt = fpString("fcsl.hist");
  return Salt;
}

const HistNode *intern(std::map<uint64_t, HistEntry> Entries) {
  HistNode H;
  uint64_t Fp = fpCombine(histSalt(), Entries.size());
  for (const auto &Entry : Entries) {
    Fp = fpCombine(Fp, Entry.first);
    Fp = fpCombine(Fp, Entry.second.Before.fingerprint());
    Fp = fpCombine(Fp, Entry.second.After.fingerprint());
  }
  H.Entries = std::move(Entries);
  H.Fp = Fp;
  return arena().intern(std::move(H));
}

/// Cached History::add results, keyed by the history, the stamp and the
/// entry's two values.
struct AddKey {
  const HistNode *N = nullptr;
  uint64_t T = 0;
  Val Before;
  Val After;

  friend bool operator==(const AddKey &A, const AddKey &B) {
    return A.N == B.N && A.T == B.T && A.Before == B.Before &&
           A.After == B.After;
  }
};
using AddTable = detail::ComputedTable<AddKey, const HistNode *>;

/// Cached History::join results; a null result is the undefined join.
using JoinTable = detail::ComputedTable<
    std::pair<const HistNode *, const HistNode *>, const HistNode *>;

} // namespace

const HistNode *fcsl::detail::histEmptyNode() {
  static const HistNode *N = intern({});
  return N;
}

const HistEntry *History::tryLookup(uint64_t T) const {
  auto It = N->Entries.find(T);
  return It == N->Entries.end() ? nullptr : &It->second;
}

void History::add(uint64_t T, HistEntry E) {
  assert(T != 0 && "timestamp 0 is reserved");
  thread_local AddTable Table("history.add");
  AddKey Key{N, T, E.Before, E.After};
  uint64_t Hash = fpCombine(fpCombine(N->Fp, T), E.Before.fingerprint());
  N = Table.get(Key, fpCombine(Hash, E.After.fingerprint()), [&] {
    std::map<uint64_t, HistEntry> Entries = N->Entries;
    bool Inserted = Entries.emplace(T, E).second;
    assert(Inserted && "duplicate timestamp in history");
    (void)Inserted;
    return intern(std::move(Entries));
  });
}

uint64_t History::lastStamp() const {
  return N->Entries.empty() ? 0 : N->Entries.rbegin()->first;
}

std::optional<History> History::join(const History &A, const History &B) {
  if (A.isEmpty())
    return B;
  if (B.isEmpty())
    return A;
  thread_local JoinTable Table("history.join");
  const HistNode *R =
      Table.get({A.N, B.N}, fpCombine(A.N->Fp, B.N->Fp),
                [&]() -> const HistNode * {
                  const History &Small = A.size() <= B.size() ? A : B;
                  const History &Large = A.size() <= B.size() ? B : A;
                  for (const auto &Entry : Small.N->Entries)
                    if (Large.contains(Entry.first))
                      return nullptr;
                  std::map<uint64_t, HistEntry> Entries = Large.N->Entries;
                  for (const auto &Entry : Small.N->Entries)
                    Entries.emplace(Entry.first, Entry.second);
                  return intern(std::move(Entries));
                });
  if (!R)
    return std::nullopt;
  return History(R);
}

bool History::isContinuous() const {
  uint64_t Expected = 1;
  const Val *PrevAfter = nullptr;
  for (const auto &Entry : N->Entries) {
    if (Entry.first != Expected)
      return false;
    if (PrevAfter && !(*PrevAfter == Entry.second.Before))
      return false;
    PrevAfter = &Entry.second.After;
    ++Expected;
  }
  return true;
}

History History::renamePtrs(const std::map<Ptr, Ptr> &M) const {
  if (M.empty() || isEmpty())
    return *this;
  std::map<uint64_t, HistEntry> Entries;
  bool Changed = false;
  for (const auto &Entry : N->Entries) {
    HistEntry E{Entry.second.Before.renamePtrs(M),
                Entry.second.After.renamePtrs(M)};
    Changed |= !(E == Entry.second);
    Entries.emplace(Entry.first, std::move(E));
  }
  return Changed ? History(intern(std::move(Entries))) : *this;
}

void History::collectPtrs(std::set<Ptr> &Out) const {
  for (const auto &Entry : N->Entries) {
    Entry.second.Before.collectPtrs(Out);
    Entry.second.After.collectPtrs(Out);
  }
}

int History::compare(const History &Other) const {
  if (N == Other.N)
    return 0;
  auto AIt = N->Entries.begin(), AEnd = N->Entries.end();
  auto BIt = Other.N->Entries.begin(), BEnd = Other.N->Entries.end();
  for (; AIt != AEnd && BIt != BEnd; ++AIt, ++BIt) {
    if (AIt->first != BIt->first)
      return AIt->first < BIt->first ? -1 : 1;
    if (!(AIt->second == BIt->second))
      return AIt->second < BIt->second ? -1 : 1;
  }
  if (AIt != AEnd)
    return 1;
  if (BIt != BEnd)
    return -1;
  return 0;
}

std::string History::toString() const {
  std::string Out = "[";
  bool First = true;
  for (const auto &Entry : N->Entries) {
    if (!First)
      Out += ", ";
    First = false;
    Out += formatString("%llu: %s ~> %s",
                        static_cast<unsigned long long>(Entry.first),
                        Entry.second.Before.toString().c_str(),
                        Entry.second.After.toString().c_str());
  }
  Out += "]";
  return Out;
}
