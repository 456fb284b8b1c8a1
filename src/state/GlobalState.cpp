//===- state/GlobalState.cpp - Whole-system instrumented state -------------===//
//
// Part of fcsl-cpp. See GlobalState.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "state/GlobalState.h"

#include <algorithm>
#include <cassert>

using namespace fcsl;

void GlobalState::addLabel(Label L, PCMTypeRef SelfType, Heap Joint,
                           PCMVal EnvSelf, bool Closed) {
  assert(!hasLabel(L) && "label already installed");
  assert(SelfType && "label needs a self-PCM carrier");
  SelfTypes.emplace(L, std::move(SelfType));
  Joints.emplace(L, std::move(Joint));
  Selves.emplace(L, std::map<ThreadId, PCMVal>());
  setEnvSelf(L, std::move(EnvSelf));
  if (Closed)
    EnvClosed.insert(L);
}

Heap GlobalState::removeLabel(Label L) {
  assert(hasLabel(L) && "label not installed");
  Heap Out = Joints.at(L);
  SelfTypes.erase(L);
  Joints.erase(L);
  Selves.erase(L);
  EnvSelves.erase(L);
  EnvClosed.erase(L);
  return Out;
}

std::vector<Label> GlobalState::labels() const {
  std::vector<Label> Out;
  Out.reserve(SelfTypes.size());
  for (const auto &Entry : SelfTypes)
    Out.push_back(Entry.first);
  return Out;
}

const PCMTypeRef &GlobalState::selfType(Label L) const {
  auto It = SelfTypes.find(L);
  assert(It != SelfTypes.end() && "label not installed");
  return It->second;
}

const Heap &GlobalState::joint(Label L) const {
  auto It = Joints.find(L);
  assert(It != Joints.end() && "label not installed");
  return It->second;
}

void GlobalState::setJoint(Label L, Heap H) {
  auto It = Joints.find(L);
  assert(It != Joints.end() && "label not installed");
  It->second = std::move(H);
}

PCMVal GlobalState::selfOf(Label L, ThreadId T) const {
  auto LabelIt = Selves.find(L);
  assert(LabelIt != Selves.end() && "label not installed");
  auto It = LabelIt->second.find(T);
  if (It == LabelIt->second.end())
    return selfType(L)->unit();
  return It->second;
}

void GlobalState::setSelf(Label L, ThreadId T, PCMVal V) {
  auto LabelIt = Selves.find(L);
  assert(LabelIt != Selves.end() && "label not installed");
  // Units are canonically absent so state equality ignores which threads
  // ever held a contribution.
  if (V.isUnitOf(*selfType(L))) {
    LabelIt->second.erase(T);
    return;
  }
  LabelIt->second[T] = std::move(V);
}

const PCMVal &GlobalState::envSelf(Label L) const {
  auto It = EnvSelves.find(L);
  assert(It != EnvSelves.end() && "label not installed");
  return It->second;
}

void GlobalState::setEnvSelf(Label L, PCMVal V) {
  EnvSelves[L] = std::move(V);
}

const std::map<ThreadId, PCMVal> &GlobalState::selves(Label L) const {
  auto It = Selves.find(L);
  assert(It != Selves.end() && "label not installed");
  return It->second;
}

std::optional<PCMVal> GlobalState::otherFor(Label L, ThreadId T) const {
  std::optional<PCMVal> Acc = envSelf(L);
  for (const auto &Entry : Selves.at(L)) {
    if (Entry.first == T)
      continue;
    Acc = PCMVal::join(*Acc, Entry.second);
    if (!Acc)
      return std::nullopt;
  }
  return Acc;
}

std::optional<PCMVal> GlobalState::allThreadsJoin(Label L) const {
  std::optional<PCMVal> Acc = selfType(L)->unit();
  for (const auto &Entry : Selves.at(L)) {
    Acc = PCMVal::join(*Acc, Entry.second);
    if (!Acc)
      return std::nullopt;
  }
  return Acc;
}

View GlobalState::viewFor(ThreadId T) const {
  View Out;
  for (const auto &Entry : SelfTypes) {
    Label L = Entry.first;
    std::optional<PCMVal> Other = otherFor(L, T);
    assert(Other && "globally incoherent state: contributions clash");
    Out.addLabel(L, LabelSlice{selfOf(L, T), joint(L), std::move(*Other)});
  }
  return Out;
}

View GlobalState::viewForEnv() const {
  View Out;
  for (const auto &Entry : SelfTypes) {
    Label L = Entry.first;
    std::optional<PCMVal> Threads = allThreadsJoin(L);
    assert(Threads && "globally incoherent state: contributions clash");
    Out.addLabel(L, LabelSlice{envSelf(L), joint(L), std::move(*Threads)});
  }
  return Out;
}

bool GlobalState::applyThread(ThreadId T, const View &Pre, const View &Post) {
  // Components are interned handles, so each other(L) compares by address.
  auto SameLabelAndOther = [](const auto &A, const auto &B) {
    return A.first == B.first && A.second.Other == B.second.Other;
  };
  if (!std::equal(Pre.begin(), Pre.end(), Post.begin(), Post.end(),
                  SameLabelAndOther))
    return false;
  for (const auto &[L, Slice] : Post) {
    setJoint(L, Slice.Joint);
    setSelf(L, T, Slice.Self);
  }
  return true;
}

void GlobalState::applyEnv(const View &Pre, const View &Post) {
  (void)Pre;
  assert(Pre.labels() == Post.labels() &&
         "environment steps may not install or remove labels");
  for (Label L : Post.labels()) {
    assert(Pre.other(L) == Post.other(L) &&
           "environment step mutated the threads' contributions");
    assert((!isEnvClosed(L) || (Pre.joint(L) == Post.joint(L) &&
                                Pre.self(L) == Post.self(L))) &&
           "environment stepped a hidden label");
    setJoint(L, Post.joint(L));
    setEnvSelf(L, Post.self(L));
  }
}

void GlobalState::fork(ThreadId Parent, ThreadId Left, ThreadId Right,
                       const std::map<Label, std::pair<PCMVal, PCMVal>>
                           &Splits) {
  for (const auto &Entry : SelfTypes) {
    Label L = Entry.first;
    PCMVal Whole = selfOf(L, Parent);
    auto SplitIt = Splits.find(L);
    if (SplitIt == Splits.end()) {
      // Default split: everything to the left child.
      setSelf(L, Left, Whole);
      setSelf(L, Right, Entry.second->unit());
    } else {
      // The split must recombine to the parent's contribution.
      std::optional<PCMVal> Recombined =
          PCMVal::join(SplitIt->second.first, SplitIt->second.second);
      assert(Recombined && *Recombined == Whole &&
             "fork split does not partition the parent contribution");
      (void)Recombined;
      setSelf(L, Left, SplitIt->second.first);
      setSelf(L, Right, SplitIt->second.second);
    }
    setSelf(L, Parent, Entry.second->unit());
  }
}

void GlobalState::joinChildren(ThreadId Parent, ThreadId Left,
                               ThreadId Right) {
  for (const auto &Entry : SelfTypes) {
    Label L = Entry.first;
    std::optional<PCMVal> Joined =
        PCMVal::join(selfOf(L, Left), selfOf(L, Right));
    assert(Joined && "children contributions clash at join");
    setSelf(L, Parent, std::move(*Joined));
    setSelf(L, Left, Entry.second->unit());
    setSelf(L, Right, Entry.second->unit());
  }
}

void GlobalState::renameThreads(const std::map<ThreadId, ThreadId> &M) {
  if (M.empty())
    return;
  for (auto &Entry : Selves) {
    std::map<ThreadId, PCMVal> Renamed;
    bool Changed = false;
    for (const auto &Contribution : Entry.second) {
      auto It = M.find(Contribution.first);
      ThreadId T = It == M.end() ? Contribution.first : It->second;
      Changed |= T != Contribution.first;
      bool Inserted = Renamed.emplace(T, Contribution.second).second;
      assert(Inserted && "thread renaming must stay injective per label");
      (void)Inserted;
    }
    if (Changed)
      Entry.second = std::move(Renamed);
  }
}

void GlobalState::renamePtrs(const std::map<Ptr, Ptr> &M) {
  if (M.empty())
    return;
  for (auto &Entry : Joints)
    Entry.second = Entry.second.renamePtrs(M);
  for (auto &Entry : EnvSelves)
    Entry.second = Entry.second.renamePtrs(M);
  for (auto &Label : Selves)
    for (auto &Contribution : Label.second)
      Contribution.second = Contribution.second.renamePtrs(M);
}

void GlobalState::collectPtrs(std::set<Ptr> &Out) const {
  for (const auto &Entry : Joints)
    Entry.second.collectPtrs(Out);
  for (const auto &Entry : EnvSelves)
    Entry.second.collectPtrs(Out);
  for (const auto &Label : Selves)
    for (const auto &Contribution : Label.second)
      Contribution.second.collectPtrs(Out);
}

int GlobalState::compare(const GlobalState &Other) const {
  // Label sets (with their env-closed flags) first.
  {
    auto AIt = SelfTypes.begin(), AEnd = SelfTypes.end();
    auto BIt = Other.SelfTypes.begin(), BEnd = Other.SelfTypes.end();
    for (; AIt != AEnd && BIt != BEnd; ++AIt, ++BIt)
      if (AIt->first != BIt->first)
        return AIt->first < BIt->first ? -1 : 1;
    if (AIt != AEnd)
      return 1;
    if (BIt != BEnd)
      return -1;
  }
  if (EnvClosed != Other.EnvClosed)
    return EnvClosed < Other.EnvClosed ? -1 : 1;
  for (const auto &Entry : Joints) {
    int Cmp = Entry.second.compare(Other.Joints.at(Entry.first));
    if (Cmp != 0)
      return Cmp;
  }
  for (const auto &Entry : EnvSelves) {
    int Cmp = Entry.second.compare(Other.EnvSelves.at(Entry.first));
    if (Cmp != 0)
      return Cmp;
  }
  for (const auto &Entry : Selves) {
    const auto &A = Entry.second;
    const auto &B = Other.Selves.at(Entry.first);
    auto AIt = A.begin(), AEnd = A.end();
    auto BIt = B.begin(), BEnd = B.end();
    for (; AIt != AEnd && BIt != BEnd; ++AIt, ++BIt) {
      if (AIt->first != BIt->first)
        return AIt->first < BIt->first ? -1 : 1;
      int Cmp = AIt->second.compare(BIt->second);
      if (Cmp != 0)
        return Cmp;
    }
    if (AIt != AEnd)
      return 1;
    if (BIt != BEnd)
      return -1;
  }
  return 0;
}

void GlobalState::hashInto(std::size_t &Seed) const {
  hashValue(Seed, SelfTypes.size());
  for (const auto &Entry : SelfTypes)
    hashValue(Seed, Entry.first);
  for (Label L : EnvClosed)
    hashValue(Seed, ~static_cast<size_t>(L));
  for (const auto &Entry : Joints)
    Entry.second.hashInto(Seed);
  for (const auto &Entry : EnvSelves)
    Entry.second.hashInto(Seed);
  for (const auto &Entry : Selves)
    for (const auto &Contribution : Entry.second) {
      hashValue(Seed, Contribution.first);
      Contribution.second.hashInto(Seed);
    }
}

size_t GlobalState::approxBytes() const {
  // Red-black tree node overhead per entry on a 64-bit libstdc++/libc++:
  // three pointers, a color and padding.
  constexpr size_t MapNode = 48;
  size_t Bytes = sizeof(GlobalState);
  Bytes += SelfTypes.size() * (MapNode + sizeof(Label) + sizeof(PCMTypeRef));
  Bytes += Joints.size() * (MapNode + sizeof(Label) + sizeof(Heap));
  for (const auto &Entry : Selves)
    Bytes += MapNode + sizeof(Label) + sizeof(Entry.second) +
             Entry.second.size() *
                 (MapNode + sizeof(ThreadId) + sizeof(PCMVal));
  Bytes += EnvSelves.size() * (MapNode + sizeof(Label) + sizeof(PCMVal));
  Bytes += EnvClosed.size() * (MapNode + sizeof(Label));
  return Bytes;
}

std::string GlobalState::toString() const {
  std::string Out;
  for (const auto &Entry : SelfTypes) {
    Label L = Entry.first;
    Out += std::to_string(L);
    if (isEnvClosed(L))
      Out += " (hidden)";
    Out += " joint = " + joint(L).toString() + "\n";
    for (const auto &Contribution : Selves.at(L))
      Out += "  thread " + std::to_string(Contribution.first) + " self = " +
             Contribution.second.toString() + "\n";
    Out += "  env self = " + envSelf(L).toString() + "\n";
  }
  return Out;
}
