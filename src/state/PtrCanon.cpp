//===- state/PtrCanon.cpp - Canonical fresh-pointer numbering --------------===//
//
// Part of fcsl-cpp. See PtrCanon.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "state/PtrCanon.h"

#include <cassert>

using namespace fcsl;

void PtrCanon::touch(Ptr P) {
  if (P.isNull())
    return;
  if (!Renaming) {
    Seen.insert(P);
  } else if (!Pinned.count(P) && Domain.count(P) && !Mapping.count(P)) {
    // Candidate ids ascend from 1, skipping pinned and sentinel names so
    // the renaming composed with identity-off-domain stays injective.
    while (Avoid.count(Ptr(NextId)))
      ++NextId;
    Ptr Target(NextId++);
    if (Target != P)
      Identity = false;
    Mapping.emplace(P, Target);
  }
  // Inside a heap traversal, follow the pointer into its cell (if it names
  // one here) so numbering tracks the *structure*: the list a sentinel
  // heads gets the same ids however allocation order interleaved.
  if (ChaseHeap && ChaseVisited->insert(P).second) {
    const Val *V = ChaseHeap->tryLookup(P);
    if (V)
      visit(*V);
  }
}

void PtrCanon::beginRename() {
  assert(!Renaming && "beginRename called twice");
  Renaming = true;
  Avoid = Pinned;
  for (Ptr P : Seen)
    if (!Domain.count(P))
      Avoid.insert(P);
}

void PtrCanon::visit(const Val &V) {
  switch (V.kind()) {
  case Val::Kind::Unit:
  case Val::Kind::Int:
  case Val::Kind::Bool:
    return;
  case Val::Kind::Pointer:
    touch(V.getPtr());
    return;
  case Val::Kind::Node:
    touch(V.getNode().Left);
    touch(V.getNode().Right);
    return;
  case Val::Kind::Pair:
    visit(V.first());
    visit(V.second());
    return;
  }
  assert(false && "unknown value kind");
}

void PtrCanon::visit(const Heap &H) {
  if (!Renaming)
    for (const auto &Cell : H)
      Domain.insert(Cell.first);
  // Structure-first traversal: cells with pinned names are stable roots
  // (sentinels, pre-seeded cells) — they seed a DFS that chases value
  // pointers through this heap, so the first-visit order is determined by
  // reachability, not by whatever names the allocator happened to draw.
  // Cells unreached from any pinned root follow in raw pointer order, a
  // deterministic fallback.
  const Heap *PrevHeap = ChaseHeap;
  std::set<Ptr> *PrevVisited = ChaseVisited;
  std::set<Ptr> Visited;
  ChaseHeap = &H;
  ChaseVisited = &Visited;
  for (const auto &Cell : H)
    if (Pinned.count(Cell.first))
      touch(Cell.first);
  for (const auto &Cell : H)
    touch(Cell.first);
  ChaseHeap = PrevHeap;
  ChaseVisited = PrevVisited;
}

void PtrCanon::visit(const History &H) {
  for (const auto &Entry : H) {
    visit(Entry.second.Before);
    visit(Entry.second.After);
  }
}

void PtrCanon::visit(const PCMVal &V) {
  switch (V.kind()) {
  case PCMKind::Nat:
  case PCMKind::Mutex:
    return;
  case PCMKind::PtrSet:
    for (Ptr P : V.getPtrSet())
      touch(P);
    return;
  case PCMKind::HeapPCM:
    visit(V.getHeap());
    return;
  case PCMKind::Hist:
    visit(V.getHist());
    return;
  case PCMKind::Pair:
    visit(V.first());
    visit(V.second());
    return;
  case PCMKind::Lift:
    if (!V.isLiftUndef())
      visit(V.liftInner());
    return;
  }
  assert(false && "unknown PCM kind");
}

void PtrCanon::visit(const View &V) {
  for (const auto &Entry : V) {
    visit(Entry.second.Self);
    visit(Entry.second.Joint);
    visit(Entry.second.Other);
  }
}

void PtrCanon::visit(const GlobalState &GS) {
  for (Label L : GS.labels()) {
    visit(GS.joint(L));
    visit(GS.envSelf(L));
    for (const auto &Contribution : GS.selves(L))
      visit(Contribution.second);
  }
}

namespace {

bool heapHasFresh(const Heap &H, const std::set<Ptr> &Pinned) {
  for (const auto &Cell : H)
    if (!Pinned.count(Cell.first))
      return true;
  return false;
}

bool pcmHasFresh(const PCMVal &V, const std::set<Ptr> &Pinned) {
  switch (V.kind()) {
  case PCMKind::Nat:
  case PCMKind::Mutex:
  case PCMKind::PtrSet:
  case PCMKind::Hist:
    return false;
  case PCMKind::HeapPCM:
    return heapHasFresh(V.getHeap(), Pinned);
  case PCMKind::Pair:
    return pcmHasFresh(V.first(), Pinned) || pcmHasFresh(V.second(), Pinned);
  case PCMKind::Lift:
    return !V.isLiftUndef() && pcmHasFresh(V.liftInner(), Pinned);
  }
  assert(false && "unknown PCM kind");
  return true;
}

} // namespace

bool PtrCanon::hasFreshCells(const GlobalState &GS,
                             const std::set<Ptr> &Pinned) {
  // The same heaps visit(GlobalState) marks as the domain.
  for (Label L : GS.labels()) {
    if (heapHasFresh(GS.joint(L), Pinned) ||
        pcmHasFresh(GS.envSelf(L), Pinned))
      return true;
    for (const auto &Contribution : GS.selves(L))
      if (pcmHasFresh(Contribution.second, Pinned))
        return true;
  }
  return false;
}
