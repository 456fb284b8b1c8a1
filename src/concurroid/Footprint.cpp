//===- concurroid/Footprint.cpp - Step footprints for independence ---------===//
//
// Part of fcsl-cpp. See Footprint.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "concurroid/Footprint.h"

#include <algorithm>
#include <cassert>

using namespace fcsl;

FpAtom FpAtom::selfAux(Label L) {
  FpAtom A;
  A.L = L;
  A.Comp = FpComp::SelfAux;
  return A;
}

FpAtom FpAtom::otherAux(Label L) {
  FpAtom A;
  A.L = L;
  A.Comp = FpComp::OtherAux;
  return A;
}

FpAtom FpAtom::joint(Label L, uint8_t Fields, FpRegion Region) {
  FpAtom A;
  A.L = L;
  A.Comp = FpComp::Joint;
  A.Fields = Fields;
  A.Region = Region;
  return A;
}

FpAtom FpAtom::jointCell(Label L, Ptr P, uint8_t Fields, FpRegion Region) {
  FpAtom A = joint(L, Fields, Region);
  A.AllCells = false;
  A.Cells.push_back(P);
  return A;
}

namespace {

/// Do the cell refinements of two joint atoms possibly intersect?
bool cellsIntersect(const FpAtom &A, const FpAtom &B) {
  if (A.AllCells || B.AllCells)
    return true;
  // Both sorted; walk in tandem.
  auto I = A.Cells.begin(), J = B.Cells.begin();
  while (I != A.Cells.end() && J != B.Cells.end()) {
    if (*I < *J)
      ++I;
    else if (*J < *I)
      ++J;
    else
      return true;
  }
  return false;
}

} // namespace

bool fcsl::fpAtomsClash(const FpAtom &A, const FpAtom &B, bool SameAgent) {
  if (A.L != B.L)
    return false; // Different labels: disjoint state components.

  bool AJoint = A.Comp == FpComp::Joint;
  bool BJoint = B.Comp == FpComp::Joint;
  if (AJoint != BJoint)
    return false; // Aux PCM values vs joint heap storage: disjoint.

  if (!AJoint) {
    if (SameAgent)
      // One agent's view: self and other are disjoint components, but two
      // touches of the *same* component (self/self or other/other) alias.
      return A.Comp == B.Comp;
    // Aux components of two *different* agents: their self contributions
    // are frame-disjoint (they join in the PCM), but each one's self is
    // part of the other's "other", and the two "other"s share all third
    // parties.
    if (A.Comp == FpComp::SelfAux && B.Comp == FpComp::SelfAux)
      return false;
    return true;
  }

  // Joint vs joint. Ownership regions of two different agents are
  // disjoint, and owned regions are disjoint from the unowned remainder;
  // one agent's two SelfOwned touches name the *same* region, though, and
  // fall through to the field/cell refinement.
  if (!(SameAgent && A.Region == FpRegion::SelfOwned &&
        B.Region == FpRegion::SelfOwned)) {
    if (A.Region == FpRegion::SelfOwned &&
        (B.Region == FpRegion::SelfOwned || B.Region == FpRegion::Unowned))
      return false;
    if (B.Region == FpRegion::SelfOwned && A.Region == FpRegion::Unowned)
      return false;
  }
  if ((A.Fields & B.Fields) == 0)
    return false; // Touch disjoint fields of any shared cell.
  return cellsIntersect(A, B);
}

Footprint Footprint::none() {
  Footprint F;
  F.Known = true;
  return F;
}

Footprint &Footprint::read(FpAtom A) {
  Known = true;
  assert((A.AllCells || std::is_sorted(A.Cells.begin(), A.Cells.end())) &&
         "cell refinements must be sorted");
  Reads.push_back(std::move(A));
  return *this;
}

Footprint &Footprint::write(FpAtom A) {
  Known = true;
  assert((A.AllCells || std::is_sorted(A.Cells.begin(), A.Cells.end())) &&
         "cell refinements must be sorted");
  Writes.push_back(std::move(A));
  return *this;
}

Footprint &Footprint::readWrite(const FpAtom &A) {
  read(A);
  return write(A);
}

namespace {

bool anyClash(const std::vector<FpAtom> &Xs, const std::vector<FpAtom> &Ys,
              bool SameAgent) {
  for (const FpAtom &X : Xs)
    for (const FpAtom &Y : Ys)
      if (fpAtomsClash(X, Y, SameAgent))
        return true;
  return false;
}

} // namespace

bool fcsl::fpIndependent(const Footprint &A, const Footprint &B,
                         bool SameAgent) {
  if (!A.known() || !B.known())
    return false;
  return !anyClash(A.writes(), B.writes(), SameAgent) &&
         !anyClash(A.writes(), B.reads(), SameAgent) &&
         !anyClash(B.writes(), A.reads(), SameAgent);
}
