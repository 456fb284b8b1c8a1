//===- concurroid/Transition.cpp - Concurroid transitions ------------------===//
//
// Part of fcsl-cpp. See Transition.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "concurroid/Transition.h"

#include <cassert>

using namespace fcsl;

Transition::Transition(std::string Name, TransitionKind Kind,
                       StepFn Enumerate, CoverFn Covers, bool EnvEnabled)
    : Name(std::move(Name)), Kind(Kind), Enumerate(std::move(Enumerate)),
      Covers(std::move(Covers)), EnvEnabled(EnvEnabled) {
  assert((this->Enumerate || this->Covers) &&
         "a transition needs an enumerator or a coverage predicate");
}

Transition &Transition::withFootprint(Footprint Static) {
  StaticFp = std::move(Static);
  return *this;
}

Transition Transition::idle() {
  return Transition(
      "idle", TransitionKind::Internal,
      [](const View &Pre) { return std::vector<View>{Pre}; },
      [](const View &Pre, const View &Post) { return Pre == Post; });
}

std::vector<View> Transition::successors(const View &Pre) const {
  if (!Enumerate)
    return {};
  return Enumerate(Pre);
}

bool Transition::covers(const View &Pre, const View &Post) const {
  if (Covers)
    return Covers(Pre, Post);
  for (const View &Succ : successors(Pre))
    if (Succ == Post)
      return true;
  return false;
}
