//===- tools/ModeFlags.h - Mode flags and FCSL_* checks ---------*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
// Shared by fcsl-verify and fcsl-serve. The engine reads an unknown mode
// spelling as Off, so a typo'd FCSL_POR would silently verify (or serve)
// with the wrong engine configuration; the tools reject it at startup
// instead, through the same parsers their flags use.
//
//===----------------------------------------------------------------------===//

#ifndef FCSL_TOOLS_MODEFLAGS_H
#define FCSL_TOOLS_MODEFLAGS_H

#include "cache/Store.h"
#include "prog/Engine.h"

#include <cstdio>
#include <cstdlib>

namespace fcsl {

/// Parses a mode flag's \p Text with \p Parse and installs the result as
/// the process default with \p Set; false on an unknown spelling.
template <typename Mode>
bool applyMode(const char *Text, bool (*Parse)(const char *, Mode &),
               void (*Set)(Mode)) {
  Mode M{};
  if (!Parse(Text, M))
    return false;
  Set(M);
  return true;
}

/// Checks every FCSL_* environment knob the tools honor; prints one error
/// per bad value and returns 2 if any was bad, else 0.
inline int validateEnv() {
  int Bad = 0;
  auto Check = [&](const char *Var, bool Ok, const char *Want) {
    const char *E = std::getenv(Var);
    if (E && *E && !Ok) {
      std::fprintf(stderr, "error: invalid %s value '%s' (expected %s)\n",
                   Var, E, Want);
      Bad = 2;
    }
  };
  PorMode Por = PorMode::Default;
  SymMode Sym = SymMode::Default;
  cache::CacheMode Cache = cache::CacheMode::Default;
  Check("FCSL_POR", parsePorMode(std::getenv("FCSL_POR"), Por),
        "off|on|dynamic|check|check-dynamic");
  Check("FCSL_SYMMETRY", parseSymMode(std::getenv("FCSL_SYMMETRY"), Sym),
        "off|on|check");
  Check("FCSL_CACHE", cache::parseCacheMode(std::getenv("FCSL_CACHE"), Cache),
        "off|rw|ro|check");
  auto Unsigned = [&](const char *Var, long Min) {
    const char *E = std::getenv(Var);
    char *End = nullptr;
    long V = E ? std::strtol(E, &End, 10) : 0;
    return E && End != E && *End == '\0' && V >= Min;
  };
  Check("FCSL_JOBS", Unsigned("FCSL_JOBS", 0), "a non-negative integer");
  Check("FCSL_SHARDS", Unsigned("FCSL_SHARDS", 1), "a positive integer");
  return Bad;
}

} // namespace fcsl

#endif // FCSL_TOOLS_MODEFLAGS_H
