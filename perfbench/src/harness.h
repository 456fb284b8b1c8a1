//===- perfbench/src/harness.h - Shared benchmark plumbing ------*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the run
/// configuration, the result a workload hands back (operation counts,
/// failures, set-up times, metrics), sample statistics with the
/// tail-percentile rule, the seeded generator, and the in-memory span
/// tracer. The workloads live in corpus.cpp, diamond.cpp and daemon.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_PERFBENCH_HARNESS_H
#define FCSL_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// One benchmark invocation, as parsed from the command line.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Self-test hook: perturb one golden value so the correctness gate must
  /// count failed operations (and keep running) instead of aborting.
  bool InjectBadGolden = false;
  /// How many times set-up is repeated; setup_s is the median.
  unsigned SetupReps = 5;
};

/// A metric's value and unit, printed by name.
struct Metric {
  double Value = 0.0;
  std::string Unit;
};
using Metrics = std::map<std::string, Metric>;

double median(std::vector<double> Xs);

//===----------------------------------------------------------------------===//
// Host-speed scaling
//===----------------------------------------------------------------------===//

/// The benchmark host is a shared virtual machine whose speed drifts by
/// 30-50% within minutes, which no amount of work per run averages out.
/// End-to-end timings are therefore reported at a fixed host speed: the
/// run times a fixed reference kernel (allocation, hashing and hash-set
/// inserts, written here and never changed) about once a second between
/// operations, and each measured time is multiplied by NominalMs over the
/// kernel's time interpolated at that moment. The raw times are printed
/// next to the scaled ones.
class HostSpeed {
public:
  /// The kernel's time on the 4-core host the baseline was recorded on,
  /// when quiet; scaled times read as milliseconds on that host.
  static constexpr double NominalMs = 6.5;

  /// Times three reference runs and records their median.
  double sample();
  /// Samples unless the last sample is younger than \p Seconds.
  void sampleEvery(double Seconds);
  /// NominalMs over the reference time interpolated at \p T.
  double scaleAt(Clock::time_point T) const;
  /// Scales \p Ms measured over the interval that ended at \p End.
  double scaled(double Ms, Clock::time_point End) const;
  double medianMs() const;

private:
  std::vector<std::pair<Clock::time_point, double>> Samples;
};

/// One timed operation: its raw wall time and when it ended.
struct Timed {
  double Ms = 0.0;
  Clock::time_point End;
};

/// What a workload run hands back to main().
struct Result {
  uint64_t Attempted = 0; ///< operations run (sessions, passes, requests).
  uint64_t Failed = 0;    ///< operations whose output was wrong or missing.
  std::vector<std::string> FailureNotes; ///< the first few failure reasons.
  std::vector<Timed> Setup;              ///< one entry per set-up repetition.
  HostSpeed Host;   ///< reference samples taken during this run.
  Metrics EndToEnd; ///< op_ms_p50, op_ms_tail, throughput_per_s.
  Metrics Layers;   ///< per-layer metrics (a subset of layerMetricTable()).
  /// Human-readable "name = value unit" lines: the workload's figures under
  /// their descriptive names, with sample counts.
  std::vector<std::string> Lines;

  /// Books one operation; \p Why names the mismatch when !Ok.
  void op(bool Ok, const std::string &Why = "");
  void setLayer(const std::string &Name, double Value);
  void line(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));
  /// Records a set-up repetition that started at \p Start and samples the
  /// host speed right after it.
  void setupDone(Clock::time_point Start);
  /// Prints \p Name's p50 and tail, scaled and raw, in \p Unit (ms times
  /// \p Mult); sets op_ms_p50 and op_ms_tail from them when
  /// \p SetsEndToEnd. Returns the scaled median in ms.
  double latency(const std::string &Name, const std::vector<Timed> &Ops,
                 double Mult, const char *Unit, bool SetsEndToEnd);
};

/// Every per-layer metric the traced run prints, with its unit and which
/// direction is better. Workloads leave a layer they do not exercise at 0.
struct LayerMetricSpec {
  std::string Name;
  std::string Unit;
  const char *Better;
};
const std::vector<LayerMetricSpec> &layerMetricTable();

/// The 11 Table-1 programs' metric slugs, in allCaseStudies() order.
const std::vector<std::string> &sessionSlugs();

//===----------------------------------------------------------------------===//
// Sample statistics
//===----------------------------------------------------------------------===//

/// A tail percentile: the highest percentile (at most p95) that has at
/// least ten samples strictly beyond it in the sorted sample, by nearest
/// rank. With fewer than 20 samples no percentile at or above the median
/// qualifies; the maximum is reported instead and Qualified is false.
struct Tail {
  double Value = 0.0;
  double Percentile = 100.0;
  size_t N = 0;
  size_t Beyond = 0; ///< samples strictly beyond the chosen rank.
  bool Qualified = false;
};
Tail tailOf(std::vector<double> Xs);

//===----------------------------------------------------------------------===//
// Seeded generation
//===----------------------------------------------------------------------===//

/// SplitMix64 over (seed, stream): the same pair always yields the same
/// sequence, so the corpus order and the daemon schedule are functions of
/// --seed alone.
class Rng {
public:
  Rng(uint64_t Seed, uint64_t Stream);
  uint64_t next();
  uint64_t below(uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

struct SpanRecord {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for a root span.
  std::string Name;    ///< the layer: pass, session, explore, submit, ...
  std::string Label;   ///< which instance: a session slug, a pass kind.
  int64_t StartNs = 0;
  int64_t EndNs = 0;
};

/// Spans recorded in memory (thread-safe) and written out once the run
/// ends.
class Tracer {
public:
  uint64_t begin();
  void end(uint64_t Id, uint64_t Parent, std::string Name, std::string Label,
           int64_t StartNs);
  /// Per-layer self time (span duration minus the part its children
  /// cover), summed over every span of that layer, in milliseconds.
  std::map<std::string, double> selfMs() const;
  bool writeJson(const std::string &Path, const std::string &Provenance) const;

private:
  std::vector<SpanRecord> spans() const;

  mutable std::mutex M;
  uint64_t NextId = 1;
  std::vector<SpanRecord> Records;
};

int64_t nowNs();

/// A scope timed as one span under \p Parent (0 = root). A no-op unless
/// \p On: untraced runs pass false throughout, and the traced run passes
/// false on every other operation so the same operations are also timed
/// untraced (see OverheadProbe).
class Span {
public:
  Span(Tracer &T, bool On, const char *Name, uint64_t Parent = 0,
       std::string Label = "");
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  uint64_t id() const { return Id; }

private:
  Tracer &T;
  const char *Name;
  uint64_t Parent;
  std::string Label;
  uint64_t Id = 0;
  int64_t StartNs = 0;
};

/// Times operations alternately with tracing on and off during a traced
/// run; ratio() is the median traced time over the median untraced one.
struct OverheadProbe {
  std::vector<double> On, Off;
  void add(bool Traced, double Ms) { (Traced ? On : Off).push_back(Ms); }
  double ratio() const;
};

/// Peak resident set size of this process, in MB.
double peakRssMb();

std::string jsonEscape(const std::string &S);

/// printf-style formatting into a std::string.
std::string strFormat(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace pb

#endif // FCSL_PERFBENCH_HARNESS_H
