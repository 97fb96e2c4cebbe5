// simbench ledger: the benchmark's own bookkeeping, independent of the
// library it measures.
//
//  * Spans   — in-memory span recorder for traced runs.  The benchmark opens
//              one span around every public call it makes into a layer
//              (input generation, prefill, snapshot, restore, the measured
//              call, each probe loop); each span keeps its name, start, end
//              and parent, and self time is the span's duration minus the
//              time its children cover.  Written out once, at exit.
//  * Metrics — ordered name -> {value, unit} table printed as the result.
//  * helpers — FNV-1a digests, seed-stream mixing, medians, peak RSS.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/json.h"

namespace simbench {

using Clock = std::chrono::steady_clock;
using ctflash::campaign::Json;

double SecondsSince(Clock::time_point start);

/// Independent, reproducible 64-bit stream seed for (seed, stream).
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream);

/// 64-bit FNV-1a over the bytes fed to it.
class Fnv {
 public:
  void Add(std::string_view bytes);
  void Add(std::uint64_t v);
  void Add(double v);
  std::string Hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

double Median(std::vector<double> values);
/// Peak resident set of this process, MiB.
double PeakRssMib();

/// Seconds a fixed, library-independent reference loop takes right now,
/// averaged over `threads` threads running it at once: a 512-deep binary
/// heap of timed entries plus hash-map updates (the operations the
/// simulator's event queue and host bookkeeping are made of) on fixed
/// inputs.  It reads the host's current speed for simulator-like code.
double ReferenceSeconds(std::uint32_t threads = 1);

class Spans {
 public:
  /// A disabled ledger records nothing; Open() on it costs one branch.
  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(Spans* spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_ = nullptr;
    std::size_t index_ = 0;
  };

  /// Spans with start/end/parent and self time (ns, relative to the
  /// ledger's creation), plus per-name self-time totals.
  Json ToJson() const;
  /// Self time summed per span name, in ms, largest first.
  std::vector<std::pair<std::string, double>> SelfMsByName() const;

 private:
  struct Span {
    std::string name;
    std::int64_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::int64_t NowNs() const;
  std::vector<std::int64_t> SelfNs() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
};

/// Opens a span named `name` for the rest of the enclosing block.
#define SIMBENCH_CAT2(a, b) a##b
#define SIMBENCH_CAT(a, b) SIMBENCH_CAT2(a, b)
#define SIMBENCH_SPAN(spans, name)                                   \
  ::simbench::Spans::Scope SIMBENCH_CAT(simbench_span_, __LINE__)( \
      (spans), (name))

class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// The value set under `name`; 0 when none was.
  double Value(const std::string& name) const;
  /// {"name": {"value": v, "unit": u}, ...} in insertion order.
  Json ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace simbench
