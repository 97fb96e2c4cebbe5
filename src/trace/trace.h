// Block-level I/O trace representation plus the MSR-Cambridge CSV codec.
//
// The paper drives its evaluation with two enterprise traces collected by
// Microsoft Research Cambridge [13,17] ("media server" and "web/SQL
// server").  Those exact traces are not redistributable, so ctflash ships
// (a) this parser for the published MSR CSV format, usable when the
// originals are available, and (b) synthetic generators with matching
// first-order properties (synthetic.h).
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"
#include "util/types.h"

namespace ctflash::trace {

enum class OpType : std::uint8_t { kRead = 0, kWrite = 1 };

struct TraceRecord {
  Us timestamp_us = 0;        ///< arrival time relative to trace start
  OpType op = OpType::kRead;
  std::uint64_t offset_bytes = 0;
  std::uint64_t size_bytes = 0;

  bool operator==(const TraceRecord&) const = default;
};

/// Summary statistics over a trace (used by tests and by the bench headers
/// to document workload shape).
struct TraceStats {
  std::uint64_t total_requests = 0;
  std::uint64_t read_requests = 0;
  std::uint64_t write_requests = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t max_offset_bytes = 0;  ///< highest offset+size seen
  util::RunningMoments read_size;
  util::RunningMoments write_size;

  double ReadFraction() const {
    return total_requests == 0
               ? 0.0
               : static_cast<double>(read_requests) / total_requests;
  }
};

TraceStats ComputeStats(const std::vector<TraceRecord>& records);

/// Incremental MSR-Cambridge SNIA CSV decoder:
///   Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
/// Timestamp is a Windows FILETIME (100 ns ticks); it is rebased so the
/// first accepted record starts at t=0.  Feed one line at a time — the
/// parser keeps only the rebase origin and a line counter, so callers that
/// stream a multi-GB trace hold O(1) parser state (the streaming reader in
/// src/replay/trace_source.h builds its bounded window on top of this).
/// Malformed input — too few fields, unknown op, negative or non-numeric or
/// uint64-overflowing offset/size/timestamp, offset+size wrapping past
/// 2^64 — raises std::invalid_argument naming the line number; corrupt
/// traces fail loudly instead of replaying as petabyte-range requests.
class MsrCsvParser {
 public:
  /// Decodes one CSV line.  Returns false for lines that carry no record
  /// (blank, '#' comment, zero-length ops); true fills `out`.  `hostname`
  /// (optional) receives the line's Hostname field, letting callers split a
  /// combined multi-server trace into per-host streams.
  bool ParseLine(std::string_view line, TraceRecord& out,
                 std::string* hostname = nullptr);

  /// Lines consumed so far (error messages are 1-based on this count).
  std::uint64_t LineCount() const { return lineno_; }

  /// Forgets the rebase origin and line count (restart a file).
  void Reset();

 private:
  std::uint64_t lineno_ = 0;
  std::int64_t base_filetime_ = -1;
};

/// One-shot wrappers over MsrCsvParser (whole trace materialized).
std::vector<TraceRecord> ParseMsrCsv(std::istream& in);
std::vector<TraceRecord> ParseMsrCsvFile(const std::string& path);

/// Serializes records back to the MSR CSV format (hostname/disk fixed).
void WriteMsrCsv(const std::vector<TraceRecord>& records, std::ostream& out,
                 const std::string& hostname = "ctflash");

}  // namespace ctflash::trace
