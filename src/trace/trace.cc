#include "trace/trace.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/config.h"

namespace ctflash::trace {

TraceStats ComputeStats(const std::vector<TraceRecord>& records) {
  TraceStats s;
  for (const auto& r : records) {
    s.total_requests++;
    if (r.op == OpType::kRead) {
      s.read_requests++;
      s.read_bytes += r.size_bytes;
      s.read_size.Add(static_cast<double>(r.size_bytes));
    } else {
      s.write_requests++;
      s.write_bytes += r.size_bytes;
      s.write_size.Add(static_cast<double>(r.size_bytes));
    }
    s.max_offset_bytes = std::max(s.max_offset_bytes, r.offset_bytes + r.size_bytes);
  }
  return s;
}

namespace {
/// The MSR columns the parser reads: Timestamp, Hostname, DiskNumber, Type,
/// Offset, Size (ResponseTime and any further fields are ignored).
constexpr std::size_t kCsvFields = 6;

/// Splits the leading comma-separated fields of `line` into views of it;
/// returns the number of fields, counted up to kCsvFields.
std::size_t SplitCsv(std::string_view line,
                     std::array<std::string_view, kCsvFields>& fields) {
  std::size_t count = 0;
  while (count < kCsvFields) {
    const std::size_t comma = line.find(',');
    fields[count++] = line.substr(0, comma);
    if (comma == std::string_view::npos) break;
    line.remove_prefix(comma + 1);
  }
  return count;
}

bool EqualsLower(std::string_view text, std::string_view lower) {
  return std::equal(text.begin(), text.end(), lower.begin(), lower.end(),
                    [](char a, char b) {
                      return std::tolower(static_cast<unsigned char>(a)) == b;
                    });
}

/// std::stoll's contract on a view: leading whitespace, an optional sign and
/// the longest run of decimal digits (trailing characters are ignored);
/// std::invalid_argument("stoll") without digits, std::out_of_range when the
/// value does not fit.
std::int64_t ParseLeadingInt64(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  const bool negative = i < text.size() && text[i] == '-';
  if (i < text.size() && (text[i] == '-' || text[i] == '+')) ++i;
  std::uint64_t magnitude = 0;
  const auto [end, ec] =
      std::from_chars(text.data() + i, text.data() + text.size(), magnitude);
  if (end == text.data() + i) throw std::invalid_argument("stoll");
  constexpr std::uint64_t kMax = std::numeric_limits<std::int64_t>::max();
  if (ec == std::errc::result_out_of_range || magnitude > kMax + negative) {
    throw std::out_of_range("stoll");
  }
  return negative ? static_cast<std::int64_t>(0 - magnitude)
                  : static_cast<std::int64_t>(magnitude);
}

/// Strict non-negative integer field parser.  std::stoull silently accepts
/// a leading '-' (wrapping to a huge value), which would turn a corrupt
/// trace line into a petabyte-range request; reject anything but digits
/// and catch overflow explicitly.
std::uint64_t ParseUnsigned(std::string_view raw, const char* what) {
  const std::string_view field = util::Trim(raw);
  if (field.empty()) {
    throw std::invalid_argument(std::string("empty ") + what);
  }
  for (char c : field) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument(std::string("non-numeric ") + what + " '" +
                                  std::string(field) + "'");
    }
  }
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument(std::string("overflowing ") + what + " '" +
                                std::string(field) + "'");
  }
  return value;
}
}  // namespace

void MsrCsvParser::Reset() {
  lineno_ = 0;
  base_filetime_ = -1;
}

bool MsrCsvParser::ParseLine(std::string_view line, TraceRecord& out,
                             std::string* hostname) {
  ++lineno_;
  const std::string_view trimmed = util::Trim(line);
  if (trimmed.empty() || trimmed[0] == '#') return false;
  std::array<std::string_view, kCsvFields> fields;
  if (SplitCsv(trimmed, fields) < kCsvFields) {
    throw std::invalid_argument("ParseMsrCsv: too few fields at line " +
                                std::to_string(lineno_));
  }
  try {
    TraceRecord r;
    const std::int64_t filetime = ParseLeadingInt64(fields[0]);
    if (filetime < 0) throw std::invalid_argument("negative timestamp");
    if (base_filetime_ < 0) base_filetime_ = filetime;
    // FILETIME is in 100 ns ticks; 10 ticks per microsecond.
    r.timestamp_us = (filetime - base_filetime_) / 10;
    if (r.timestamp_us < 0) r.timestamp_us = 0;  // out-of-order arrivals
    const std::string_view type = util::Trim(fields[3]);
    if (EqualsLower(type, "read") || EqualsLower(type, "r")) {
      r.op = OpType::kRead;
    } else if (EqualsLower(type, "write") || EqualsLower(type, "w")) {
      r.op = OpType::kWrite;
    } else {
      throw std::invalid_argument("bad op '" + std::string(fields[3]) + "'");
    }
    r.offset_bytes = ParseUnsigned(fields[4], "offset");
    r.size_bytes = ParseUnsigned(fields[5], "size");
    if (r.size_bytes >
        std::numeric_limits<std::uint64_t>::max() - r.offset_bytes) {
      throw std::invalid_argument("offset+size overflows");
    }
    if (r.size_bytes == 0) return false;  // zero-length ops carry no work
    if (hostname != nullptr) hostname->assign(util::Trim(fields[1]));
    out = r;
    return true;
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("ParseMsrCsv: malformed line " +
                                std::to_string(lineno_) + " (" + e.what() +
                                "): " + std::string(trimmed));
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("ParseMsrCsv: overflowing field at line " +
                                std::to_string(lineno_) + ": " +
                                std::string(trimmed));
  }
}

std::vector<TraceRecord> ParseMsrCsv(std::istream& in) {
  std::vector<TraceRecord> records;
  MsrCsvParser parser;
  std::string line;
  TraceRecord r;
  while (std::getline(in, line)) {
    if (parser.ParseLine(line, r)) records.push_back(r);
  }
  return records;
}

std::vector<TraceRecord> ParseMsrCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ParseMsrCsvFile: cannot open " + path);
  return ParseMsrCsv(in);
}

void WriteMsrCsv(const std::vector<TraceRecord>& records, std::ostream& out,
                 const std::string& hostname) {
  for (const auto& r : records) {
    out << r.timestamp_us * 10 << "," << hostname << ",0,"
        << (r.op == OpType::kRead ? "Read" : "Write") << "," << r.offset_bytes
        << "," << r.size_bytes << ",0\n";
  }
}

}  // namespace ctflash::trace
