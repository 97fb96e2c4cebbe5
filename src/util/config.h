// Minimal INI-style configuration store.
//
// Sections map keys to string values; typed getters parse integers, doubles,
// booleans and byte sizes ("16KiB", "64GB", "4096").  Used by the example
// programs and the experiment harness so device geometry can be changed
// without recompiling.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace ctflash::util {

class ConfigMap {
 public:
  ConfigMap() = default;

  /// Parses INI text: `[section]`, `key = value`, `#`/`;` comments.
  /// Throws std::invalid_argument on malformed lines.
  static ConfigMap FromString(const std::string& text);

  /// Loads from a file; throws std::runtime_error when unreadable.
  static ConfigMap FromFile(const std::string& path);

  void Set(const std::string& section, const std::string& key,
           const std::string& value);

  bool Has(const std::string& section, const std::string& key) const;

  std::optional<std::string> GetString(const std::string& section,
                                       const std::string& key) const;
  std::string GetStringOr(const std::string& section, const std::string& key,
                          const std::string& fallback) const;

  /// Integer getter; accepts decimal and 0x-hex. Throws on non-numeric value.
  std::int64_t GetIntOr(const std::string& section, const std::string& key,
                        std::int64_t fallback) const;
  double GetDoubleOr(const std::string& section, const std::string& key,
                     double fallback) const;
  /// Accepts true/false/yes/no/on/off/1/0 (case-insensitive).
  bool GetBoolOr(const std::string& section, const std::string& key,
                 bool fallback) const;
  /// Byte-size getter: "64GiB", "16KB" (decimal K treated as 1024), "4096".
  std::uint64_t GetBytesOr(const std::string& section, const std::string& key,
                           std::uint64_t fallback) const;

  /// Serializes back to INI text (sections sorted, keys sorted).
  std::string ToString() const;

 private:
  std::map<std::string, std::map<std::string, std::string>> sections_;
};

/// Parses "16KiB"/"4MB"/"64G"/"123" into bytes. K/M/G/T suffixes (with or
/// without "iB"/"B") are all binary multiples. Throws std::invalid_argument.
std::uint64_t ParseByteSize(const std::string& text);

/// Trims ASCII whitespace from both ends.
std::string Trim(const std::string& s);
/// Owning form for C strings (a literal would match both other overloads).
std::string Trim(const char* s);
/// The same trim as a view into `s` (no copy; `s` must outlive it).
std::string_view Trim(std::string_view s);

/// Lower-cases ASCII.
std::string ToLower(const std::string& s);

}  // namespace ctflash::util
