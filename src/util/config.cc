#include "util/config.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ctflash::util {

std::string_view Trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Trim(const std::string& s) {
  return std::string(Trim(std::string_view(s)));
}

std::string Trim(const char* s) {
  return std::string(Trim(std::string_view(s)));
}

std::string ToLower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

std::uint64_t ParseByteSize(const std::string& text) {
  const std::string t = Trim(text);
  if (t.empty()) throw std::invalid_argument("ParseByteSize: empty string");
  std::size_t pos = 0;
  while (pos < t.size() &&
         (std::isdigit(static_cast<unsigned char>(t[pos])) || t[pos] == '.')) {
    ++pos;
  }
  if (pos == 0) throw std::invalid_argument("ParseByteSize: no digits in '" + t + "'");
  const double value = std::stod(t.substr(0, pos));
  std::string suffix = ToLower(Trim(t.substr(pos)));
  // Strip optional "ib"/"b".
  if (suffix.size() >= 2 && suffix.substr(suffix.size() - 2) == "ib") {
    suffix = suffix.substr(0, suffix.size() - 2);
  } else if (!suffix.empty() && suffix.back() == 'b') {
    suffix = suffix.substr(0, suffix.size() - 1);
  }
  double mult = 1.0;
  if (suffix == "") {
    mult = 1.0;
  } else if (suffix == "k") {
    mult = 1024.0;
  } else if (suffix == "m") {
    mult = 1024.0 * 1024.0;
  } else if (suffix == "g") {
    mult = 1024.0 * 1024.0 * 1024.0;
  } else if (suffix == "t") {
    mult = 1024.0 * 1024.0 * 1024.0 * 1024.0;
  } else {
    throw std::invalid_argument("ParseByteSize: bad suffix in '" + t + "'");
  }
  return static_cast<std::uint64_t>(value * mult);
}

ConfigMap ConfigMap::FromString(const std::string& text) {
  ConfigMap cfg;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string t = Trim(line);
    if (t.empty() || t[0] == '#' || t[0] == ';') continue;
    if (t.front() == '[') {
      if (t.back() != ']') {
        throw std::invalid_argument("ConfigMap: unterminated section at line " +
                                    std::to_string(lineno));
      }
      section = Trim(t.substr(1, t.size() - 2));
      continue;
    }
    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("ConfigMap: missing '=' at line " +
                                  std::to_string(lineno));
    }
    // Strip inline comments from the value.
    std::string value = t.substr(eq + 1);
    const std::size_t comment = value.find_first_of("#;");
    if (comment != std::string::npos) value = value.substr(0, comment);
    cfg.Set(section, Trim(t.substr(0, eq)), Trim(value));
  }
  return cfg;
}

ConfigMap ConfigMap::FromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ConfigMap: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return FromString(ss.str());
}

void ConfigMap::Set(const std::string& section, const std::string& key,
                    const std::string& value) {
  sections_[section][key] = value;
}

bool ConfigMap::Has(const std::string& section, const std::string& key) const {
  const auto sit = sections_.find(section);
  if (sit == sections_.end()) return false;
  return sit->second.count(key) > 0;
}

std::optional<std::string> ConfigMap::GetString(const std::string& section,
                                                const std::string& key) const {
  const auto sit = sections_.find(section);
  if (sit == sections_.end()) return std::nullopt;
  const auto kit = sit->second.find(key);
  if (kit == sit->second.end()) return std::nullopt;
  return kit->second;
}

std::string ConfigMap::GetStringOr(const std::string& section,
                                   const std::string& key,
                                   const std::string& fallback) const {
  return GetString(section, key).value_or(fallback);
}

std::int64_t ConfigMap::GetIntOr(const std::string& section,
                                 const std::string& key,
                                 std::int64_t fallback) const {
  const auto v = GetString(section, key);
  if (!v) return fallback;
  return std::stoll(*v, nullptr, 0);
}

double ConfigMap::GetDoubleOr(const std::string& section, const std::string& key,
                              double fallback) const {
  const auto v = GetString(section, key);
  if (!v) return fallback;
  return std::stod(*v);
}

bool ConfigMap::GetBoolOr(const std::string& section, const std::string& key,
                          bool fallback) const {
  const auto v = GetString(section, key);
  if (!v) return fallback;
  const std::string low = ToLower(Trim(*v));
  if (low == "true" || low == "yes" || low == "on" || low == "1") return true;
  if (low == "false" || low == "no" || low == "off" || low == "0") return false;
  throw std::invalid_argument("ConfigMap: bad bool value '" + *v + "'");
}

std::uint64_t ConfigMap::GetBytesOr(const std::string& section,
                                    const std::string& key,
                                    std::uint64_t fallback) const {
  const auto v = GetString(section, key);
  if (!v) return fallback;
  return ParseByteSize(*v);
}

std::string ConfigMap::ToString() const {
  std::ostringstream os;
  for (const auto& [section, kv] : sections_) {
    os << "[" << section << "]\n";
    for (const auto& [k, v] : kv) os << k << " = " << v << "\n";
    os << "\n";
  }
  return os.str();
}

}  // namespace ctflash::util
