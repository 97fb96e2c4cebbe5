#include "ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <cstdio>
#include <cstring>
#include <map>
#include <queue>
#include <unordered_map>

namespace simbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over the (seed, stream) pair.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Fnv::Add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
}

void Fnv::Add(std::uint64_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  Add(std::string_view(buf, sizeof buf));
}

void Fnv::Add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  Add(bits);
}

std::string Fnv::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

double ReferenceLoop(std::uint64_t seed) {
  constexpr int kOps = 400'000;
  const auto start = Clock::now();
  std::priority_queue<std::pair<std::uint64_t, std::uint32_t>,
                      std::vector<std::pair<std::uint64_t, std::uint32_t>>,
                      std::greater<>>
      heap;
  std::unordered_map<std::uint32_t, std::uint64_t> table;
  table.reserve(8192);
  std::uint64_t x = seed | 1;
  std::uint64_t now = 0;
  for (int i = 0; i < kOps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.emplace(now + (x & 0x3ff), static_cast<std::uint32_t>(x >> 40));
    if (heap.size() > 512) {
      const auto [at, id] = heap.top();
      heap.pop();
      now = at;
      table[id & 8191] += at;
    }
  }
  static std::atomic<std::uint64_t> keep{0};
  keep += table.size() + now;
  return SecondsSince(start);
}

}  // namespace

double ReferenceSeconds(std::uint32_t threads) {
  constexpr std::uint64_t kSeed = 0x2545F4914F6CDD1Dull;
  if (threads <= 1) return ReferenceLoop(kSeed);
  std::vector<double> seconds(threads);
  std::vector<std::thread> pool;
  for (std::uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&seconds, t] { seconds[t] = ReferenceLoop(kSeed); });
  }
  for (std::thread& t : pool) t.join();
  double sum = 0.0;
  for (const double s : seconds) sum += s;
  return sum / static_cast<double>(threads);
}

Spans::Scope::Scope(Spans* spans, const char* name) {
  if (spans == nullptr || !spans->enabled_) return;
  spans_ = spans;
  index_ = spans->spans_.size();
  Span span;
  span.name = name;
  span.parent = spans->open_.empty()
                    ? -1
                    : static_cast<std::int64_t>(spans->open_.back());
  span.start_ns = spans->NowNs();
  spans->spans_.push_back(std::move(span));
  spans->open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  spans_->spans_[index_].end_ns = spans_->NowNs();
  spans_->open_.pop_back();
}

std::int64_t Spans::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::vector<std::int64_t> Spans::SelfNs() const {
  // Children nest strictly inside their parent and never overlap each
  // other (one thread, RAII scopes), so the covered part of a parent is the
  // plain sum of its children's durations.
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  return self;
}

Json Spans::ToJson() const {
  const std::vector<std::int64_t> self = SelfNs();
  ctflash::campaign::JsonArray list;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json row;
    row["id"] = static_cast<std::uint64_t>(i);
    row["name"] = s.name;
    row["parent"] = static_cast<std::int64_t>(s.parent);
    row["start_ns"] = static_cast<std::int64_t>(s.start_ns);
    row["end_ns"] = static_cast<std::int64_t>(s.end_ns);
    row["self_ns"] = static_cast<std::int64_t>(self[i]);
    list.push_back(std::move(row));
  }
  Json by_name;
  for (const auto& [name, ms] : SelfMsByName()) by_name[name] = ms;
  Json out;
  out["spans"] = Json(std::move(list));
  out["self_ms_by_name"] = std::move(by_name);
  return out;
}

std::vector<std::pair<std::string, double>> Spans::SelfMsByName() const {
  const std::vector<std::int64_t> self = SelfNs();
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    totals[spans_[i].name] += static_cast<double>(self[i]) / 1e6;
  }
  std::vector<std::pair<std::string, double>> out(totals.begin(), totals.end());
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  return out;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

double Metrics::Value(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

Json Metrics::ToJson() const {
  Json out = Json(ctflash::campaign::JsonObject{});
  for (const Entry& e : entries_) {
    Json m;
    m["value"] = e.value;
    m["unit"] = e.unit;
    out[e.name] = std::move(m);
  }
  return out;
}

}  // namespace simbench
