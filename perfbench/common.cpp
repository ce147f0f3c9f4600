#include "common.hpp"

#include <sys/resource.h>

#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "core/fingerprint.hpp"
#include "util/rng.hpp"

namespace perfbench {

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::sum() const {
  double total = 0.0;
  for (const double v : values_) total += v;
  return total;
}

std::uint64_t Tracer::begin(const char* name, std::uint64_t parent,
                            std::uint64_t op) {
  if (!enabled_) return 0;
  const double t = now_s();
  spans_.push_back({name, t, t, spans_.size() + 1, parent, op});
  return spans_.size();
}

void Tracer::end(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  spans_[id - 1].end = now_s();
}

std::uint64_t Tracer::add(const char* name, double start, double end,
                          std::uint64_t parent, std::uint64_t op) {
  if (!enabled_) return 0;
  spans_.push_back({name, start, end, spans_.size() + 1, parent, op});
  return spans_.size();
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  // Children of each span, as intervals; their union is subtracted.
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0;
      double cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    self[layer] += std::max(0.0, s.end - s.start - covered) * 1e3;
  }
  return self;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  for (const Span& s : spans_) {
    pcmax::JsonValue line = pcmax::JsonValue::make_object();
    line["name"] = s.name;
    line["start_s"] = s.start;
    line["end_s"] = s.end;
    line["id"] = s.id;
    line["parent"] = s.parent;
    line["op"] = s.op;
    out << line.dump() << '\n';
  }
  if (!out) throw std::runtime_error("short write to span file " + path);
}

void Outcome::fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

ScheduleDigest digest(const pcmax::Schedule& schedule) {
  pcmax::Fingerprinter hasher;
  hasher.absorb_int(schedule.machines());
  for (int m = 0; m < schedule.machines(); ++m) {
    const std::vector<int>& jobs = schedule.jobs_on(m);
    hasher.absorb_int(static_cast<std::int64_t>(jobs.size()));
    for (const int j : jobs) hasher.absorb_int(j);
  }
  const pcmax::Fingerprint f = hasher.finish();
  return {f.hi, f.lo};
}

pcmax::Instance permuted(const pcmax::Instance& base, std::uint64_t seed) {
  std::vector<pcmax::Time> times(base.times().begin(), base.times().end());
  pcmax::Xoshiro256StarStar rng(seed);
  for (std::size_t i = times.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        pcmax::uniform_int(rng, 0, static_cast<std::int64_t>(i - 1)));
    std::swap(times[i - 1], times[j]);
  }
  return pcmax::Instance(base.machines(), std::move(times));
}

}  // namespace perfbench
