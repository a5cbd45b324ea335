#include "bench.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

unsigned sweep_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report the
  // launching process's footprint whenever that was larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

uint64_t mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

Tail tail_of(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double at = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    if (static_cast<double>(v.size()) - at >= 10.0) {
      t.pct = p;
      t.value = percentile(v, p);
      return t;
    }
  }
  t.value = v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
  return t;
}

Summary summarize(const std::vector<std::vector<double>>& strata) {
  Summary s;
  size_t used = 0;
  for (const std::vector<double>& v : strata) {
    if (v.empty()) continue;
    const Tail t = tail_of(v);
    s.p50 += percentile(v, 50);
    s.tail.value += t.value;
    s.tail.pct = t.pct;
    s.tail.samples = t.samples;
    ++used;
  }
  if (used) {
    s.p50 /= static_cast<double>(used);
    s.tail.value /= static_cast<double>(used);
  }
  return s;
}

std::string spread(const std::vector<double>& v) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "n=%zu min=%.6g q1=%.6g median=%.6g q3=%.6g max=%.6g", v.size(),
                percentile(v, 0), percentile(v, 25), median(v), percentile(v, 75),
                percentile(v, 100));
  return buf;
}

std::string fail_detail(uint64_t failed, uint64_t attempted, const char* what) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "(%" PRIu64 "/%" PRIu64 " %s)", failed, attempted, what);
  return buf;
}

std::string Digest::str() const {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "trace_fold=%016" PRIx64 " messages=%" PRIu64 " skipped_ticks=%" PRIu64
                " availability=%.17g ops_attempted=%" PRIu64,
                fold, messages, skipped_ticks, availability, ops_attempted);
  return buf;
}

// ---------------------------------------------------------------------------

void Report::metric(const std::string& name, double value, const std::string& unit) {
  std::printf("metric %s %s = %.6g %s\n", workload_.c_str(), name.c_str(), value, unit.c_str());
  json_.push_back({name, value, unit});
}

void Report::figure(const std::string& name, double value, const std::string& unit,
                    const std::string& detail) {
  std::printf("figure %s %s = %.6g %s%s%s\n", workload_.c_str(), name.c_str(), value,
              unit.c_str(), detail.empty() ? "" : "  ", detail.c_str());
}

void Report::note(const std::string& line) const {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

void Report::fail(const std::string& why) {
  correct_ = false;
  std::printf("!!! CHECK FAILED (%s): %s\n", workload_.c_str(), why.c_str());
  std::fprintf(stderr, "perfbench: CHECK FAILED (%s): %s\n", workload_.c_str(), why.c_str());
  std::fflush(stdout);
}

bool Report::has(const std::string& name) const {
  for (const Entry& e : json_) {
    if (e.name == name) return true;
  }
  return false;
}

void Report::emit_json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : json_) {
    char num[64];
    // %.17g keeps every digit of the measurement; JSON has no NaN/inf.
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(e.value) ? e.value : 0.0);
    out += first ? "" : ", ";
    out += "\"" + e.name + "\": {\"value\": " + num + ", \"unit\": \"" + e.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------

int32_t SpanLog::open(const char* name, uint32_t unit) {
  spans_.push_back(Span{name, now_ns(), 0, open_, unit});
  open_ = static_cast<int32_t>(spans_.size() - 1);
  return open_;
}

void SpanLog::close(int32_t idx) {
  spans_[static_cast<size_t>(idx)].end = now_ns();
  open_ = spans_[static_cast<size_t>(idx)].parent;
}

void SpanLog::label_unit(uint32_t unit, const std::string& label) { labels_[unit] = label; }

namespace {

/// Per-span self time: duration minus the summed durations of its direct
/// children (spans nest strictly, so children never overlap each other).
std::vector<uint64_t> self_times(const auto& spans) {
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].end - spans[i].start;
  for (const auto& s : spans) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end - s.start;
  }
  return self;
}

}  // namespace

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  const std::vector<uint64_t> self = self_times(spans_);
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto it = labels_.find(s.unit);
    Totals& t = out[std::string(s.name) + "." + (it == labels_.end() ? "" : it->second)];
    t.self_ns += self[i];
    t.incl_ns += s.end - s.start;
    ++t.spans;
  }
  return out;
}

uint64_t SpanLog::incl_ns_of(const std::string& name) const {
  uint64_t sum = 0;
  for (const Span& s : spans_) {
    if (name == s.name) sum += s.end - s.start;
  }
  return sum;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const uint64_t base = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(f, "# unit\tlabel\tname\tstart_ns\tend_ns\tparent\n");
  for (const Span& s : spans_) {
    auto it = labels_.find(s.unit);
    std::fprintf(f, "%u\t%s\t%s\t%llu\t%llu\t%d\n", s.unit,
                 it == labels_.end() ? "-" : it->second.c_str(), s.name,
                 static_cast<unsigned long long>(s.start - base),
                 static_cast<unsigned long long>(s.end - base), s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
