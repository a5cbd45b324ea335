// Shared plumbing for the repository benchmark: command-line arguments, the
// report every invocation prints (human-readable metric lines, then one JSON
// object as the last line), sample statistics, and the in-memory span log
// the traced runs record at each layer boundary.
//
// Spans are recorded from the benchmark's own files only, around calls into
// each layer's public functions (scenario::generate, Cluster::reset,
// StagedRun::install/advance, trace::check_gmp, the soak host and oracles,
// run_sweep, run_mux, net::TcpRuntime) — the library itself is untouched.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(uint64_t t0_ns) { return static_cast<double>(now_ns() - t0_ns) * 1e-9; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span dump path (traced runs); empty = don't write
  bool quick = false;     ///< self-test sizing: every workload, briefly
};

/// Worker threads for the sharded sweeps: the workers plus the merging main
/// thread stay within the machine's hardware threads.
unsigned sweep_jobs();

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// SplitMix64 finalizer: derives independent input seeds from the
/// benchmark seed.
uint64_t mix64(uint64_t z);

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

double median(std::vector<double> v);

/// Nearest-rank percentile of `v` (0 < p <= 100); 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// A timing tail: the highest percentile of {99.9, 99, 95, 90, 75, 50} that
/// leaves at least ten samples beyond it.  `pct` is 0 (and `value` the
/// maximum) when the sample is too small for even the median to qualify.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  size_t samples = 0;
};
Tail tail_of(const std::vector<double>& v);

/// Median and tail of a sample split into strata (one per detector),
/// averaged over the strata.  Each detector's runs form their own
/// distribution; a median over the mixture would sit between them and jump
/// whenever their speeds shift unevenly.  The strata are equally sized, so
/// the tail percentile is the same in each.
struct Summary {
  double p50 = 0.0;
  Tail tail;
};
Summary summarize(const std::vector<std::vector<double>>& strata);

/// "n=.. min=.. q1=.. median=.. q3=.. max=.." of a per-round series, so
/// every report shows its own run-to-run spread.
std::string spread(const std::vector<double>& v);

/// "(failed/attempted what)": the detail printed with the fail_ratio figure.
std::string fail_detail(uint64_t failed, uint64_t attempted, const char* what);

/// The deterministic fields of a sim round: they may depend only on the
/// inputs, never on timing or on the sweep's job count.
struct Digest {
  uint64_t fold = 1469598103934665603ull;  ///< trace hashes, canonical order
  uint64_t messages = 0;
  uint64_t skipped_ticks = 0;
  double availability = 0.0;  ///< summed in canonical order
  uint64_t ops_attempted = 0;

  void add(uint64_t trace_hash, uint64_t msgs, uint64_t skipped, double avail, uint64_t ops) {
    fold = mix64(fold ^ trace_hash);
    messages += msgs;
    skipped_ticks += skipped;
    availability += avail;
    ops_attempted += ops;
  }
  bool operator==(const Digest&) const = default;
  std::string str() const;
};

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

/// What one invocation reports.  metric() and figure() print a
/// human-readable line at once; emit_json() prints the contract object,
/// holding the metric() entries, as the last line of standard output.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// A metric for the final JSON object (and its human-readable line).
  void metric(const std::string& name, double value, const std::string& unit);
  /// A human-readable figure only (issue-named end-to-end metrics, counts).
  void figure(const std::string& name, double value, const std::string& unit,
              const std::string& detail = "");
  void note(const std::string& line) const;
  /// A correctness failure of the benchmark's own checks: printed loudly,
  /// and the report ends with "correct": false.
  void fail(const std::string& why);
  void count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool has(const std::string& name) const;
  void emit_json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::string workload_;
  std::vector<Entry> json_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// setup_s: at least kSetupPasses timed passes of the workload's set-up work
/// (`pass` does it once on the calling thread and returns how many inputs
/// it made ready).  Workloads time one pass before every measured round, so
/// the passes sample the whole run rather than its first fraction of a
/// second, and setup_s() tops up to kSetupPasses.
///
/// The reported figure is the lower quartile of the passes, not their
/// median: on a host whose cores are shared, a single thread runs ~1.5x
/// slower through spells of a second or more, so pass times are bimodal and
/// a median flips between the two modes from run to run.  The lower
/// quartile reads the undisturbed mode unless three quarters of a run is
/// disturbed.
constexpr size_t kSetupPasses = 15;

template <class Pass>
class SetupTimer {
 public:
  explicit SetupTimer(Pass pass) : pass_(std::move(pass)) {}

  void time_pass() {
    const uint64_t t0 = now_ns();
    inputs_ = pass_();
    seconds_.push_back(seconds_since(t0));
  }

  double setup_s(Report& rep) {
    while (seconds_.size() < kSetupPasses) time_pass();
    rep.note("set-up: " + std::to_string(inputs_) + " inputs per pass, seconds " +
             spread(seconds_));
    return percentile(seconds_, 25);
  }

 private:
  Pass pass_;
  uint64_t inputs_ = 0;
  std::vector<double> seconds_;
};

// ---------------------------------------------------------------------------
// Span log (traced runs).
// ---------------------------------------------------------------------------

/// Spans kept in memory — name, start, end, parent and the id of the unit of
/// work (schedule, group or trial) they belong to — and written out when the
/// run ends.  Single-threaded: spans nest strictly, so the open span is the
/// parent of the next one opened.
class SpanLog {
 public:
  int32_t open(const char* name, uint32_t unit);
  void close(int32_t idx);

  /// RAII form of open()/close(); a null log makes it a no-op, so the same
  /// replay code serves traced and untraced passes.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, uint32_t unit)
        : log_(log), idx_(log ? log->open(name, unit) : -1) {}
    ~Scope() {
      if (log_) log_->close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int32_t idx_;
  };

  /// Tag unit `unit` with a label (its detector); aggregation groups by it.
  void label_unit(uint32_t unit, const std::string& label);

  /// Per-(span name, unit label) totals over the whole log: self time is a
  /// span's duration minus the time its child spans cover.
  struct Totals {
    uint64_t self_ns = 0;
    uint64_t incl_ns = 0;
    uint64_t spans = 0;
  };
  std::map<std::string, Totals> totals() const;  ///< key: "<name>.<label>"

  /// Inclusive duration of every span named `name`, summed.
  uint64_t incl_ns_of(const std::string& name) const;

  /// One line per span: unit, label, name, start, end (ns from the first
  /// span), parent index.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t start;
    uint64_t end;
    int32_t parent;
    uint32_t unit;
  };
  std::vector<Span> spans_;
  int32_t open_ = -1;
  std::map<uint32_t, std::string> labels_;
};

// ---------------------------------------------------------------------------
// Workloads.  Each fills the report with its end-to-end metrics (untraced)
// or its per-layer metrics (traced).
// ---------------------------------------------------------------------------

void run_fuzz_sweep(const Args& args, Report& rep);
void run_soak_week(const Args& args, Report& rep);
void run_mux_fleet(const Args& args, Report& rep);
void run_tcp_failover(const Args& args, Report& rep);

/// Names of every per-layer metric, in report order.  A traced run prints
/// all of them; a layer the workload does not pass through reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace perfbench
