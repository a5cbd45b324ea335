// Declarative fault schedules: the scenario engine's core data type.
//
// A Schedule is a complete, replayable description of one adversarial run:
// the initial cluster size, the simulator seed, and a list of environment
// events (crashes, partitions, joins, leaves, false suspicions, delay
// storms) pinned to tick offsets.  Everything downstream — the seeded
// generator, the executor, the minimizer, and the `gmpx_fuzz` CLI — speaks
// this type, so a failing fuzz seed is the same artifact as a hand-written
// regression scenario or a minimized reproducer.
//
// Schedules serialize to a line-oriented text format (common/textcodec.hpp)
// so reproducers can be attached to bug reports and replayed with
// `gmpx_fuzz --replay file`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace gmpx::scenario {

/// Kind of one environment event.
enum class EventType : uint8_t {
  kCrash,       ///< quit_p(target) at tick `at`
  kPartition,   ///< sever group `group` from everyone else at `at`;
                ///< auto-heals after `duration` ticks when duration > 0
  kHeal,        ///< release every active partition at `at`
  kJoin,        ///< process `target` solicits admission via `group` at `at`
  kLeave,       ///< target voluntarily leaves (S1 departure) at `at`
  kSuspect,     ///< observer falsely decides faulty_observer(target) at `at`
  kDelayStorm,  ///< channel delays become [min_delay, max_delay] for
                ///< `duration` ticks starting at `at`, then revert
  kPartitionOneway,  ///< sever `group` -> rest one-way at `at` (reverse
                     ///< direction keeps flowing); auto-heals after
                     ///< `duration` ticks when duration > 0
  kFaults,      ///< background channels drop/dup/reorder frames with the
                ///< given permille probabilities for `duration` ticks
                ///< starting at `at`, then revert
  kRestart,     ///< crashed member `target` reborn at `at` as the fresh
                ///< incarnation `observer`, re-joining through the normal
                ///< admission path via contacts `group`
};

/// Returns the schedule-file keyword ("crash", "partition", ...).
const char* to_string(EventType t);

/// One scheduled environment event.  Field use by type:
///   kCrash/kLeave:      at, target
///   kSuspect:           at, observer, target
///   kPartition:         at, duration (0 = until an explicit heal), group
///   kPartitionOneway:   at, duration (0 = until an explicit heal), group
///   kHeal:              at
///   kJoin:              at, target (the joiner's fresh id), group (contacts)
///   kDelayStorm:        at, duration, min_delay, max_delay
///   kFaults:            at, duration, loss/dup/reorder (permille)
///   kRestart:           at, target (the crashed old id), observer (the
///                       fresh incarnation's id), group (contacts)
struct ScheduleEvent {
  EventType type = EventType::kCrash;
  Tick at = 0;
  ProcessId target = kNilId;
  ProcessId observer = kNilId;
  std::vector<ProcessId> group{};
  Tick duration = 0;
  Tick min_delay = 0;
  Tick max_delay = 0;
  uint32_t loss = 0;     ///< kFaults: drop probability, permille
  uint32_t dup = 0;      ///< kFaults: duplication probability, permille
  uint32_t reorder = 0;  ///< kFaults: reorder probability, permille

  friend bool operator==(const ScheduleEvent&, const ScheduleEvent&) = default;
};

/// A complete adversarial run description.
struct Schedule {
  size_t n = 4;       ///< initial members, ids 0..n-1
  uint64_t seed = 1;  ///< SimWorld seed (message delays, oracle jitter)
  std::vector<ScheduleEvent> events;

  friend bool operator==(const Schedule&, const Schedule&) = default;
};

/// True when a quiesced run of `s` may be held to GMP-5 convergence: every
/// partition is healed (explicitly or by its own duration) before the run
/// ends.  An eternally split group is *allowed* to stall — that is the
/// asynchronous model — so liveness is only asserted on heal-complete
/// schedules.
bool liveness_eligible(const Schedule& s);

/// Serialize to the schedule-file text format.
std::string encode_schedule(const Schedule& s);

/// Parse a schedule file; throws gmpx::CodecError on malformed input.
Schedule decode_schedule(const std::string& text);

/// Human-oriented one-line summary ("n=5 seed=42 events=7 [crash@100 ...]").
std::string summarize(const Schedule& s);

}  // namespace gmpx::scenario
