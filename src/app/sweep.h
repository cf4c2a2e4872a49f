// Parameter-sweep driver: the cartesian product of scenario specs,
// aggregation policies, rate-adaptation schemes and medium delivery
// policies, each point run through app::run_experiment. Every simulation
// is self-contained (its own Simulation, Medium and RNG; no mutable
// globals as long as sim::Log stays quiet), so points execute in
// parallel across a thread pool, each wholly on one worker, and results
// come back in deterministic grid order regardless of scheduling.
//
// A SweepCache memoizes results across sweep calls keyed on the axis
// coordinates plus the seed, so figure-regeneration drivers that sweep
// overlapping grids skip every point they have already simulated.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "app/experiment.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hydra::app {

// One axis combination, fully resolved into a runnable config.
struct SweepPoint {
  std::string scenario_label;
  std::string policy_label;
  mac::RateAdaptationScheme rate_adaptation = mac::RateAdaptationScheme::kNone;
  // Label of the medium-policy axis entry ("" for the default axis, so
  // single-policy sweeps keep their historical labels).
  std::string medium_label;
  // Label of the transport-scheme axis entry (same convention; "" for
  // the default axis, whose points run the base config's tuning).
  std::string transport_label;
  topo::ExperimentConfig config;
};

struct SweepOutcome {
  SweepPoint point;
  topo::ExperimentResult result;
  // Wall-clock cost of this point's simulation (scaling benches chart
  // it against topology size). ~0 when served from a SweepCache.
  double wall_seconds = 0.0;
  bool from_cache = false;
};

// The sweep axes. `base` supplies the workload (traffic kind, file
// sizes, seed, time cap); each point overwrites base.scenario with the
// axis spec, then the spec's policy, rate adaptation and medium policy
// with the other axes.
struct SweepGrid {
  std::vector<std::pair<std::string, topo::ScenarioSpec>> scenarios;
  std::vector<std::pair<std::string, core::AggregationPolicy>> policies = {
      {"ba", core::AggregationPolicy::ba()}};
  std::vector<mac::RateAdaptationScheme> rate_adaptations = {
      mac::RateAdaptationScheme::kNone};
  // Medium delivery axis. kAuto entries never overwrite the spec: the
  // default single-entry axis leaves each spec's own MediumTuning in
  // charge (a pinned policy stays pinned); kFullMesh/kCulled entries
  // force that policy onto every spec of the grid.
  std::vector<std::pair<std::string, topo::MediumPolicy>> mediums = {
      {"", topo::MediumPolicy::kAuto}};
  // Transport-scheme axis (congestion control × ACK policy), innermost.
  // The same deferral convention as mediums: a nullopt entry leaves
  // base.tcp.tuning in charge; a concrete TransportTuning overwrites it
  // on every point. Empty labels resolve to the tuning's
  // own to_string ("newreno+ack-imm") so ablation tables stay readable.
  std::vector<std::pair<std::string, std::optional<transport::TransportTuning>>>
      transports = {{"", std::nullopt}};
  topo::ExperimentConfig base;
};

// Memoizes experiment results across sweep invocations, keyed on
// (scenario label, aggregation policy label, rate-adaptation scheme,
// medium policy, seed) plus fingerprints of the resolved scenario spec
// and the workload base config, so same-label points describing
// different worlds or workloads never alias — one cache can safely
// serve every sweep in a process. Thread-safe; sweep workers consult it
// concurrently.
//
// Optionally backed by a directory of persisted results (set_disk_dir):
// find() falls back to disk on a memory miss and store() writes
// through, so figure-regeneration drivers re-run across processes skip
// every point an earlier run already simulated. Files are named by the
// CRC-32 of the key; the full key is stored inside each file and
// verified on load, so a fingerprint collision degrades to a miss,
// never to an aliased result.
class SweepCache {
 public:
  static std::string key_of(const SweepPoint& point);

  // nullptr on miss. Results are shared immutably, so the critical
  // section stays O(1) — callers copy outside the lock if they need to.
  std::shared_ptr<const topo::ExperimentResult> find(
      const std::string& key) const;
  void store(const std::string& key, const topo::ExperimentResult& result);

  // Attaches a persistence directory (created if missing; "" detaches).
  void set_disk_dir(std::string dir);
  // Attaches the directory named by $HYDRA_SWEEP_CACHE_DIR if set; the
  // bench driver points it under the build tree, keyed on a hash of the
  // source tree so stale results never survive a code change. No-op
  // when the variable is absent.
  void attach_env_disk_dir();

  std::size_t size() const;
  std::uint64_t hits() const;        // served from memory
  std::uint64_t disk_hits() const;   // served from the disk directory
  std::uint64_t disk_stores() const; // results persisted to it
  std::uint64_t misses() const;      // simulated from scratch

 private:
  mutable util::Mutex mutex_;
  // std::map, not unordered: sweep tooling may iterate the cache (e.g.
  // to dump keys) and the determinism lint bans hash-order walks.
  // mutable: the (const) find path promotes disk hits into memory.
  mutable std::map<std::string, std::shared_ptr<const topo::ExperimentResult>>
      results_ GUARDED_BY(mutex_);
  std::string disk_dir_ GUARDED_BY(mutex_);
  // Mutated by the (const) find path; lookups are logically read-only.
  mutable std::uint64_t hits_ GUARDED_BY(mutex_) = 0;
  mutable std::uint64_t disk_hits_ GUARDED_BY(mutex_) = 0;
  mutable std::uint64_t misses_ GUARDED_BY(mutex_) = 0;
  std::uint64_t disk_stores_ GUARDED_BY(mutex_) = 0;
  // Serializes tmp-file writes so two workers storing the same key
  // never interleave bytes; held after (never with) mutex_.
  util::Mutex disk_write_mutex_;
};

// Text round-trip of an ExperimentResult, the on-disk format of the
// persistent SweepCache (exposed for its tests). serialize is exact:
// doubles print with 17 significant digits, durations as nanoseconds.
std::string serialize_result(const topo::ExperimentResult& result);
bool deserialize_result(const std::string& text, topo::ExperimentResult* out);

// Expands the grid scenario-major (policies, rate adaptations, then
// medium policies innermost) without running anything.
std::vector<SweepPoint> expand_sweep(const SweepGrid& grid);

// Runs every point of the grid, `threads` simulations at a time
// (0 = hardware concurrency). Outcomes are indexed like expand_sweep.
// With `cache`, previously simulated points are served from it and new
// results are stored back.
std::vector<SweepOutcome> sweep_experiments(const SweepGrid& grid,
                                            unsigned threads = 0,
                                            SweepCache* cache = nullptr);

}  // namespace hydra::app
