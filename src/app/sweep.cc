#include "app/sweep.h"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <system_error>
#include <thread>

#include "util/crc32.h"
#include "util/task_pool.h"

namespace hydra::app {

namespace {

// printf-style accumulator behind the cache-key fingerprints: chunked
// appends into an unbounded string (each chunk clamped so a truncated
// format can never read past the buffer). The serialized field values
// go into the key verbatim — no hashing — so two distinct
// configurations can never collide onto one cache slot.
class Fingerprinter {
 public:
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((format(printf, 2, 3)))
#endif
  void
  add(const char* fmt, ...) {
    char buf[192];
    va_list args;
    va_start(args, fmt);
    const int written = std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    if (written <= 0) return;
    blob_.append(buf, std::min(static_cast<std::size_t>(written),
                               sizeof buf - 1));
  }

  std::string take() && { return std::move(blob_); }

 private:
  std::string blob_;
};

// Sync tripwires: the fingerprints below hand-enumerate every
// outcome-affecting field of these structs. A new field added without
// updating the matching fingerprint would silently alias cache keys
// (stale results served for new configurations), so growing any of
// them must fail the build here until the fingerprint — and then this
// constant — is updated. Pinned sizes are ABI-specific, so the guard
// only arms on the toolchain CI runs (x86-64 libstdc++ without debug
// containers); elsewhere the fingerprints still work, they just lose
// the compile-time reminder.
#if defined(__GLIBCXX__) && defined(__x86_64__) && !defined(_GLIBCXX_DEBUG)
static_assert(sizeof(topo::ScenarioSpec) == 360,
              "ScenarioSpec changed: update spec_fingerprint");
static_assert(sizeof(topo::MobilitySpec) == 96,
              "MobilitySpec changed: update spec_fingerprint");
static_assert(sizeof(topo::NodeParams) == 128,
              "NodeParams changed: update spec_fingerprint");
static_assert(sizeof(core::AggregationPolicy) == 48,
              "AggregationPolicy changed: update spec_fingerprint");
static_assert(sizeof(topo::ExperimentConfig) == 568,
              "ExperimentConfig changed: update workload_fingerprint");
static_assert(sizeof(transport::TcpConfig) == 96,
              "TcpConfig changed: update workload_fingerprint");
static_assert(sizeof(transport::TransportTuning) == 48,
              "TransportTuning changed: update workload_fingerprint");
// The disk-cache serializer hand-enumerates every field of these four;
// a field added without extending serialize/deserialize_result would
// silently persist partial results.
static_assert(sizeof(topo::ExperimentResult) == 232,
              "ExperimentResult changed: update serialize_result");
static_assert(sizeof(topo::FlowResult) == 32,
              "FlowResult changed: update serialize_result");
static_assert(sizeof(mac::MacStats) == 192,
              "MacStats changed: update serialize_result");
static_assert(sizeof(mac::TimeAccounting) == 48,
              "TimeAccounting changed: update serialize_result");
#endif

// Everything in a spec that changes the simulation's outcome but is not
// named by an axis label: ScenarioSpec::label() encodes only family and
// size (and a policy axis label is whatever the caller typed), so two
// same-label grid entries differing in spacing, sessions, policy knobs
// or placement would otherwise alias in the cache. The fingerprint runs
// over the point's *resolved* spec — after the axes overwrite policy,
// scheme and medium — so axis values are covered regardless of their
// labels.
std::string spec_fingerprint(const topo::ScenarioSpec& spec) {
  Fingerprinter fp;
  fp.add("f%d n%zu k%zu r%zux%zu sp%.17g rng%.17g ps%llu ",
         static_cast<int>(spec.family), spec.nodes, spec.senders, spec.rows,
         spec.cols, spec.spacing_m, spec.range_m,
         static_cast<unsigned long long>(spec.placement_seed));
  fp.add("w%d sr%d rd%d cm%.17g ", spec.neighbor_whitelist,
         spec.static_routes, spec.route_discovery,
         spec.medium.cull_margin_db);
  // Mobility changes the outcome through node motion and churn; every
  // knob (including the explicit mobile list) feeds the key.
  const auto& mob = spec.mobility;
  fp.add("mk%d mi%lld ma%lld mo%lld v%.17g stp%.17g out%u dn%lld mseed%llu ",
         static_cast<int>(mob.kind),
         static_cast<long long>(mob.update_interval.ns()),
         static_cast<long long>(mob.start_after.ns()),
         static_cast<long long>(mob.stop_after.ns()), mob.speed_mps,
         mob.step_m, mob.steps_out,
         static_cast<long long>(mob.down_time.ns()),
         static_cast<unsigned long long>(mob.seed));
  for (const std::uint32_t i : mob.mobile) fp.add("mn%u ", i);
  fp.add("q%zu rts%d tpd%.17g ra%d ", spec.node.queue_limit,
         spec.node.use_rts_cts, spec.node.tx_power_delta_db,
         static_cast<int>(spec.node.rate_adaptation));
  for (const auto* mode : {&spec.node.unicast_mode,
                           &spec.node.broadcast_mode}) {
    fp.add("m%d/%u-%u/%llu/%.17g ", static_cast<int>(mode->modulation),
           static_cast<unsigned>(mode->code_rate.num),
           static_cast<unsigned>(mode->code_rate.den),
           static_cast<unsigned long long>(mode->rate.bits_per_second()),
           mode->required_snr_db);
  }
  const auto& policy = spec.node.policy;
  fp.add("pm%d mb%zu at%lld ack%d fw%d dmin%u dto%lld blk%d ",
         static_cast<int>(policy.mode), policy.max_aggregate_bytes,
         static_cast<long long>(policy.max_aggregate_airtime.ns()),
         policy.tcp_ack_as_broadcast, policy.forward_aggregation,
         policy.delay_min_subframes,
         static_cast<long long>(policy.delay_timeout.ns()),
         policy.block_ack);
  for (const auto& session : spec.sessions) {
    fp.add("s%u-%u ", session.sender, session.receiver);
  }
  for (const auto& pos : spec.positions_override) {
    fp.add("p%.17g,%.17g ", pos.x_m, pos.y_m);
  }
  return std::move(fp).take();
}

// The workload side of a point: everything in ExperimentConfig outside
// the scenario spec and the seed (both covered above). Keying on it lets
// one cache serve sweeps with different base configs without aliasing.
std::string workload_fingerprint(const topo::ExperimentConfig& config) {
  Fingerprinter fp;
  fp.add("t%d fb%llu mss%u rw%u cw%u rto%lld/%lld/%lld mr%u ",
         static_cast<int>(config.traffic),
         static_cast<unsigned long long>(config.tcp_file_bytes),
         config.tcp.mss, config.tcp.recv_window,
         config.tcp.initial_cwnd_segments,
         static_cast<long long>(config.tcp.rto_initial.ns()),
         static_cast<long long>(config.tcp.rto_min.ns()),
         static_cast<long long>(config.tcp.rto_max.ns()),
         config.tcp.max_retries);
  const auto& tn = config.tcp.tuning;
  fp.add("cc%d ap%d ca%.17g dd%lld/%lld dp%u gm%.17g ",
         static_cast<int>(tn.cc), static_cast<int>(tn.ack), tn.cerl.alpha,
         static_cast<long long>(tn.delack.delay.ns()),
         static_cast<long long>(tn.delack.max_delay.ns()),
         tn.delack.max_pending_segments, tn.delack.gap_multiplier);
  for (const auto& rule : config.losses) {
    fp.add("L%u,%d,%u,%u,%d ", rule.node_index, rule.next_hop_index,
           rule.period, rule.offset, rule.tcp_data_only);
  }
  fp.add("up%u ui%lld upt%u ud%lld ", config.udp_payload_bytes,
         static_cast<long long>(config.udp_interval.ns()),
         config.udp_packets_per_tick,
         static_cast<long long>(config.udp_duration.ns()));
  fp.add("fl%d fi%lld fp%u mst%lld", config.flooding,
         static_cast<long long>(config.flood_interval.ns()),
         config.flood_payload_bytes,
         static_cast<long long>(config.max_sim_time.ns()));
  return std::move(fp).take();
}

// Disk-cache file path for a key: the CRC-32 of the full key names the
// file. Distinct keys can collide onto one name; the loader verifies
// the key line inside the file, so a collision costs a re-simulation,
// never a wrong result.
std::filesystem::path disk_path_for(const std::string& dir,
                                    const std::string& key) {
  const auto fp = crc32({reinterpret_cast<const std::uint8_t*>(key.data()),
                         key.size()});
  char name[32];
  std::snprintf(name, sizeof name, "%08x.sweep", fp);
  return std::filesystem::path(dir) / name;
}

}  // namespace

std::string serialize_result(const topo::ExperimentResult& result) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "hydra-sweep-result 4\n";
  out << "sim_time " << result.sim_time.ns() << "\n";
  out << "counters " << result.phy_transmissions << ' '
      << result.phy_deliveries << ' ' << result.phy_rebuilds << ' '
      << result.phy_incremental_attaches << ' ' << result.phy_detaches << ' '
      << result.phy_moves << ' ' << result.phy_incremental_detaches << ' '
      << result.phy_incremental_moves << ' ' << result.sched_executed_events
      << ' ' << result.heap_allocations << ' '
      << result.heap_bytes_allocated << ' ' << result.peak_rss_kb << ' '
      << result.tcp_retransmits << ' ' << result.tcp_timeouts << ' '
      << result.tcp_acks_sent << ' ' << result.tcp_acks_delayed << ' '
      << result.tcp_channel_losses << ' ' << result.tcp_congestion_losses
      << ' ' << result.transport_injected_drops << "\n";
  out << "relays " << result.relay_indices.size();
  for (const auto i : result.relay_indices) out << ' ' << i;
  out << "\nflows " << result.flows.size() << "\n";
  for (const auto& f : result.flows) {
    out << f.bytes << ' ' << f.elapsed.ns() << ' ' << (f.completed ? 1 : 0)
        << ' ' << f.throughput_mbps << "\n";
  }
  out << "nodes " << result.node_stats.size() << "\n";
  for (const auto& n : result.node_stats) {
    out << n.data_frames_tx << ' ' << n.broadcast_subframes_tx << ' '
        << n.unicast_subframes_tx << ' ' << n.data_bytes_tx << ' '
        << n.mac_header_bytes_tx << ' ' << n.rts_tx << ' ' << n.cts_tx << ' '
        << n.ack_tx << ' ' << n.retries << ' ' << n.retry_drops << ' '
        << n.queue_drops << ' ' << n.delivered_up << ' '
        << n.dropped_not_for_us << ' ' << n.crc_failures << ' '
        << n.aggregate_discards << ' ' << n.duplicates_suppressed << ' '
        << n.acks_rx << ' ' << n.collisions << ' ' << n.time.payload.ns()
        << ' ' << n.time.mac_header.ns() << ' ' << n.time.phy_header.ns()
        << ' ' << n.time.control.ns() << ' ' << n.time.ifs.ns() << ' '
        << n.time.backoff.ns() << "\n";
  }
  out << "end\n";
  return std::move(out).str();
}

bool deserialize_result(const std::string& text,
                        topo::ExperimentResult* out) {
  std::istringstream in(text);
  std::string tag;
  int version = 0;
  // Older versions carry a different counter set; they fail the parse
  // and degrade to a cache miss (re-simulated, then re-stored as v4).
  if (!(in >> tag >> version) || tag != "hydra-sweep-result" || version != 4) {
    return false;
  }
  topo::ExperimentResult r;
  std::int64_t ns = 0;
  if (!(in >> tag >> ns) || tag != "sim_time") return false;
  r.sim_time = sim::Duration::nanos(ns);
  if (!(in >> tag >> r.phy_transmissions >> r.phy_deliveries >>
        r.phy_rebuilds >> r.phy_incremental_attaches >> r.phy_detaches >>
        r.phy_moves >> r.phy_incremental_detaches >>
        r.phy_incremental_moves >> r.sched_executed_events >>
        r.heap_allocations >> r.heap_bytes_allocated >>
        r.peak_rss_kb >> r.tcp_retransmits >> r.tcp_timeouts >>
        r.tcp_acks_sent >> r.tcp_acks_delayed >> r.tcp_channel_losses >>
        r.tcp_congestion_losses >> r.transport_injected_drops) ||
      tag != "counters") {
    return false;
  }
  std::size_t count = 0;
  if (!(in >> tag >> count) || tag != "relays") return false;
  r.relay_indices.resize(count);
  for (auto& i : r.relay_indices) {
    if (!(in >> i)) return false;
  }
  if (!(in >> tag >> count) || tag != "flows") return false;
  r.flows.resize(count);
  for (auto& f : r.flows) {
    int completed = 0;
    if (!(in >> f.bytes >> ns >> completed >> f.throughput_mbps)) {
      return false;
    }
    f.elapsed = sim::Duration::nanos(ns);
    f.completed = completed != 0;
  }
  if (!(in >> tag >> count) || tag != "nodes") return false;
  r.node_stats.resize(count);
  for (auto& n : r.node_stats) {
    std::int64_t t[6] = {};
    if (!(in >> n.data_frames_tx >> n.broadcast_subframes_tx >>
          n.unicast_subframes_tx >> n.data_bytes_tx >>
          n.mac_header_bytes_tx >> n.rts_tx >> n.cts_tx >> n.ack_tx >>
          n.retries >> n.retry_drops >> n.queue_drops >> n.delivered_up >>
          n.dropped_not_for_us >> n.crc_failures >> n.aggregate_discards >>
          n.duplicates_suppressed >> n.acks_rx >> n.collisions >> t[0] >>
          t[1] >> t[2] >> t[3] >> t[4] >> t[5])) {
      return false;
    }
    n.time.payload = sim::Duration::nanos(t[0]);
    n.time.mac_header = sim::Duration::nanos(t[1]);
    n.time.phy_header = sim::Duration::nanos(t[2]);
    n.time.control = sim::Duration::nanos(t[3]);
    n.time.ifs = sim::Duration::nanos(t[4]);
    n.time.backoff = sim::Duration::nanos(t[5]);
  }
  if (!(in >> tag) || tag != "end") return false;
  *out = std::move(r);
  return true;
}

std::vector<SweepPoint> expand_sweep(const SweepGrid& grid) {
  std::vector<SweepPoint> points;
  points.reserve(grid.scenarios.size() * grid.policies.size() *
                 grid.rate_adaptations.size() * grid.mediums.size() *
                 grid.transports.size());
  for (const auto& [scenario_label, spec] : grid.scenarios) {
    for (const auto& [policy_label, policy] : grid.policies) {
      for (const auto scheme : grid.rate_adaptations) {
        for (const auto& [medium_label, medium_policy] : grid.mediums) {
          for (const auto& [transport_label, tuning] : grid.transports) {
            SweepPoint point;
            point.scenario_label =
                scenario_label.empty() ? spec.label() : scenario_label;
            point.policy_label = policy_label;
            point.rate_adaptation = scheme;
            point.medium_label = medium_label;
            point.config = grid.base;
            point.config.scenario = spec;
            point.config.scenario.node.policy = policy;
            point.config.scenario.node.rate_adaptation = scheme;
            // A kAuto axis entry defers to the spec's own tuning (a spec
            // that pinned full mesh stays pinned under the default axis);
            // a concrete axis policy overrides.
            if (medium_policy != topo::MediumPolicy::kAuto) {
              point.config.scenario.medium.policy = medium_policy;
            }
            // Same deferral for the transport axis: nullopt keeps the
            // base config's tuning (and the historical "" label).
            if (tuning.has_value()) {
              point.config.tcp.tuning = *tuning;
              point.transport_label = transport_label.empty()
                                          ? transport::to_string(*tuning)
                                          : transport_label;
            } else {
              point.transport_label = transport_label;
            }
            points.push_back(std::move(point));
          }
        }
      }
    }
  }
  return points;
}

std::string SweepCache::key_of(const SweepPoint& point) {
  // The rate-adaptation scheme is already serialized inside the spec
  // fingerprint (expand_sweep resolves the axis into the spec). The
  // medium rides here as the *resolved* delivery policy, so a point
  // swept under kAuto and the same point swept under an explicit axis
  // entry that resolves identically share one cache slot (the node
  // count kAuto resolves through is already in the spec fingerprint).
  char tail[64];
  std::snprintf(
      tail, sizeof tail, "|%s|seed%llu",
      phy::to_string(point.config.scenario.medium_config().delivery),
      static_cast<unsigned long long>(point.config.seed));
  return point.scenario_label + '|' + point.policy_label + '|' +
         spec_fingerprint(point.config.scenario) + '|' +
         workload_fingerprint(point.config) + tail;
}

std::shared_ptr<const topo::ExperimentResult> SweepCache::find(
    const std::string& key) const {
  std::string dir;
  {
    const util::MutexLock lock(mutex_);
    const auto it = results_.find(key);
    if (it != results_.end()) {
      ++hits_;
      return it->second;
    }
    dir = disk_dir_;
  }
  // Memory miss: consult the disk directory, outside the lock so a slow
  // filesystem never serializes the sweep workers. The file's own key
  // line is the aliasing guard — a CRC collision reads as a miss.
  if (!dir.empty()) {
    std::ifstream in(disk_path_for(dir, key));
    if (in) {
      std::string stored_key;
      if (std::getline(in, stored_key) && stored_key == key) {
        std::ostringstream rest;
        rest << in.rdbuf();
        topo::ExperimentResult result;
        if (deserialize_result(rest.str(), &result)) {
          auto shared =
              std::make_shared<const topo::ExperimentResult>(std::move(result));
          const util::MutexLock lock(mutex_);
          ++disk_hits_;
          results_.insert_or_assign(key, shared);
          return shared;
        }
      }
    }
  }
  const util::MutexLock lock(mutex_);
  ++misses_;
  return nullptr;
}

void SweepCache::store(const std::string& key,
                       const topo::ExperimentResult& result) {
  // The deep copy happens outside the critical section; only the
  // pointer moves under the lock.
  auto copy = std::make_shared<const topo::ExperimentResult>(result);
  std::string dir;
  {
    const util::MutexLock lock(mutex_);
    results_.insert_or_assign(key, copy);
    dir = disk_dir_;
  }
  if (dir.empty()) return;
  // Write-through: tmp file + rename, so a crashed or concurrent writer
  // never leaves a half-written result where the loader can see it. The
  // write mutex keeps two workers storing one key from interleaving
  // bytes in the shared tmp file.
  const auto path = disk_path_for(dir, key);
  auto tmp = path;
  tmp += ".tmp";
  bool written = false;
  {
    const util::MutexLock wlock(disk_write_mutex_);
    std::ofstream out(tmp, std::ios::trunc);
    if (out) {
      out << key << '\n' << serialize_result(*copy);
      out.close();
      if (out) {
        std::error_code ec;
        std::filesystem::rename(tmp, path, ec);
        written = !ec;
      }
    }
  }
  if (written) {
    const util::MutexLock lock(mutex_);
    ++disk_stores_;
  }
}

void SweepCache::set_disk_dir(std::string dir) {
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "SweepCache: cannot create %s, disabling disk\n",
                   dir.c_str());
      dir.clear();
    }
  }
  const util::MutexLock lock(mutex_);
  disk_dir_ = std::move(dir);
}

void SweepCache::attach_env_disk_dir() {
  if (const char* dir = std::getenv("HYDRA_SWEEP_CACHE_DIR")) {
    if (dir[0] != '\0') set_disk_dir(dir);
  }
}

std::size_t SweepCache::size() const {
  const util::MutexLock lock(mutex_);
  return results_.size();
}

std::uint64_t SweepCache::hits() const {
  const util::MutexLock lock(mutex_);
  return hits_;
}

std::uint64_t SweepCache::disk_hits() const {
  const util::MutexLock lock(mutex_);
  return disk_hits_;
}

std::uint64_t SweepCache::disk_stores() const {
  const util::MutexLock lock(mutex_);
  return disk_stores_;
}

std::uint64_t SweepCache::misses() const {
  const util::MutexLock lock(mutex_);
  return misses_;
}

std::vector<SweepOutcome> sweep_experiments(const SweepGrid& grid,
                                            unsigned threads,
                                            SweepCache* cache) {
  auto points = expand_sweep(grid);
  std::vector<SweepOutcome> outcomes(points.size());
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min<unsigned>(threads, points.size() ? points.size() : 1u);

  // One point per pool task, stolen dynamically; each outcome slot is
  // written by exactly one worker, so the pool's batch barrier is the
  // only synchronization needed. A pool of concurrency 1 runs the batch
  // inline on this thread.
  util::TaskPool pool(threads);
  pool.parallel_for(points.size(), [&](std::size_t i) {
    // Host wall time for the scaling benches; never feeds simulation
    // state or the result fields the baselines gate.
    // hydra-lint: allow(wall-clock) — wall_seconds is bench reporting, not simulation state
    const auto started = std::chrono::steady_clock::now();
    SweepOutcome outcome;
    const std::string key =
        cache ? SweepCache::key_of(points[i]) : std::string{};
    if (cache) {
      if (const auto cached = cache->find(key)) {
        outcome.result = *cached;  // deep copy outside the cache lock
        outcome.from_cache = true;
      }
    }
    if (!outcome.from_cache) {
      outcome.result = run_experiment(points[i].config);
      if (cache) cache->store(key, outcome.result);
    }
    // hydra-lint: allow(wall-clock) — same measurement, read side
    const auto elapsed = std::chrono::steady_clock::now() - started;
    outcome.wall_seconds = std::chrono::duration<double>(elapsed).count();
    outcome.point = std::move(points[i]);
    outcomes[i] = std::move(outcome);
  });
  return outcomes;
}

}  // namespace hydra::app
