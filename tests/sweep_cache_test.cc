// The sweep cache: figure-regeneration sweeps must be able to re-run a
// grid and get byte-identical results out of the cache without
// re-simulating, and the key must separate every axis that changes the
// outcome.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "app/sweep.h"
#include "util/crc32.h"

namespace hydra::app {
namespace {

SweepGrid small_grid() {
  SweepGrid grid;
  grid.scenarios = {{"", topo::ScenarioSpec::two_hop()},
                    {"", topo::ScenarioSpec::grid(2, 2)}};
  grid.policies = {{"na", core::AggregationPolicy::na()},
                   {"ba", core::AggregationPolicy::ba()}};
  grid.base.traffic = topo::TrafficKind::kTcp;
  grid.base.tcp_file_bytes = 20'000;
  return grid;
}

void expect_equal_results(const topo::ExperimentResult& a,
                          const topo::ExperimentResult& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows[f].completed, b.flows[f].completed);
    EXPECT_EQ(a.flows[f].bytes, b.flows[f].bytes);
    EXPECT_EQ(a.flows[f].elapsed.ns(), b.flows[f].elapsed.ns());
    EXPECT_DOUBLE_EQ(a.flows[f].throughput_mbps, b.flows[f].throughput_mbps);
  }
  EXPECT_EQ(a.phy_transmissions, b.phy_transmissions);
  EXPECT_EQ(a.phy_deliveries, b.phy_deliveries);
  ASSERT_EQ(a.node_stats.size(), b.node_stats.size());
  for (std::size_t n = 0; n < a.node_stats.size(); ++n) {
    EXPECT_EQ(a.node_stats[n].data_frames_tx, b.node_stats[n].data_frames_tx);
    EXPECT_EQ(a.node_stats[n].data_bytes_tx, b.node_stats[n].data_bytes_tx);
  }
}

TEST(SweepCache, CacheHitEqualsRecompute) {
  const auto grid = small_grid();
  const auto reference = sweep_experiments(grid, 2);

  SweepCache cache;
  const auto first = sweep_experiments(grid, 2, &cache);
  ASSERT_EQ(first.size(), reference.size());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), first.size());
  for (const auto& outcome : first) EXPECT_FALSE(outcome.from_cache);

  const auto second = sweep_experiments(grid, 2, &cache);
  ASSERT_EQ(second.size(), reference.size());
  EXPECT_EQ(cache.hits(), second.size());
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_TRUE(second[i].from_cache);
    // A cached point is indistinguishable from a recomputed one.
    expect_equal_results(second[i].result, reference[i].result);
    expect_equal_results(second[i].result, first[i].result);
  }
}

TEST(SweepCache, KeySeparatesEveryAxisAndSeed) {
  auto grid = small_grid();
  grid.mediums = {{"full", topo::MediumPolicy::kFullMesh},
                  {"cull", topo::MediumPolicy::kCulled}};
  grid.rate_adaptations = {mac::RateAdaptationScheme::kNone,
                           mac::RateAdaptationScheme::kSnr};
  const auto points = expand_sweep(grid);
  ASSERT_EQ(points.size(), 2u * 2u * 2u * 2u);
  std::set<std::string> keys;
  for (const auto& point : points) keys.insert(SweepCache::key_of(point));
  EXPECT_EQ(keys.size(), points.size());

  // The seed rides in the key too: one topology, many workload seeds.
  auto a = points.front();
  auto b = a;
  b.config.seed = a.config.seed + 1;
  EXPECT_NE(SweepCache::key_of(a), SweepCache::key_of(b));
}

TEST(SweepCache, KeyFingerprintsSpecFieldsTheLabelOmits) {
  // Two grid entries can share a label ("grid-10x10") while describing
  // different worlds; the key must not alias them or the cache would
  // serve one point's result for the other.
  SweepGrid grid;
  auto near = topo::ScenarioSpec::grid(10, 10);
  auto far = topo::ScenarioSpec::grid(10, 10);
  far.spacing_m = 10.0;
  grid.scenarios = {{"", near}, {"", far}};
  const auto points = expand_sweep(grid);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].scenario_label, points[1].scenario_label);
  EXPECT_NE(SweepCache::key_of(points[0]), SweepCache::key_of(points[1]));

  // Same for session lists and pinned placements.
  auto resessioned = near;
  resessioned.sessions = {{0, 5}};
  auto sp = points[0];
  sp.config.scenario = resessioned;
  EXPECT_NE(SweepCache::key_of(points[0]), SweepCache::key_of(sp));
}

TEST(SweepCache, KeyFingerprintsTheWorkloadBaseConfig) {
  // Two sweeps sharing one cache may differ only in the workload base;
  // the key covers it, so they must not serve each other's results.
  SweepGrid grid = small_grid();
  const auto points = expand_sweep(grid);
  auto a = points.front();
  auto b = a;
  b.config.tcp_file_bytes = 200'000;
  EXPECT_NE(SweepCache::key_of(a), SweepCache::key_of(b));
  auto c = a;
  c.config.traffic = topo::TrafficKind::kUdp;
  EXPECT_NE(SweepCache::key_of(a), SweepCache::key_of(c));
}

TEST(SweepCache, KeyDedupesAutoAgainstItsResolvedPolicy) {
  // kAuto resolves by node count; a point swept under the default axis
  // and the same point swept under an explicit entry that resolves to
  // the same delivery policy describe one simulation and must share a
  // cache slot.
  SweepGrid grid;
  grid.scenarios = {{"", topo::ScenarioSpec::two_hop()}};  // auto -> full
  auto auto_point = expand_sweep(grid).front();
  grid.mediums = {{"full", topo::MediumPolicy::kFullMesh}};
  auto pinned_point = expand_sweep(grid).front();
  EXPECT_EQ(SweepCache::key_of(auto_point), SweepCache::key_of(pinned_point));
}

TEST(SweepCache, KeyFingerprintsPolicyKnobsBehindEqualLabels) {
  // Two axis entries may reuse a label while tuning different policy
  // knobs; the key runs over the resolved spec, so they must not alias.
  auto short_delay = core::AggregationPolicy::dba();
  auto long_delay = core::AggregationPolicy::dba();
  short_delay.delay_min_subframes = 2;
  long_delay.delay_min_subframes = 8;
  SweepGrid grid;
  grid.scenarios = {{"", topo::ScenarioSpec::two_hop()}};
  grid.policies = {{"dba", short_delay}, {"dba", long_delay}};
  const auto points = expand_sweep(grid);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].policy_label, points[1].policy_label);
  EXPECT_NE(SweepCache::key_of(points[0]), SweepCache::key_of(points[1]));
}

// A result with every serialized field set to a distinct value, so a
// field the round-trip drops or misorders cannot go unnoticed.
topo::ExperimentResult full_result() {
  topo::ExperimentResult r;
  r.sim_time = sim::Duration::nanos(123456789);
  topo::FlowResult f;
  f.throughput_mbps = 1.2345678901234567;
  f.bytes = 200'000;
  f.elapsed = sim::Duration::nanos(987654321);
  f.completed = true;
  r.flows = {f, topo::FlowResult{}};
  mac::MacStats n;
  n.data_frames_tx = 1;
  n.broadcast_subframes_tx = 2;
  n.unicast_subframes_tx = 3;
  n.data_bytes_tx = 4;
  n.mac_header_bytes_tx = 5;
  n.rts_tx = 6;
  n.cts_tx = 7;
  n.ack_tx = 8;
  n.retries = 9;
  n.retry_drops = 10;
  n.queue_drops = 11;
  n.delivered_up = 12;
  n.dropped_not_for_us = 13;
  n.crc_failures = 14;
  n.aggregate_discards = 15;
  n.duplicates_suppressed = 16;
  n.acks_rx = 17;
  n.collisions = 18;
  n.time.payload = sim::Duration::nanos(19);
  n.time.mac_header = sim::Duration::nanos(20);
  n.time.phy_header = sim::Duration::nanos(21);
  n.time.control = sim::Duration::nanos(22);
  n.time.ifs = sim::Duration::nanos(23);
  n.time.backoff = sim::Duration::nanos(24);
  r.node_stats = {n, mac::MacStats{}};
  r.relay_indices = {1, 3, 5};
  r.phy_transmissions = 100;
  r.phy_deliveries = 101;
  r.phy_rebuilds = 103;
  r.phy_incremental_attaches = 104;
  r.phy_detaches = 105;
  r.phy_moves = 106;
  r.phy_incremental_detaches = 107;
  r.phy_incremental_moves = 108;
  r.sched_executed_events = 109;
  r.heap_allocations = 112;
  r.heap_bytes_allocated = 113;
  r.peak_rss_kb = 116;
  return r;
}

std::string fresh_disk_dir(const char* name) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "hydra_sweep" / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(SweepCacheDisk, ResultRoundTripsThroughText) {
  const auto original = full_result();
  topo::ExperimentResult restored;
  ASSERT_TRUE(deserialize_result(serialize_result(original), &restored));
  expect_equal_results(original, restored);
  EXPECT_EQ(original.relay_indices, restored.relay_indices);
  EXPECT_EQ(original.sim_time.ns(), restored.sim_time.ns());
  EXPECT_EQ(original.phy_rebuilds, restored.phy_rebuilds);
  EXPECT_EQ(original.phy_incremental_attaches,
            restored.phy_incremental_attaches);
  EXPECT_EQ(original.phy_detaches, restored.phy_detaches);
  EXPECT_EQ(original.phy_moves, restored.phy_moves);
  EXPECT_EQ(original.phy_incremental_detaches,
            restored.phy_incremental_detaches);
  EXPECT_EQ(original.phy_incremental_moves, restored.phy_incremental_moves);
  EXPECT_EQ(original.sched_executed_events, restored.sched_executed_events);
  EXPECT_EQ(original.heap_allocations, restored.heap_allocations);
  EXPECT_EQ(original.heap_bytes_allocated, restored.heap_bytes_allocated);
  EXPECT_EQ(original.peak_rss_kb, restored.peak_rss_kb);
  const auto& n = original.node_stats[0];
  const auto& m = restored.node_stats[0];
  EXPECT_EQ(n.broadcast_subframes_tx, m.broadcast_subframes_tx);
  EXPECT_EQ(n.mac_header_bytes_tx, m.mac_header_bytes_tx);
  EXPECT_EQ(n.duplicates_suppressed, m.duplicates_suppressed);
  EXPECT_EQ(n.time.payload.ns(), m.time.payload.ns());
  EXPECT_EQ(n.time.backoff.ns(), m.time.backoff.ns());

  EXPECT_FALSE(deserialize_result("", &restored));
  EXPECT_FALSE(deserialize_result("hydra-sweep-result 2\n", &restored));
  // A complete v3 file is a miss, not a misread: v3 carried three more
  // counters (delivery shards after deliveries, pool requests and pool
  // recycles after heap bytes).
  auto v3 = serialize_result(original);
  v3.replace(v3.find(" 4\n"), 3, " 3\n");
  v3.replace(v3.find("counters 100 101 "), 17, "counters 100 101 102 ");
  v3.replace(v3.find(" 113 "), 5, " 113 114 115 ");
  EXPECT_FALSE(deserialize_result(v3, &restored));
}

TEST(SweepCacheDisk, PersistsAcrossCacheInstances) {
  const auto dir = fresh_disk_dir("persist");
  const auto result = full_result();
  const std::string key = "persist|test|key";
  {
    SweepCache writer;
    writer.set_disk_dir(dir);
    writer.store(key, result);
    EXPECT_EQ(writer.disk_stores(), 1u);
  }
  // A fresh cache (a rerun of the figure driver) serves the point from
  // disk without simulating, then from memory on the second lookup.
  SweepCache reader;
  reader.set_disk_dir(dir);
  const auto loaded = reader.find(key);
  ASSERT_NE(loaded, nullptr);
  expect_equal_results(result, *loaded);
  EXPECT_EQ(reader.disk_hits(), 1u);
  EXPECT_EQ(reader.hits(), 0u);
  EXPECT_EQ(reader.misses(), 0u);
  ASSERT_NE(reader.find(key), nullptr);
  EXPECT_EQ(reader.hits(), 1u);
  EXPECT_EQ(reader.disk_hits(), 1u);
}

TEST(SweepCacheDisk, MismatchedKeyInFileReadsAsMiss) {
  // The loader trusts the key line inside the file, not the CRC-named
  // path: a colliding fingerprint (forged here by writing another key's
  // payload at this key's path) degrades to a miss, never an alias.
  const auto dir = fresh_disk_dir("collision");
  const std::string key = "the|real|key";
  {
    SweepCache writer;
    writer.set_disk_dir(dir);
    writer.store("some|other|key", full_result());
  }
  const auto fp = crc32(
      {reinterpret_cast<const std::uint8_t*>(key.data()), key.size()});
  char name[32];
  std::snprintf(name, sizeof name, "%08x.sweep", fp);
  {
    std::ofstream forged(std::filesystem::path(dir) / name);
    forged << "some|other|key\n" << serialize_result(full_result());
  }
  SweepCache reader;
  reader.set_disk_dir(dir);
  EXPECT_EQ(reader.find(key), nullptr);
  EXPECT_EQ(reader.disk_hits(), 0u);
  EXPECT_EQ(reader.misses(), 1u);
}

TEST(SweepCacheDisk, CorruptFileReadsAsMiss) {
  const auto dir = fresh_disk_dir("corrupt");
  const std::string key = "corrupt|key";
  {
    SweepCache writer;
    writer.set_disk_dir(dir);
    writer.store(key, full_result());
  }
  // Truncate the stored file mid-payload: the loader must reject it.
  const auto fp = crc32(
      {reinterpret_cast<const std::uint8_t*>(key.data()), key.size()});
  char name[32];
  std::snprintf(name, sizeof name, "%08x.sweep", fp);
  const auto path = std::filesystem::path(dir) / name;
  std::string contents;
  {
    std::ifstream in(path);
    std::getline(in, contents, '\0');
  }
  {
    std::ofstream out(path, std::ios::trunc);
    out << contents.substr(0, contents.size() / 2);
  }
  SweepCache reader;
  reader.set_disk_dir(dir);
  EXPECT_EQ(reader.find(key), nullptr);
  EXPECT_EQ(reader.misses(), 1u);
}

TEST(SweepCacheDisk, SweepWritesThroughAndRereadsFromDisk) {
  const auto dir = fresh_disk_dir("sweep");
  const auto grid = small_grid();
  SweepCache first;
  first.set_disk_dir(dir);
  const auto cold = sweep_experiments(grid, 2, &first);
  EXPECT_EQ(first.disk_stores(), cold.size());
  EXPECT_EQ(first.misses(), cold.size());

  SweepCache second;
  second.set_disk_dir(dir);
  const auto warm = sweep_experiments(grid, 2, &second);
  ASSERT_EQ(warm.size(), cold.size());
  EXPECT_EQ(second.disk_hits(), warm.size());
  EXPECT_EQ(second.misses(), 0u);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(warm[i].from_cache);
    expect_equal_results(cold[i].result, warm[i].result);
  }
}

TEST(SweepCache, MediumAxisExpandsAndLabels) {
  SweepGrid grid;
  grid.scenarios = {{"", topo::ScenarioSpec::two_hop()}};
  grid.mediums = {{"full", topo::MediumPolicy::kFullMesh},
                  {"cull", topo::MediumPolicy::kCulled}};
  const auto points = expand_sweep(grid);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].medium_label, "full");
  EXPECT_EQ(points[0].config.scenario.medium.policy,
            topo::MediumPolicy::kFullMesh);
  EXPECT_EQ(points[1].medium_label, "cull");
  EXPECT_EQ(points[1].config.scenario.medium.policy,
            topo::MediumPolicy::kCulled);
}

}  // namespace
}  // namespace hydra::app
