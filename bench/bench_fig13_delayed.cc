// Figure 13: delayed broadcast aggregation (DBA): relay nodes hold
// transmission until 3 subframes are queued.
//
// Paper: BA and DBA perform similarly at low rates; DBA pulls slightly
// ahead at high rates (max gap 2% at 2 hops, 4% at 3 hops).
#include "bench_common.h"

#include "app/sweep.h"

using namespace hydra;

int main() {
  bench::print_header("Figure 13", "BA vs delayed BA (3-frame hold)",
                      "Delay applies to relay nodes only (paper §6.4.3).");

  stats::Table table({"Rate (Mbps)", "2hop BA", "2hop DBA", "2hop gap",
                      "3hop BA", "3hop DBA", "3hop gap"});
  for (const auto mode_idx : bench::kPaperModeIndices) {
    std::vector<std::string> row = {bench::rate_label(mode_idx)};
    for (const auto& topology :
         {topo::ScenarioSpec::two_hop(), topo::ScenarioSpec::three_hop()}) {
      const double t_ba = bench::avg_throughput(
          bench::tcp_config(topology, core::AggregationPolicy::ba(),
                            mode_idx));
      const double t_dba = bench::avg_throughput(
          bench::tcp_config(topology, core::AggregationPolicy::dba(3),
                            mode_idx));
      row.push_back(stats::Table::num(t_ba, 3));
      row.push_back(stats::Table::num(t_dba, 3));
      row.push_back(stats::Table::percent((t_dba - t_ba) / t_ba));
    }
    table.add_row(std::move(row));
  }
  bench::emit(table);
  bench::comment("\nPaper: similar at low rates; DBA ahead by <=2%% (2-hop) "
              "and <=4%% (3-hop) at high rates.");

  // Ablation (transport axis of the sweep grid): the full congestion
  // scheme × ACK policy product on the 2-hop BA world at the top paper
  // rate, lossless vs 5% relay channel loss. Each column cell averages
  // 3 seeded sweeps, each point one simulation on a sweep worker.
  std::vector<transport::TransportTuning> tunings;
  for (const auto cc : {transport::CcScheme::kNewReno,
                        transport::CcScheme::kCerl}) {
    for (const auto ack :
         {transport::AckScheme::kImmediate, transport::AckScheme::kDelayed,
          transport::AckScheme::kAdaptive}) {
      tunings.push_back({.cc = cc, .ack = ack});
    }
  }

  constexpr std::size_t kAblationMode = 3;  // 2.6 Mbps
  constexpr int kRuns = 3;
  const auto sweep_grid = [&](const std::vector<topo::LossRule>& losses) {
    std::vector<double> mbps(tunings.size(), 0.0);
    for (int seed = 1; seed <= kRuns; ++seed) {
      app::SweepGrid grid;
      // The rate rides on the scenario-axis spec: the sweep overwrites
      // base.scenario with it, so modes set on the base would be lost.
      auto spec = topo::ScenarioSpec::two_hop();
      spec.node.unicast_mode = proto::mode_by_index(kAblationMode);
      spec.node.broadcast_mode = proto::mode_by_index(kAblationMode);
      grid.scenarios = {{"2hop", spec}};
      grid.base = bench::tcp_config(spec, core::AggregationPolicy::ba(),
                                    kAblationMode);
      grid.base.seed = static_cast<std::uint64_t>(seed);
      grid.base.losses = losses;
      grid.transports.clear();
      for (const auto& tuning : tunings) {
        grid.transports.push_back({"", tuning});
      }
      const auto outcomes = app::sweep_experiments(grid);
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        mbps[i] += outcomes[i].result.flows[0].throughput_mbps / kRuns;
      }
    }
    return mbps;
  };

  const auto lossless = sweep_grid({});
  const auto lossy = sweep_grid(
      {{.node_index = 1, .next_hop_index = -1, .period = 20, .offset = 10}});

  stats::Table ablation({"cc + ack policy", "lossless", "5% chan loss",
                         "loss cost"});
  for (std::size_t i = 0; i < tunings.size(); ++i) {
    ablation.add_row({transport::to_string(tunings[i]),
                      stats::Table::num(lossless[i], 3),
                      stats::Table::num(lossy[i], 3),
                      stats::Table::percent((lossy[i] - lossless[i]) /
                                            lossless[i])});
  }
  bench::emit(ablation);
  bench::comment("\nAblation shape: delayed/adaptive ACKs trim reverse-channel "
              "airtime; CERL columns absorb the injected loss with the "
              "smallest cost (no multiplicative backoff on channel drops).");
  return 0;
}
