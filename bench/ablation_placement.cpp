// Ablation: replica count vs ISL hop distance, validating the paper's
// section-4 feasibility argument -- "with around 4 copies distributed within
// each plane, an object can be reachable within 5 hops" -- and the section-5
// storage arithmetic (150 TB/satellite -> >900 PB fleet-wide).
#include <iostream>

#include "bench_util.hpp"
#include "des/random.hpp"
#include "sim/runner.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/placement.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "ablation_placement";
  options.title = "Ablation: copies-per-plane vs hops to nearest replica";
  options.paper_ref = "Bose et al., HotNets '24, section 4 feasibility claim";
  options.default_seed = 42;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  const orbit::WalkerConstellation& shell = runner.world().constellation();
  des::Rng rng = runner.rng();

  ConsoleTable table({"copies/plane", "plane stride", "total replicas", "mean hops",
                      "p99 hops", "max hops"});
  for (const std::uint32_t stride : {1u, 2u, 4u}) {
    for (const std::uint32_t copies : {1u, 2u, 4u, 6u, 8u}) {
      space::PlacementConfig cfg;
      cfg.copies_per_plane = copies;
      cfg.plane_stride = stride;
      const space::ContentPlacement placement(shell, cfg);
      const auto stats = placement.analyze(4000, 1000, rng);
      const auto replicas = placement.replicas(0).size();
      runner.checksum().add(stats.mean_hops);
      runner.checksum().add(stats.p99_hops);
      table.add_row({std::to_string(copies), std::to_string(stride),
                     std::to_string(replicas),
                     ConsoleTable::format_fixed(stats.mean_hops, 2),
                     ConsoleTable::format_fixed(stats.p99_hops, 1),
                     std::to_string(stats.max_hops)});
    }
  }
  table.render(std::cout);
  std::cout << "determinism checksum: " << runner.checksum().hex() << "\n";

  std::cout << "\nPaper's claim check: 4 copies/plane, stride 1 keeps the max "
               "within 5 hops (even intra-plane alone: 22/(2*4) -> <=3).\n";

  std::cout << "\nStorage arithmetic (paper section 5):\n";
  const space::FleetConfig fleet_cfg;
  const double tb_per_sat = fleet_cfg.capacity_per_satellite.value() / 1e6;
  const double fleet_pb_6000 = 6000.0 * tb_per_sat / 1000.0;
  const double video_mb = 2.0 * 3600.0 * 5.0 / 8.0 * 8.0;  // ~2h 1080p @ ~8 Mbps
  const double videos = 6000.0 * fleet_cfg.capacity_per_satellite.value() / video_mb;
  std::cout << "  - per satellite: " << tb_per_sat << " TB (HPE DL325-class server)\n";
  std::cout << "  - 6,000-satellite fleet: " << fleet_pb_6000
            << " PB (paper: upwards of 900 PB)\n";
  std::cout << "  - ~" << static_cast<long>(videos / 1e6)
            << "M 2-hour 1080p videos (paper: >300M)\n";
  return runner.finish();
}
