// Ablation: eviction policy on satellite caches under a regional Zipf
// workload with capacity pressure (DESIGN.md design-choice index).
#include <iostream>

#include "bench_util.hpp"
#include "cdn/cache.hpp"
#include "cdn/popularity.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace spacecdn;
  sim::RunnerOptions options;
  options.name = "ablation_cache_policy";
  options.title = "Ablation: cache eviction policy under Zipf workloads";
  options.paper_ref = "design-choice ablation (DESIGN.md)";
  options.default_seed = 11;
  sim::Runner runner(argc, argv, options);
  runner.banner();

  des::Rng rng = runner.rng();
  const cdn::ContentCatalog catalog({.object_count = 20000}, rng);
  const cdn::RegionalPopularity popularity(catalog.size(), {});
  const long requests = runner.get("requests", 60000L);
  const std::uint64_t workload_seed =
      static_cast<std::uint64_t>(runner.get("workload-seed", 12L));

  ConsoleTable table({"policy", "capacity (MB)", "zipf s", "hit rate", "evictions"});
  for (const double zipf_s : {0.7, 0.9, 1.1}) {
    cdn::PopularityConfig pcfg;
    pcfg.zipf_exponent = zipf_s;
    const cdn::RegionalPopularity pop(catalog.size(), pcfg);
    for (const double capacity : {2000.0, 8000.0}) {
      for (const auto policy :
           {cdn::CachePolicy::kLru, cdn::CachePolicy::kLfu, cdn::CachePolicy::kFifo}) {
        const auto cache = cdn::make_cache(policy, Megabytes{capacity});
        des::Rng wrng(workload_seed);
        for (long i = 0; i < requests; ++i) {
          const auto id = pop.sample(data::Region::kEurope, wrng);
          const Milliseconds now{static_cast<double>(i)};
          if (!cache->access(id, now)) (void)cache->insert(catalog.item(id), now);
        }
        runner.checksum().add(cache->stats().hit_rate());
        runner.checksum().add(static_cast<double>(cache->stats().evictions));
        table.add_row({std::string(cdn::to_string(policy)),
                       ConsoleTable::format_fixed(capacity, 0),
                       ConsoleTable::format_fixed(zipf_s, 1),
                       ConsoleTable::format_fixed(cache->stats().hit_rate() * 100.0, 1) +
                           "%",
                       std::to_string(cache->stats().evictions)});
      }
    }
  }
  table.render(std::cout);

  std::cout << "\nExpected shape: LFU wins under skewed, stable popularity; LRU "
               "close behind; FIFO worst.  Steeper Zipf or more capacity lifts "
               "all policies.\n";
  return runner.finish();
}
