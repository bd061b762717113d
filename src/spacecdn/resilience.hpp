// Self-healing SpaceCDN: applying fault events and repairing the damage.
//
// Two cooperating pieces sit on top of the faults/ schedule:
//
//  * ChurnController translates faults::FaultEvent into state transitions on
//    the live network and fleet -- ISL surgery on lsn::IslNetwork, gateway
//    masks on the ground segment, online/cache-process flags on the
//    SatelliteFleet -- and keeps per-satellite flags so that independent
//    fault processes (a laser flap during a whole-satellite outage) compose
//    correctly.
//
//  * RepairDaemon periodically audits a PlacementMap's invariant and
//    re-replicates under-replicated objects from surviving space holders (or
//    the ground origin as a last resort), restoring the redundancy a cache
//    crash destroyed.  It reports time-to-repair so churn experiments can
//    quantify how long the constellation runs degraded.  Each audit also
//    diffs the membership snapshot it last synced against the current one
//    and moves only the changed assignments -- the bytes-moved metric
//    bench/ablation_placement_map compares across policies.  Under the
//    membership-blind per-plane policy nothing ever moves, and the audit is
//    a plain refill of lost copies.
#pragma once

#include <cstdint>
#include <vector>

#include "des/simulator.hpp"
#include "des/stats.hpp"
#include "faults/schedule.hpp"
#include "lsn/starlink.hpp"
#include "spacecdn/fleet.hpp"
#include "spacecdn/placement_map.hpp"

namespace spacecdn::space {

/// Applies fault-schedule events to a StarlinkNetwork + SatelliteFleet pair.
class ChurnController {
 public:
  /// Per-class transition counters (for reporting).
  struct Counters {
    std::uint64_t satellite_failures = 0;
    std::uint64_t satellite_recoveries = 0;
    std::uint64_t isl_flaps = 0;
    std::uint64_t isl_flap_recoveries = 0;
    std::uint64_t gateway_failures = 0;
    std::uint64_t gateway_recoveries = 0;
    std::uint64_t cache_crashes = 0;
    std::uint64_t cache_restores = 0;
  };

  ChurnController(lsn::StarlinkNetwork& network, SatelliteFleet& fleet);

  /// Applies one event.  Satellite/ISL-terminal processes on the same
  /// satellite compose: the ISLs stay down until *both* the whole-satellite
  /// outage and any laser flap have recovered.
  /// @throws spacecdn::ConfigError on an out-of-range target.
  void apply(const faults::FaultEvent& event);

  /// Mirrors per-satellite cache liveness (online AND cache process up AND
  /// duty-enabled) into a placement membership map on every satellite or
  /// cache-node transition.  The map is synced in full on attach; pass
  /// nullptr to detach.
  void set_membership(MembershipMap* membership);

  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

  /// Satellites currently fully offline (power fault, not just a flap).
  [[nodiscard]] std::uint32_t satellites_down() const noexcept { return sats_down_; }

 private:
  void sync_isl(std::uint32_t sat);
  void sync_membership(std::uint32_t sat);

  lsn::StarlinkNetwork* network_;
  SatelliteFleet* fleet_;
  MembershipMap* membership_ = nullptr;
  std::vector<bool> sat_down_;
  std::vector<bool> isl_flapped_;
  std::uint32_t sats_down_ = 0;
  Counters counters_;
};

/// Repair-daemon policy.
struct RepairConfig {
  /// Audit cadence; the paper-scale default is one placement scan per
  /// five simulated minutes.
  Milliseconds scan_interval{300'000.0};
};

/// Result of one placement audit (and the running totals).
struct RepairReport {
  std::uint64_t objects_scanned = 0;
  std::uint64_t under_replicated = 0;  ///< missing (object, replica-slot) pairs
  std::uint64_t re_replicated = 0;     ///< restored from a surviving space holder
  std::uint64_t ground_refills = 0;    ///< restored from the ground origin
  std::uint64_t unrepairable = 0;      ///< slot offline; deferred to a later scan
  /// Copies re-positioned because a membership delta re-routed their
  /// assignment (subset of re_replicated + ground_refills).
  std::uint64_t moved = 0;
  /// Stale copies dropped from satellites an object no longer maps to
  /// (local deletes, no network cost).
  std::uint64_t evicted_stale = 0;
  /// Repair traffic injected into the constellation: megabytes of every
  /// copy (or erasure fragment) the daemon installed.
  double bytes_moved_mb = 0.0;

  RepairReport& operator+=(const RepairReport& other) noexcept;
};

/// Detects and repairs under-replication against a PlacementMap.
class RepairDaemon {
 public:
  /// Each scan moves only the (object, slot) assignments that changed since
  /// the membership snapshot it last synced -- plus crash-lost copies -- and
  /// evicts stale copies from satellites an object no longer maps to.  The
  /// map must outlive the daemon.
  /// @param catalog  the objects whose placement invariant the daemon
  /// guards; copied so the daemon owns its audit list.
  RepairDaemon(SatelliteFleet& fleet, const PlacementMap& map,
               std::vector<cdn::ContentItem> catalog, RepairConfig config = {});

  /// Records a cache crash (the churn controller calls this) so the next
  /// completed repair yields a time-to-repair sample.
  void note_crash(std::uint32_t sat, Milliseconds at);

  /// One audit pass: every missing replica on a live, duty-enabled slot is
  /// re-inserted from a surviving replica holder, or the ground origin when
  /// every space copy died.  Slots that are offline stay unrepaired until a
  /// later pass finds them back up.
  RepairReport run_once(Milliseconds now);

  /// Schedules run_once every scan_interval on `sim` until `horizon`.
  /// The daemon must outlive the simulation run.
  void install(des::Simulator& sim, Milliseconds horizon);

  [[nodiscard]] const RepairReport& totals() const noexcept { return totals_; }
  [[nodiscard]] std::uint64_t scans() const noexcept { return scans_; }
  /// Crash-to-fully-repaired durations (ms) of every closed crash.
  [[nodiscard]] const des::SampleSet& time_to_repair() const noexcept {
    return time_to_repair_;
  }
  [[nodiscard]] std::size_t open_crashes() const noexcept {
    return open_crashes_.size();
  }
  [[nodiscard]] const RepairConfig& config() const noexcept { return config_; }

  /// Total repair megabytes installed so far (totals().bytes_moved_mb).
  [[nodiscard]] Megabytes bytes_moved() const noexcept {
    return Megabytes{totals_.bytes_moved_mb};
  }

 private:
  /// Whether every object with `sat` in its replica set is present there.
  [[nodiscard]] bool fully_replicated_on(std::uint32_t sat) const;

  SatelliteFleet* fleet_;
  const PlacementMap* map_;
  std::vector<cdn::ContentItem> catalog_;
  RepairConfig config_;
  RepairReport totals_;
  std::uint64_t scans_ = 0;
  std::vector<std::pair<std::uint32_t, Milliseconds>> open_crashes_;
  des::SampleSet time_to_repair_;
  // Delta-repair state: the membership snapshot the fleet's cache contents
  // were last reconciled against.
  std::vector<bool> synced_live_;
  std::uint64_t synced_version_ = 0;
};

}  // namespace spacecdn::space
