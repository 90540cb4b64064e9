// Metro backhaul: FleetSimulator inventory drained through the mesh.
//
// This is the tentpole's integration layer, the piece ROADMAP item 2 says
// sharded million-tag cells are pointless without: every epoch, each
// ReaderCell's freshly merged inventory (delivered bits, discovered tags)
// is framed into net::Packet buffers and forwarded hop by hop to a
// gateway reader — on the same coordinating thread, right after the
// fleet's deterministic merge, so aggregates stay bit-identical at any
// thread count. The same fault epochs that take readers off the air take
// them out of the mesh: a reader outage starts a topology epoch, in-flight
// traffic shifts to precomputed K-alternates, the link-state flood
// reconverges at the epoch boundary, and orphan re-handoff consults mesh
// reachability so no tag is parked on a live-but-partitioned reader.
//
// Composition is by the two FleetConfig hooks (epoch_observer,
// backhaul_reachable) rather than a deploy->mesh dependency, keeping the
// layering acyclic: deploy knows nothing about routing, mesh composes it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/deploy/fleet.hpp"
#include "src/mesh/forwarding.hpp"
#include "src/mesh/topology.hpp"
#include "src/sim/table.hpp"

namespace mmtag::mesh {

struct BackhaulConfig {
  /// The radio-side fleet run. The simulator installs its own
  /// epoch_observer and backhaul_reachable hooks; anything already set
  /// there is overwritten.
  deploy::FleetConfig fleet;
  TopologyConfig topology;
  ForwardingConfig forwarding;
  /// Payload bytes per mesh frame (one frame carries this much inventory).
  std::size_t payload_bytes = 256;
  /// Slots in the shared forwarding pool. Undersize it and gateway fan-in
  /// exhausts the pool: frames drop gracefully and are counted
  /// (mesh.dropped.pool / net.pool.exhausted), never silently diverge.
  std::size_t pool_packets = 256;
  /// Frames one cell may offer per epoch (bounds event count per epoch;
  /// the cap is a drop-nothing clamp — inventory bits above it still count
  /// as offered load in the last frame).
  int max_frames_per_cell_epoch = 32;
};

struct BackhaulReport {
  deploy::FleetResult fleet;
  MeshStats mesh;
  /// Wall time the mesh ran over (fleet epochs * epoch duration) [s].
  double horizon_s = 0.0;
  int readers = 0;
  int gateways = 0;
  int mesh_links = 0;  ///< Directed links in the static topology.
};

/// Combined digest: fleet stats, fault report and mesh stats fingerprints
/// chained — the single value bench_m1_mesh compares across thread counts.
[[nodiscard]] std::uint64_t fingerprint(const BackhaulReport& report);

/// One-row summary (frames, delivery ratio, reroutes, stretch, latency,
/// link utilization, convergence) for benches and examples.
[[nodiscard]] sim::Table backhaul_table(const BackhaulReport& report);

class BackhaulSimulator {
 public:
  /// Throws std::invalid_argument (in every build type) when
  /// payload_bytes < 8, pool_packets < 1 or max_frames_per_cell_epoch < 1.
  explicit BackhaulSimulator(BackhaulConfig config);

  /// Run the fleet with the mesh attached. Deterministic in the config
  /// seeds; independent of fleet.threads (the mesh runs serially at the
  /// epoch barrier).
  [[nodiscard]] BackhaulReport run();

  [[nodiscard]] const BackhaulConfig& config() const { return config_; }

 private:
  BackhaulConfig config_;
};

}  // namespace mmtag::mesh
