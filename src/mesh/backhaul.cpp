#include "src/mesh/backhaul.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/deploy/layout.hpp"
#include "src/mac/event_queue.hpp"
#include "src/net/packet.hpp"
#include "src/obs/stats.hpp"

namespace mmtag::mesh {

namespace {

/// Headroom reserved per pool slot: the mesh header plus slack for any
/// lower layer a future hop might stack under it.
constexpr std::size_t kPoolHeadroom = 32;

}  // namespace

std::uint64_t fingerprint(const BackhaulReport& report) {
  obs::Fnv1a hasher;
  hasher.mix_u64(deploy::fingerprint(report.fleet.stats));
  hasher.mix_u64(fault::fingerprint(report.fleet.fault));
  hasher.mix_u64(fingerprint(report.mesh));
  return hasher.digest();
}

sim::Table backhaul_table(const BackhaulReport& report) {
  const MeshStats& m = report.mesh;
  sim::Table table({"readers", "gw", "links", "frames", "delivered",
                    "delivery", "reroutes", "stretch", "p99_ms", "util_max",
                    "rounds"});
  table.add_row({std::to_string(report.readers),
                 std::to_string(report.gateways),
                 std::to_string(report.mesh_links),
                 std::to_string(m.offered + m.dropped_pool),
                 std::to_string(m.delivered),
                 sim::Table::fmt(m.delivery_ratio(), 4),
                 std::to_string(m.reroutes),
                 sim::Table::fmt(m.stretch_mean, 3),
                 sim::Table::fmt(m.latency_p99_s * 1e3, 3),
                 sim::Table::fmt(m.link_util_max, 4),
                 std::to_string(m.convergence_rounds)});
  return table;
}

BackhaulSimulator::BackhaulSimulator(BackhaulConfig config)
    : config_(std::move(config)) {
  if (config_.payload_bytes < 8) {
    throw std::invalid_argument("BackhaulSimulator: payload_bytes < 8");
  }
  if (config_.pool_packets < 1) {
    throw std::invalid_argument("BackhaulSimulator: pool_packets < 1");
  }
  if (config_.max_frames_per_cell_epoch < 1) {
    throw std::invalid_argument(
        "BackhaulSimulator: max_frames_per_cell_epoch < 1");
  }
}

BackhaulReport BackhaulSimulator::run() {
  // The layout is deterministic in its config, so building it again here
  // yields exactly the reader poses the fleet will use.
  const deploy::FleetLayout layout =
      deploy::make_layout(config_.fleet.layout);
  const MeshTopology topology(layout.reader_poses, config_.topology);
  net::PacketPool pool(config_.pool_packets, config_.payload_bytes,
                       kPoolHeadroom);
  MeshNetwork network(&topology, config_.forwarding, &pool);

  const double epoch_s = config_.fleet.epoch_duration_s;
  const double frame_bits = static_cast<double>(config_.payload_bytes) * 8.0;

  deploy::FleetConfig fleet_config = config_.fleet;
  fleet_config.backhaul_reachable =
      [&topology](int /*epoch*/, const std::vector<std::uint8_t>& live) {
        return topology.gateway_reachable(live);
      };
  fleet_config.epoch_observer =
      [&](int epoch, const std::vector<deploy::CellEpochResult>& cells,
          const std::vector<std::uint8_t>& live) {
        network.begin_epoch(live);
        mac::EventQueue queue;
        const double start_s = epoch * epoch_s;
        // Drain cells in cell order (deterministic), frames staggered
        // across the epoch so link FIFOs see a realistic arrival pattern.
        for (std::size_t c = 0; c < cells.size(); ++c) {
          if (!live.empty() && live[c] == 0) continue;  // Dark reader.
          double bits = 0.0;
          for (const deploy::TagService& service : cells[c].service) {
            bits += service.delivered_bits;
          }
          if (bits <= 0.0 && cells[c].tags_discovered == 0) continue;
          const int frames = std::clamp(
              static_cast<int>(std::ceil(bits / frame_bits)), 1,
              config_.max_frames_per_cell_epoch);
          const double spacing =
              epoch_s / static_cast<double>(frames + 1);
          for (int i = 0; i < frames; ++i) {
            network.send(queue, static_cast<int>(c), config_.payload_bytes,
                         start_s + static_cast<double>(i + 1) * spacing);
          }
        }
        queue.run();
        network.reconverge();
      };

  BackhaulReport report;
  report.fleet = deploy::FleetSimulator(fleet_config).run();
  report.horizon_s =
      static_cast<double>(config_.fleet.epochs) * epoch_s;
  report.mesh = network.finish(report.horizon_s);
  report.readers = static_cast<int>(topology.nodes());
  report.gateways = static_cast<int>(topology.gateways().size());
  report.mesh_links = static_cast<int>(topology.links().size());
  return report;
}

}  // namespace mmtag::mesh
