#include "src/net/sr_arq.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "src/obs/metrics.hpp"

namespace mmtag::net {

namespace {

/// Packets dropped with their retry budget spent — distinct from
/// in-flight loss, which stays in the window and retries.
obs::Counter& arq_exhausted_sr_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("net.arq.exhausted.sr");
  return counter;
}

}  // namespace

double SrArqResult::goodput_bps(std::size_t payload_bits) const {
  if (elapsed_s <= 0.0) return 0.0;
  return static_cast<double>(packets_delivered) *
         static_cast<double>(payload_bits) / elapsed_s;
}

SrArqSession::SrArqSession(SrArqConfig config, SrArqTiming timing)
    : config_(config), timing_(timing) {
  assert(config_.window >= 1 && config_.window <= 64);
  assert(config_.max_attempts_per_packet > 0);
  assert(config_.ack_loss_probability >= 0.0 &&
         config_.ack_loss_probability <= 1.0);
  assert(timing_.packet_time_s >= 0.0 && timing_.ack_time_s >= 0.0 &&
         timing_.ack_timeout_s >= 0.0);
}

namespace {

/// Transfer state threaded through the event chain: every scheduled event
/// holds the shared_ptr, so the state lives until the last event fires.
struct SrState {
  SrArqConfig config;
  SrArqTiming timing;
  int total = 0;
  ChannelFn channel;
  AdaptFn adapt;
  std::mt19937_64* rng = nullptr;
  PacketPool* pool = nullptr;
  std::function<void(const SrArqResult&)> done;
  mac::EventQueue* queue = nullptr;
  double start_time_s = 0.0;

  SrArqResult result;
  int base = 0;  ///< Lowest sequence the sender still cares about.
  std::vector<std::uint8_t> acked;      ///< Sender: block-ACK confirmed.
  std::vector<std::uint8_t> dropped;    ///< Sender: retry budget burned.
  std::vector<std::uint8_t> received;   ///< Receiver: payload present.
  std::vector<int> attempts;
  std::vector<double> receive_time_s;   ///< Receiver-side delivery instant.
  std::vector<Packet> in_flight;        ///< Pool slot per sequence.
  std::uniform_real_distribution<double> coin{0.0, 1.0};

  [[nodiscard]] bool sender_closed(int seq) const {
    return acked[static_cast<std::size_t>(seq)] != 0 ||
           dropped[static_cast<std::size_t>(seq)] != 0;
  }
};

void round_step(const std::shared_ptr<SrState>& self);

void finish(const std::shared_ptr<SrState>& self) {
  SrState& s = *self;
  s.result.elapsed_s = s.queue->now() - s.start_time_s;
  // Latencies in ascending sequence order — a fixed, thread-independent
  // ordering no matter how retransmissions interleaved.
  s.result.delivery_latency_s.reserve(
      static_cast<std::size_t>(s.result.packets_delivered));
  for (int seq = 0; seq < s.total; ++seq) {
    if (s.received[static_cast<std::size_t>(seq)] != 0) {
      s.result.delivery_latency_s.push_back(
          s.receive_time_s[static_cast<std::size_t>(seq)] - s.start_time_s);
    }
  }
  if (s.done) s.done(s.result);
}

/// Advance base past sequences the sender is finished with and drop the
/// ones whose retry budget is gone.
void reap_window(SrState& s) {
  const int window_end =
      std::min(s.total, s.base + s.config.window);
  for (int seq = s.base; seq < window_end; ++seq) {
    const auto u = static_cast<std::size_t>(seq);
    if (s.acked[u] == 0 && s.dropped[u] == 0 &&
        s.attempts[u] >= s.config.max_attempts_per_packet) {
      s.dropped[u] = 1;
      ++s.result.packets_dropped;
      arq_exhausted_sr_metric().add(1);
      s.in_flight[u].release();  // Slot back to the pool.
    }
  }
  while (s.base < s.total && s.sender_closed(s.base)) ++s.base;
}

/// One burst + block-ACK cycle. Draw order per round: one channel coin
/// per transmitted packet in ascending sequence order, then one ACK-loss
/// coin — fixed, so seeded runs are bit-reproducible.
void round_step(const std::shared_ptr<SrState>& self) {
  SrState& s = *self;
  reap_window(s);
  if (s.base >= s.total) {
    finish(self);
    return;
  }

  // Collect this round's burst: every open sequence in the window, capped
  // by pool availability (backpressure — never an error).
  std::vector<int> burst;
  burst.reserve(static_cast<std::size_t>(s.config.window));
  const int window_end = std::min(s.total, s.base + s.config.window);
  bool stalled = false;
  for (int seq = s.base; seq < window_end; ++seq) {
    const auto u = static_cast<std::size_t>(seq);
    if (s.sender_closed(seq)) continue;
    if (s.pool != nullptr && !s.in_flight[u].valid()) {
      Packet pkt = s.pool->alloc();
      if (!pkt.valid()) {
        stalled = true;
        break;  // Window truncated at the pool's high-water mark.
      }
      // Zero-copy header path: payload first, header prepended into the
      // reserved headroom (the payload bytes never move).
      std::uint8_t* payload = pkt.append(s.config.payload_bytes);
      std::uint8_t* header = pkt.prepend(kSrHeaderBytes);
      assert(payload != nullptr && header != nullptr);
      (void)payload;
      const auto seq32 = static_cast<std::uint32_t>(seq);
      std::memcpy(header, &seq32, sizeof(seq32));
      const auto total32 = static_cast<std::uint32_t>(s.total);
      std::memcpy(header + sizeof(seq32), &total32, sizeof(total32));
      s.in_flight[u] = std::move(pkt);
    }
    burst.push_back(seq);
  }
  if (stalled) ++s.result.pool_stalls;
  if (burst.empty()) {
    // A shared pool drained by other sessions can stall even the base
    // packet; sit out one retry timer until a slot frees. (A session-
    // private pool always admits the base packet: capacity >= 1 and every
    // slot past base was released on close.)
    ++s.result.pool_waits;
    s.queue->schedule_in(s.timing.ack_timeout_s,
                         [self] { round_step(self); });
    return;
  }

  ++s.result.rounds;
  const double round_start_s = s.queue->now();
  int k = 0;
  for (const int seq : burst) {
    const auto u = static_cast<std::size_t>(seq);
    ++s.attempts[u];
    ++s.result.transmissions;
    // The packet finishes its slot (k+1) packet-times into the burst.
    const double arrival_s =
        round_start_s + (k + 1) * s.timing.packet_time_s;
    const double p = s.channel(arrival_s);
    if (s.coin(*s.rng) < p) {
      if (s.received[u] != 0) {
        // Replay of a packet the receiver already has (lost block-ACK):
        // discarded on arrival, delivered exactly once.
        ++s.result.duplicate_receives;
      } else {
        s.received[u] = 1;
        ++s.result.packets_delivered;
        s.receive_time_s[u] = arrival_s;
      }
    }
    ++k;
  }

  const double burst_s =
      static_cast<double>(burst.size()) * s.timing.packet_time_s;
  const int round_base = s.base;
  const int round_transmitted = static_cast<int>(burst.size());
  s.queue->schedule_in(burst_s, [self, round_base, round_transmitted] {
    SrState& st = *self;
    if (st.coin(*st.rng) < st.config.ack_loss_probability) {
      // Lost block-ACK: the sender waits out its timer and replays the
      // whole outstanding window next round. No adapter feedback either —
      // the sender learned nothing about delivery this round.
      ++st.result.acks_lost;
      st.queue->schedule_in(st.timing.ack_timeout_s,
                            [self] { round_step(self); });
      return;
    }
    ++st.result.acks_received;
    // Block-ACK keyed to the burst's base: cumulative semantics fall out
    // of base advancing past closed sequences; the bitmap reports every
    // received sequence in [round_base, round_base + window).
    int newly_acked = 0;
    const int ack_end = std::min(st.total, round_base + st.config.window);
    for (int seq = round_base; seq < ack_end; ++seq) {
      const auto u = static_cast<std::size_t>(seq);
      if (st.received[u] != 0 && st.acked[u] == 0) {
        st.acked[u] = 1;
        ++newly_acked;
        st.in_flight[u].release();  // Delivered: slot back to the pool.
      }
    }
    if (st.adapt) {
      SrRoundFeedback feedback;
      feedback.round_transmitted = round_transmitted;
      feedback.round_delivered = newly_acked;
      st.timing = st.adapt(feedback);
    }
    st.queue->schedule_in(st.timing.ack_time_s,
                          [self] { round_step(self); });
  });
}

}  // namespace

void SrArqSession::start(mac::EventQueue& queue, int packet_count,
                         ChannelFn channel, std::mt19937_64& rng,
                         PacketPool* pool,
                         std::function<void(const SrArqResult&)> done,
                         AdaptFn adapt) {
  if (packet_count < 0) {
    throw std::invalid_argument("SrArqSession: packet_count must be >= 0");
  }
  assert(channel != nullptr);
  auto state = std::make_shared<SrState>();
  state->config = config_;
  state->timing = timing_;
  state->total = packet_count;
  state->channel = std::move(channel);
  state->adapt = std::move(adapt);
  state->rng = &rng;
  state->pool = pool;
  state->done = std::move(done);
  state->queue = &queue;
  state->start_time_s = queue.now();
  state->result.packets_offered = packet_count;
  const auto n = static_cast<std::size_t>(packet_count);
  state->acked.assign(n, 0);
  state->dropped.assign(n, 0);
  state->received.assign(n, 0);
  state->attempts.assign(n, 0);
  state->receive_time_s.assign(n, 0.0);
  state->in_flight.resize(n);
  if (packet_count == 0) {
    queue.schedule_in(0.0, [state] { finish(state); });
    return;
  }
  queue.schedule_in(0.0, [state] { round_step(state); });
}

SrArqResult SrArqSession::run(int packet_count, const ChannelFn& channel,
                              std::mt19937_64& rng, PacketPool* pool,
                              AdaptFn adapt) {
  mac::EventQueue queue;
  SrArqResult result;
  start(
      queue, packet_count, channel, rng, pool,
      [&result](const SrArqResult& r) { result = r; }, std::move(adapt));
  queue.run();
  return result;
}

}  // namespace mmtag::net
