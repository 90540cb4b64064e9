#include "src/net/packet.hpp"

#include <cassert>
#include <utility>

#include "src/obs/metrics.hpp"

namespace mmtag::net {

namespace {

obs::Counter& pool_exhausted_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("net.pool.exhausted");
  return counter;
}

obs::Histogram& pool_peak_occupancy_metric() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("net.pool.peak_occupancy_pct");
  return hist;
}

}  // namespace

Packet::Packet(Packet&& other) noexcept
    : pool_(std::exchange(other.pool_, nullptr)),
      base_(std::exchange(other.base_, nullptr)),
      capacity_(std::exchange(other.capacity_, 0)),
      offset_(std::exchange(other.offset_, 0)),
      len_(std::exchange(other.len_, 0)),
      slot_(std::exchange(other.slot_, 0)) {}

Packet& Packet::operator=(Packet&& other) noexcept {
  if (this != &other) {
    release();
    pool_ = std::exchange(other.pool_, nullptr);
    base_ = std::exchange(other.base_, nullptr);
    capacity_ = std::exchange(other.capacity_, 0);
    offset_ = std::exchange(other.offset_, 0);
    len_ = std::exchange(other.len_, 0);
    slot_ = std::exchange(other.slot_, 0);
  }
  return *this;
}

Packet::~Packet() { release(); }

std::uint8_t* Packet::prepend(std::size_t bytes) {
  if (!valid() || bytes > offset_) return nullptr;
  offset_ -= bytes;
  len_ += bytes;
  return base_ + offset_;
}

std::uint8_t* Packet::append(std::size_t bytes) {
  if (!valid() || bytes > tailroom()) return nullptr;
  std::uint8_t* region = base_ + offset_ + len_;
  len_ += bytes;
  return region;
}

bool Packet::consume(std::size_t bytes) {
  if (!valid() || bytes > len_) return false;
  offset_ += bytes;
  len_ -= bytes;
  return true;
}

void Packet::release() {
  if (pool_ != nullptr) {
    pool_->release_slot(slot_);
    pool_ = nullptr;
    base_ = nullptr;
    capacity_ = offset_ = len_ = 0;
  }
}

PacketPool::PacketPool(std::size_t packets, std::size_t payload_capacity,
                       std::size_t headroom)
    : slots_(packets),
      slot_bytes_(payload_capacity + headroom),
      headroom_(headroom),
      slab_(packets * (payload_capacity + headroom), 0) {
  assert(packets > 0 && slot_bytes_ > 0);
  free_.reserve(slots_);
  // LIFO order with slot 0 on top: the first alloc takes slot 0.
  for (std::size_t i = slots_; i-- > 0;) {
    free_.push_back(static_cast<std::uint32_t>(i));
  }
}

PacketPool::~PacketPool() {
  // One high-watermark sample per pool lifetime: enough to read fleet-wide
  // buffer pressure off a bench JSON without plumbing pool pointers out.
  if (stats_.allocs > 0) {
    pool_peak_occupancy_metric().record(
        static_cast<std::uint64_t>(peak_occupancy() * 100.0));
  }
}

Packet PacketPool::alloc() {
  if (free_.empty()) {
    // Exhaustion is backpressure for a window-limited sender but a *drop*
    // for a forwarding fan-in; either way it must be observable, so every
    // refusal is counted both here and in the process-wide registry.
    ++stats_.exhaustions;
    pool_exhausted_metric().add(1);
    return Packet{};
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  ++stats_.allocs;
  if (in_use() > stats_.peak_in_use) stats_.peak_in_use = in_use();
  return Packet(this, slot, slab_.data() + slot * slot_bytes_, slot_bytes_,
                headroom_);
}

void PacketPool::release_slot(std::uint32_t slot) {
  assert(slot < slots_);
  free_.push_back(slot);
}

}  // namespace mmtag::net
