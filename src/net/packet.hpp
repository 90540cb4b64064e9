// Zero-copy packet buffers with reserved headroom.
//
// A gigabit backscatter link dies by memcpy: if every layer that wraps a
// payload (ARQ sequencing, fragmentation, application headers) copies the
// bytes into a fresh buffer, the packet path costs more than the radio.
// This module is the mmbuf/mmpkt idea from production mmWave IoT stacks:
// a PacketPool owns one contiguous slab carved into fixed-size slots, and
// every Packet handed out starts its payload `headroom` bytes into its
// slot. Layers *prepend* their headers into that reserved headroom — the
// payload bytes never move — and strip them on the way back up by sliding
// the data window forward.
//
// Pool exhaustion is flow control, not an error: a sender whose pool is
// dry cannot put more packets in flight, which is exactly the
// backpressure a sliding-window ARQ wants (sr_arq.hpp caps its effective
// window at the pool's availability).
//
// Threading: a pool and its packets belong to one simulation thread (in
// the traffic engine, one per flow). Nothing here locks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mmtag::net {

class PacketPool;

/// Move-only handle to one pool slot. The data window [data, data+size)
/// floats inside the slot: prepend() grows it backward into headroom,
/// append() forward into tailroom, consume() shrinks it. The slot
/// returns to the pool when the handle is destroyed or release()d.
class Packet {
 public:
  Packet() = default;
  Packet(Packet&& other) noexcept;
  Packet& operator=(Packet&& other) noexcept;
  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;
  ~Packet();

  /// A default-constructed or released handle is invalid (no storage).
  [[nodiscard]] bool valid() const { return pool_ != nullptr; }
  explicit operator bool() const { return valid(); }

  [[nodiscard]] std::uint8_t* data() { return base_ + offset_; }
  [[nodiscard]] const std::uint8_t* data() const { return base_ + offset_; }
  [[nodiscard]] std::size_t size() const { return len_; }

  /// Bytes available in front of the data window (header budget).
  [[nodiscard]] std::size_t headroom() const { return offset_; }
  /// Bytes available behind the data window.
  [[nodiscard]] std::size_t tailroom() const {
    return capacity_ - offset_ - len_;
  }
  /// Whole-slot capacity (headroom + data + tailroom).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Grow the data window backward by `bytes` and return a pointer to the
  /// new front (where the caller writes its header). The existing payload
  /// bytes do not move. Returns nullptr when the headroom is short.
  [[nodiscard]] std::uint8_t* prepend(std::size_t bytes);

  /// Grow the data window forward by `bytes` and return a pointer to the
  /// new region. Returns nullptr when the tailroom is short.
  [[nodiscard]] std::uint8_t* append(std::size_t bytes);

  /// Drop `bytes` from the front (strip a header); they become headroom
  /// again. Returns false (unchanged) when bytes > size().
  bool consume(std::size_t bytes);

  /// Return the slot to the pool now; the handle becomes invalid.
  void release();

 private:
  friend class PacketPool;
  Packet(PacketPool* pool, std::uint32_t slot, std::uint8_t* base,
         std::size_t capacity, std::size_t offset)
      : pool_(pool), base_(base), capacity_(capacity), offset_(offset),
        slot_(slot) {}

  PacketPool* pool_ = nullptr;
  std::uint8_t* base_ = nullptr;  ///< Slot storage (owned by the pool).
  std::size_t capacity_ = 0;
  std::size_t offset_ = 0;        ///< Data window start within the slot.
  std::size_t len_ = 0;
  std::uint32_t slot_ = 0;
};

struct PacketPoolStats {
  std::uint64_t allocs = 0;        ///< Successful alloc() calls.
  /// alloc() calls refused (pool dry). Also mirrored to the
  /// `net.pool.exhausted` obs counter so fan-in drops (mesh forwarding)
  /// show up in bench JSON without plumbing pool pointers around.
  std::uint64_t exhaustions = 0;
  std::size_t peak_in_use = 0;     ///< High-water mark of live packets.
};

/// Fixed population of equal slots in one contiguous slab. Not copyable
/// or movable: live Packets hold pointers into the slab.
class PacketPool {
 public:
  /// `packets` slots, each `payload_capacity + headroom` bytes; fresh
  /// packets start with exactly `headroom` bytes of headroom and an empty
  /// data window.
  PacketPool(std::size_t packets, std::size_t payload_capacity,
             std::size_t headroom);
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  /// Records the pool's high-watermark occupancy to the
  /// `net.pool.peak_occupancy_pct` obs histogram (pools that never
  /// allocated stay silent).
  ~PacketPool();

  /// Take a slot; the returned handle is invalid when the pool is dry
  /// (counted in stats().exhaustions — the caller's backpressure signal).
  [[nodiscard]] Packet alloc();

  [[nodiscard]] std::size_t capacity() const { return slots_; }
  [[nodiscard]] std::size_t available() const { return free_.size(); }
  [[nodiscard]] std::size_t in_use() const {
    return slots_ - free_.size();
  }
  /// High-watermark occupancy fraction over the pool's lifetime.
  [[nodiscard]] double peak_occupancy() const {
    return static_cast<double>(stats_.peak_in_use) /
           static_cast<double>(slots_);
  }
  [[nodiscard]] std::size_t headroom() const { return headroom_; }
  [[nodiscard]] const PacketPoolStats& stats() const { return stats_; }

 private:
  friend class Packet;
  void release_slot(std::uint32_t slot);

  std::size_t slots_;
  std::size_t slot_bytes_;
  std::size_t headroom_;
  std::vector<std::uint8_t> slab_;
  std::vector<std::uint32_t> free_;  ///< LIFO free list (cache-warm reuse).
  PacketPoolStats stats_;
};

}  // namespace mmtag::net
