// The MAC's dual transmit queues (paper §4.2.3): one for broadcast-class
// subframes (true broadcasts + reclassified TCP ACKs), one for unicast.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "proto/frames.h"
#include "sim/time.h"

namespace hydra::core {

struct QueuedSubframe {
  proto::MacSubframe subframe;
  sim::TimePoint enqueued;
};

// Bounded FIFO of subframes.
class SubframeQueue {
 public:
  explicit SubframeQueue(std::size_t limit) : limit_(limit) {}

  // Returns false (and counts a drop) when the queue is full.
  bool push(proto::MacSubframe subframe, sim::TimePoint now);

  const QueuedSubframe* front() const {
    return q_.empty() ? nullptr : &q_.front();
  }
  QueuedSubframe pop();

  bool empty() const { return q_.empty(); }
  std::size_t size() const { return q_.size(); }
  std::size_t limit() const { return limit_; }
  std::uint64_t drops() const { return drops_; }

  // Iteration for aggregation decisions (peek without consuming).
  auto begin() const { return q_.begin(); }
  auto end() const { return q_.end(); }

 private:
  std::size_t limit_;
  std::deque<QueuedSubframe> q_;
  std::uint64_t drops_ = 0;
};

// The broadcast/unicast queue pair.
class DualQueue {
 public:
  explicit DualQueue(std::size_t per_queue_limit = 64)
      : broadcast_(per_queue_limit), unicast_(per_queue_limit) {}

  SubframeQueue& broadcast() { return broadcast_; }
  SubframeQueue& unicast() { return unicast_; }
  const SubframeQueue& broadcast() const { return broadcast_; }
  const SubframeQueue& unicast() const { return unicast_; }

  bool empty() const { return broadcast_.empty() && unicast_.empty(); }
  std::size_t total_size() const { return broadcast_.size() + unicast_.size(); }

  // Enqueue time of the oldest subframe in either queue, if any; drives
  // the delayed-aggregation timeout.
  std::optional<sim::TimePoint> oldest_enqueue() const;

 private:
  SubframeQueue broadcast_;
  SubframeQueue unicast_;
};

}  // namespace hydra::core
