// The unit the PHY transmits and receives.
//
// A PhyFrame is two portions (broadcast, then unicast — the paper's Fig. 2
// layout) plus an opaque payload pointer that the MAC layer interprets.
// The PHY only needs subframe byte boundaries and modes: airtime, sample
// counts and per-subframe error draws all derive from those.
#pragma once

#include <memory>
#include <vector>

#include "phy/timing.h"

namespace hydra::phy {

// Base class for the MAC-level content carried through the medium. The
// PHY never inspects it; the receiving MAC downcasts to its own types.
struct Payload {
  virtual ~Payload() = default;
};

struct PhyFrame {
  PortionSpec broadcast;
  PortionSpec unicast;
  std::shared_ptr<const Payload> payload;

  bool empty() const { return broadcast.empty() && unicast.empty(); }
  std::size_t total_bytes() const {
    return broadcast.total_bytes() + unicast.total_bytes();
  }
};

// Outcome of one reception, delivered to the MAC.
struct RxReport {
  // The received frame, in place in its transmission: valid only during
  // the on_rx call that delivers this report.
  const PhyFrame* frame = nullptr;
  // Per-subframe FCS outcome, in portion order. All false on collision.
  std::vector<bool> broadcast_ok;
  std::vector<bool> unicast_ok;
  double snr_db = 0.0;
  // True when another transmission (or our own) overlapped this one; the
  // frame is undecodable and all subframe flags are false.
  bool collided = false;

  bool all_unicast_ok() const {
    for (const bool ok : unicast_ok)
      if (!ok) return false;
    return true;
  }
};

}  // namespace hydra::phy
