// Link rate adaptation, as supported by the Hydra prototype (paper
// §4.1.2: "rate adaptation schemes including receiver based auto rate
// (RBAR) and auto rate fallback (ARF)"). The paper's experiments pin the
// rate; the adapter makes the dimension available and is exercised by
// the rate-adaptation extension bench.
//
// One concrete class runs one scheme over the whole rate table:
//  - kNone (the default): the rate stays where it started.
//  - kArf: Kamerman & Monteban's ARF — climb one rate after a run of
//    kArfRaiseAfter link-ACKed transmissions, fall one after
//    kArfFallAfter consecutive failures (with the classic immediate
//    fallback if the probe transmission right after a raise fails).
//  - kSnr: RBAR-style explicit feedback — pick the fastest mode whose
//    required SNR clears the last measured feedback SNR by kSnrMarginDb
//    (Hydra measures this on the RTS/CTS exchange).
#pragma once

#include <cstddef>
#include <cstdint>

#include "proto/mode.h"

namespace hydra::mac {

enum class RateAdaptationScheme { kNone, kArf, kSnr };

// ARF raises after this many successes in a row.
inline constexpr unsigned kArfRaiseAfter = 10;
// ARF falls after this many failures in a row.
inline constexpr unsigned kArfFallAfter = 2;
// Required-SNR clearance before the SNR scheme considers a mode usable.
inline constexpr double kSnrMarginDb = 2.0;

// Consulted by the MAC around every unicast transmit sequence.
class RateAdapter {
 public:
  // `initial_index` is the starting index into proto::hydra_modes().
  RateAdapter(RateAdaptationScheme scheme, std::size_t initial_index);

  // Whether the scheme moves the rate at all (false under kNone).
  bool adapting() const { return scheme_ != RateAdaptationScheme::kNone; }

  // Outcome of a unicast sequence (link ACK received / a transmission
  // attempt failed). Only ARF reacts.
  void on_tx_result(bool success);
  // SNR observed on a frame from the peer (CTS/ACK), i.e. explicit
  // feedback about the reverse channel (assumed symmetric, as on the
  // prototype). Only the SNR scheme reacts.
  void on_feedback_snr(double snr_db);

  // Index into proto::hydra_modes() to use for the next unicast portion.
  std::size_t mode_index() const { return index_; }
  const proto::PhyMode& current_mode() const {
    return proto::mode_by_index(index_);
  }

 private:
  RateAdaptationScheme scheme_;
  // The rate table has eight modes, and ARF's counters stop at their
  // thresholds, so a byte holds each.
  std::uint8_t index_;
  std::uint8_t successes_ = 0;
  std::uint8_t failures_ = 0;
  bool probing_ = false;  // ARF: the transmission right after a raise
};

}  // namespace hydra::mac
