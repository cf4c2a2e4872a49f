#include "mac/rate_adaptation.h"

#include "util/assert.h"

namespace hydra::mac {

static_assert(kArfRaiseAfter <= UINT8_MAX && kArfFallAfter <= UINT8_MAX,
              "ARF's byte counters must reach their thresholds");

RateAdapter::RateAdapter(RateAdaptationScheme scheme,
                         std::size_t initial_index)
    : scheme_(scheme), index_(static_cast<std::uint8_t>(initial_index)) {
  HYDRA_ASSERT(initial_index < proto::hydra_modes().size());
  HYDRA_ASSERT(proto::hydra_modes().size() <= UINT8_MAX);
}

void RateAdapter::on_tx_result(bool success) {
  if (scheme_ != RateAdaptationScheme::kArf) return;
  const std::size_t top = proto::hydra_modes().size() - 1;
  if (success) {
    probing_ = false;
    failures_ = 0;
    // At the top there is nothing to raise to, so the run stops counting.
    if (index_ < top && ++successes_ >= kArfRaiseAfter) {
      ++index_;
      successes_ = 0;
      probing_ = true;  // next failure falls back immediately
    }
    return;
  }
  successes_ = 0;
  // At the bottom there is nothing to fall to, so failures stop counting.
  const bool fall =
      index_ > 0 && (probing_ || ++failures_ >= kArfFallAfter);
  probing_ = false;
  if (fall) {
    --index_;
    failures_ = 0;
  }
}

void RateAdapter::on_feedback_snr(double snr_db) {
  if (scheme_ != RateAdaptationScheme::kSnr) return;
  // Fastest mode whose required SNR clears the feedback by the margin,
  // selected by *rate*, not by table position: the mode table happens to
  // be rate-sorted today, but a reordered or extended table must never
  // make the adapter pick a slower qualifying mode. Falls back to the
  // table's first mode when nothing qualifies.
  const auto modes = proto::hydra_modes();
  std::size_t best = 0;
  bool found = false;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    if (modes[i].required_snr_db + kSnrMarginDb > snr_db) continue;
    if (!found || modes[i].rate > modes[best].rate) best = i;
    found = true;
  }
  index_ = static_cast<std::uint8_t>(best);
}

}  // namespace hydra::mac
