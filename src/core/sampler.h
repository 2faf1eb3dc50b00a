// Public facade of the paper's contribution: a continuously maintained
// distributed weighted sample without replacement (Theorem 3).
//
// Usage:
//   DistributedWswor sampler({.num_sites = 8, .sample_size = 32});
//   sampler.Observe(site, Item{id, weight});   // any interleaving
//   auto sample = sampler.Sample();            // valid at ANY point
//   sampler.stats().total_messages();          // network cost so far

#ifndef DWRS_CORE_SAMPLER_H_
#define DWRS_CORE_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/coordinator.h"
#include "core/site.h"
#include "sampling/keyed_item.h"
#include "sim/deployment.h"

namespace dwrs {

// Observe, Run, FlushNetwork, stats() and coordinator() come from
// sim::SimFacade.
class DistributedWswor : public sim::SimFacade<WsworSite, WsworCoordinator> {
 public:
  explicit DistributedWswor(const WsworConfig& config);

  // The weighted SWOR of everything observed so far (size min(t, s)).
  std::vector<KeyedItem> Sample() const { return coordinator().Sample(); }

  const WsworConfig& config() const { return config_; }

  // Proposition 7 instrumentation aggregated over sites.
  uint64_t KeysDecided() const;
  uint64_t KeyBitsConsumed() const;

  uint64_t items_observed() const { return runtime_.steps(); }

 private:
  WsworConfig config_;
};

}  // namespace dwrs

#endif  // DWRS_CORE_SAMPLER_H_
