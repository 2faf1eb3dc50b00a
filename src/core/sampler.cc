#include "core/sampler.h"

namespace dwrs {

DistributedWswor::DistributedWswor(const WsworConfig& config)
    : SimFacade(
          config.num_sites, config.seed,
          [&](int i, sim::Transport* transport, uint64_t seed) {
            return std::make_unique<WsworSite>(config, i, transport, seed);
          },
          [&](sim::Transport* transport, uint64_t seed) {
            return std::make_unique<WsworCoordinator>(config, transport,
                                                      seed);
          },
          config.delivery_delay, config.jitter_seed),
      config_(config) {}

uint64_t DistributedWswor::KeysDecided() const {
  uint64_t total = 0;
  for (const auto& site : endpoints_.sites) total += site->keys_decided();
  return total;
}

uint64_t DistributedWswor::KeyBitsConsumed() const {
  uint64_t total = 0;
  for (const auto& site : endpoints_.sites) total += site->key_bits_consumed();
  return total;
}

}  // namespace dwrs
