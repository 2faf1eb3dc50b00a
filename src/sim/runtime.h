// Runtime drives a Workload through a (sites, coordinator) protocol pair
// over the simulated Network, exactly realizing the paper's model: per
// step one site observes one item; messages flow FIFO; the coordinator
// must be able to answer a sample query at every step.

#ifndef DWRS_SIM_RUNTIME_H_
#define DWRS_SIM_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/network.h"
#include "sim/node.h"
#include "stream/item.h"
#include "stream/workload.h"

namespace dwrs::sim {

class Runtime {
 public:
  Runtime(int num_sites, int delivery_delay = 0, uint64_t jitter_seed = 0);

  Network& network() { return network_; }
  // The backend-agnostic spelling shared with engine::Engine.
  Transport& transport() { return network_; }
  const MessageStats& stats() const { return network_.stats(); }
  int num_sites() const { return network_.num_sites(); }

  // Non-owning; endpoints must outlive the runtime's use.
  void AttachSite(int site, SiteNode* node);
  void AttachCoordinator(CoordinatorNode* node);
  // Registers a site for per-round OnRound notifications (free in the
  // synchronous model; opt-in to keep other protocols' simulation fast).
  void AttachTicker(SiteNode* node);

  // Processes one stream event: advances the step clock, delivers all due
  // messages, hands the item to its site, then delivers whatever became
  // due (with zero delay this runs the exchange to quiescence).
  void Deliver(const WorkloadEvent& event);

  // Delivers all in-flight messages regardless of delay.
  void Flush();

  // Runs the full workload; if `on_step` is set it is invoked after every
  // event (1-based prefix length) — the hook used to query the
  // coordinator continuously.
  void Run(const Workload& workload,
           const std::function<void(uint64_t)>& on_step = nullptr);

  uint64_t steps() const { return network_.step(); }

 private:
  void Pump(bool force);

  Network network_;
  std::vector<SiteNode*> sites_;
  std::vector<SiteNode*> tickers_;
  CoordinatorNode* coordinator_ = nullptr;
};

}  // namespace dwrs::sim

#endif  // DWRS_SIM_RUNTIME_H_
