// TracingTransport: a sim::Transport decorator that records a kMsgSend
// flight-recorder event for every message passing through, then
// forwards unchanged. Composes with FaultyTransport — the fault harness
// stacks sessions -> TracingTransport -> FaultyTransport -> backend, so
// the trace shows each message entering the network BEFORE the fault
// layer's verdict (whose own kFaultDrop/kFaultDup/kFaultDelay events
// complete the causality chain send -> [faults] -> recv).
//
// Cost: one relaxed load per send while tracing is disabled (the
// decorator is always in the stack under the fault harness; only the
// recording is conditional).

#ifndef DWRS_OBS_TRACING_TRANSPORT_H_
#define DWRS_OBS_TRACING_TRANSPORT_H_

#include "obs/trace.h"
#include "sim/message.h"
#include "sim/node.h"

namespace dwrs::obs {

class TracingTransport : public sim::Transport {
 public:
  explicit TracingTransport(sim::Transport* inner, int shard = 0);

  void SendToCoordinator(int site, const sim::Payload& msg) override;
  void SendToSite(int site, const sim::Payload& msg) override;
  void Broadcast(const sim::Payload& msg) override;
  uint64_t step() const override { return inner_->step(); }

 private:
  void Record(int site, uint8_t dir, const sim::Payload& msg);

  sim::Transport* const inner_;
  const int shard_;
};

}  // namespace dwrs::obs

#endif  // DWRS_OBS_TRACING_TRANSPORT_H_
