// Message representation for the simulated coordinator model.
//
// Every protocol message in the paper carries at most an identifier, a
// weight, and a key — a constant number of machine words — so a single
// fixed-layout Payload covers all protocols. `words` is the accounted
// size; the simulation reports both message and word totals.

#ifndef DWRS_SIM_MESSAGE_H_
#define DWRS_SIM_MESSAGE_H_

#include <array>
#include <cstdint>
#include <string>

namespace dwrs::sim {

struct Payload {
  uint32_t type = 0;   // protocol-defined discriminator
  uint64_t a = 0;      // typically: item id or level index
  double x = 0.0;      // typically: weight or threshold
  double y = 0.0;      // typically: key
  uint32_t words = 2;  // accounted size in machine words

  // Reliability header, stamped by the session layer (src/faults/session.h)
  // when a protocol runs over an unreliable transport; zero on a reliable
  // network. `seq` is per-site monotone within an epoch (first message has
  // seq 1; 0 means unstamped); `epoch` increments each time the sending
  // site crashes and restarts. Not counted in `words`: the paper's
  // accounting measures protocol payload, and the header rides along only
  // under the fault model.
  uint32_t seq = 0;
  uint32_t epoch = 0;

  friend bool operator==(const Payload&, const Payload&) = default;
};

// Aggregate traffic counters. A broadcast is accounted as k coordinator->
// site messages (as in the paper's analysis) plus one broadcast event.
struct MessageStats {
  uint64_t site_to_coord = 0;
  uint64_t coord_to_site = 0;
  uint64_t broadcast_events = 0;
  uint64_t words = 0;
  std::array<uint64_t, 32> by_type{};

  uint64_t total_messages() const { return site_to_coord + coord_to_site; }

  // Field-wise accumulation — the one definition the sharded backends'
  // aggregate views sum through.
  MessageStats& operator+=(const MessageStats& o) {
    site_to_coord += o.site_to_coord;
    coord_to_site += o.coord_to_site;
    broadcast_events += o.broadcast_events;
    words += o.words;
    for (size_t i = 0; i < by_type.size(); ++i) by_type[i] += o.by_type[i];
    return *this;
  }

  std::string ToString() const;
};

}  // namespace dwrs::sim

#endif  // DWRS_SIM_MESSAGE_H_
