// Distributed sliding-window weighted SWOR.
//
// The paper leaves the message-optimal sliding-window protocol open
// (Section 6); this module provides a correct working protocol: every
// site runs a local key skyline over the global round clock and forwards
// an item the moment it (re-)enters the site's local window top-s — if
// an item is in the GLOBAL window top-s it is certainly in its own
// site's local top-s, so the coordinator always holds every candidate.
// Each item is forwarded at most once; the measured message cost is far
// below one per item on stable streams (bench E13), though no optimality
// claim is made.

#ifndef DWRS_WINDOW_DISTRIBUTED_WINDOW_H_
#define DWRS_WINDOW_DISTRIBUTED_WINDOW_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "random/rng.h"
#include "sampling/keyed_item.h"
#include "sim/deployment.h"
#include "window/skyline.h"

namespace dwrs {

enum WindowMessageType : uint32_t {
  kWindowCandidate = 1,  // site -> coord: (step<<40 | id, weight, key)
};

struct WindowConfig {
  int num_sites = 4;
  int sample_size = 16;
  uint64_t window = 1024;  // in global rounds
  uint64_t seed = 1;
};

class WindowSite : public sim::SiteNode {
 public:
  // Excluded from the fault harness (src/faults/): the window protocol's
  // site state (skyline + forwarded-id set keyed to the round clock) is
  // not reconstructible from coordinator state, and its OnRound ticker
  // only exists on the synchronous backend.
  static constexpr bool kRequiresReliableTransport = true;

  WindowSite(const WindowConfig& config, int site_index,
             sim::Transport* transport, uint64_t seed);

  void OnItem(const Item& item) override;
  void OnItems(const Item* items, size_t n) override;
  void OnMessage(const sim::Payload& msg) override;
  // Expiry of older entries can promote retained ones into the local
  // top-s; react to the round clock even without a local arrival.
  void OnRound(uint64_t step) override;

  size_t SkylineSize() const { return skyline_.size(); }

 private:
  void ForwardNewTopEntries(uint64_t now);

  const WindowConfig config_;
  int site_index_;
  sim::Transport* transport_;
  Rng rng_;
  KeySkyline skyline_;
  std::unordered_set<uint64_t> forwarded_;  // item ids already sent
};

class WindowCoordinator : public sim::CoordinatorNode {
 public:
  WindowCoordinator(const WindowConfig& config, sim::Transport* transport);

  void OnMessage(int site, const sim::Payload& msg) override;

  // Weighted SWOR of the items whose arrival step lies in the window.
  std::vector<KeyedItem> Sample() const;

  size_t SkylineSize() const { return skyline_.size(); }

 private:
  sim::Transport* transport_;
  KeySkyline skyline_;
};

class DistributedWindowWswor
    : public sim::SimFacade<WindowSite, WindowCoordinator> {
 public:
  explicit DistributedWindowWswor(const WindowConfig& config);

  std::vector<KeyedItem> Sample() const { return coordinator().Sample(); }

  // Space audit across all nodes.
  size_t MaxSiteSkyline() const;
  size_t CoordinatorSkyline() const { return coordinator().SkylineSize(); }
};

}  // namespace dwrs

#endif  // DWRS_WINDOW_DISTRIBUTED_WINDOW_H_
