// Weighted Misra-Gries summary and a periodic-merge distributed heavy
// hitter baseline. Misra-Gries(c) underestimates each id's weight by at
// most W/(c+1) and summaries merge by counter addition + decrement —
// the classical deterministic alternative that E7 compares against
// (deterministic, but no residual guarantee and message cost linear in
// the number of synchronization rounds).

#ifndef DWRS_HH_MISRA_GRIES_H_
#define DWRS_HH_MISRA_GRIES_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/deployment.h"

namespace dwrs {

class MisraGries {
 public:
  explicit MisraGries(size_t capacity);

  void Add(uint64_t id, double weight);

  // Merges another summary into this one (counter addition followed by
  // re-compaction to capacity).
  void Merge(const MisraGries& other);

  // Lower-bound estimate (0 if untracked).
  double EstimateOf(uint64_t id) const;

  // Max underestimation of any id.
  double error_bound() const { return decremented_; }

  struct Entry {
    uint64_t id;
    double count;
  };
  // Entries sorted by count descending.
  std::vector<Entry> Entries() const;

  size_t capacity() const { return capacity_; }
  double total_weight() const { return total_weight_; }

 private:
  void CompactToCapacity();

  size_t capacity_;
  double total_weight_ = 0.0;
  double decremented_ = 0.0;  // cumulative decrement = max underestimate
  std::unordered_map<uint64_t, double> counters_;
};

// The endpoints of DistributedMgHh, defined in misra_gries.cc.
class MgHhSite;
class MgHhCoordinator;

// Distributed heavy hitters by periodic Misra-Gries merging: every site
// keeps a local MG summary and ships it to the coordinator every
// `sync_every` local items (message cost = capacity words per sync).
class DistributedMgHh : public sim::SimFacade<MgHhSite, MgHhCoordinator> {
 public:
  DistributedMgHh(int num_sites, size_t capacity, uint64_t sync_every);
  ~DistributedMgHh();  // out-of-line: the endpoints are incomplete here

  // Ids whose merged estimate is >= eps * (coordinator's known weight).
  std::vector<Item> HeavyHitters(double eps) const;

  // A standalone MG site endpoint (local summary + periodic ship),
  // exposed for the hot-path bench and the span transcript tests.
  static std::unique_ptr<sim::SiteNode> MakeSite(int index, size_t capacity,
                                                 uint64_t sync_every,
                                                 sim::Transport* transport);
};

}  // namespace dwrs

#endif  // DWRS_HH_MISRA_GRIES_H_
