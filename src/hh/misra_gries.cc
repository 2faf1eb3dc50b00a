#include "hh/misra_gries.h"

#include <algorithm>

#include "util/check.h"

namespace dwrs {

MisraGries::MisraGries(size_t capacity) : capacity_(capacity) {
  DWRS_CHECK_GT(capacity, 0u);
}

void MisraGries::Add(uint64_t id, double weight) {
  DWRS_CHECK_GT(weight, 0.0);
  total_weight_ += weight;
  counters_[id] += weight;
  if (counters_.size() > capacity_) CompactToCapacity();
}

void MisraGries::CompactToCapacity() {
  if (counters_.size() <= capacity_) return;
  // Subtract the (capacity+1)-st largest count from everything; at most
  // `capacity` strictly positive counters survive.
  std::vector<double> counts;
  counts.reserve(counters_.size());
  for (const auto& [id, c] : counters_) counts.push_back(c);
  const size_t drop_rank = counters_.size() - capacity_ - 1;
  std::nth_element(counts.begin(), counts.begin() + static_cast<long>(drop_rank),
                   counts.end());
  const double m = counts[drop_rank];
  decremented_ += m;
  for (auto it = counters_.begin(); it != counters_.end();) {
    it->second -= m;
    if (it->second <= 0.0) {
      it = counters_.erase(it);
    } else {
      ++it;
    }
  }
}

void MisraGries::Merge(const MisraGries& other) {
  total_weight_ += other.total_weight_;
  decremented_ += other.decremented_;
  for (const auto& [id, c] : other.counters_) counters_[id] += c;
  CompactToCapacity();
}

double MisraGries::EstimateOf(uint64_t id) const {
  auto it = counters_.find(id);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<MisraGries::Entry> MisraGries::Entries() const {
  std::vector<Entry> out;
  out.reserve(counters_.size());
  for (const auto& [id, c] : counters_) out.push_back(Entry{id, c});
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.count > b.count; });
  return out;
}

// ---------------------------------------------------------------------------

namespace {

enum MgMessageType : uint32_t {
  kMgEntry = 1,  // site -> coord: (id, count)
  kMgSync = 2,   // site -> coord: (entry count, local total)
};

}  // namespace

class MgHhSite : public sim::SiteNode {
 public:
  MgHhSite(int index, size_t capacity, uint64_t sync_every,
           sim::Transport* transport)
      : index_(index),
        sync_every_(sync_every),
        transport_(transport),
        summary_(capacity) {
    // Guarded here, where DistributedMgHh and MakeSite both construct
    // sites; 0 would wedge the OnItems chunk loop.
    DWRS_CHECK_GT(sync_every, 0u);
  }

  void OnItem(const Item& item) override { OnItems(&item, 1); }

  void OnItems(const Item* items, size_t n) override {
    // Chunk the span at sync boundaries so the summary-Add loop runs
    // branch-light; identical to the per-item path by construction.
    size_t i = 0;
    while (i < n) {
      const size_t until_sync = static_cast<size_t>(sync_every_ - since_sync_);
      const size_t chunk = std::min(n - i, until_sync);
      for (size_t j = 0; j < chunk; ++j) {
        summary_.Add(items[i + j].id, items[i + j].weight);
      }
      i += chunk;
      since_sync_ += chunk;
      if (since_sync_ >= sync_every_) {
        Ship();
        since_sync_ = 0;
      }
    }
  }

  void OnMessage(const sim::Payload& msg) override {
    DWRS_CHECK(false) << " MG sites receive no messages, got " << msg.type;
  }

 private:
  void Ship() {
    const auto entries = summary_.Entries();
    for (const auto& e : entries) {
      sim::Payload msg;
      msg.type = kMgEntry;
      msg.a = e.id;
      msg.x = e.count;
      msg.words = 3;
      transport_->SendToCoordinator(index_, msg);
    }
    sim::Payload done;
    done.type = kMgSync;
    done.a = entries.size();
    done.x = summary_.total_weight();
    done.words = 3;
    transport_->SendToCoordinator(index_, done);
  }

  int index_;
  uint64_t sync_every_;
  uint64_t since_sync_ = 0;
  sim::Transport* transport_;
  MisraGries summary_;
};

class MgHhCoordinator : public sim::CoordinatorNode {
 public:
  explicit MgHhCoordinator(int num_sites)
      : pending_(static_cast<size_t>(num_sites)),
        summaries_(static_cast<size_t>(num_sites)),
        totals_(static_cast<size_t>(num_sites), 0.0) {}

  void OnMessage(int site, const sim::Payload& msg) override {
    const size_t idx = static_cast<size_t>(site);
    switch (msg.type) {
      case kMgEntry:
        pending_[idx].push_back(MisraGries::Entry{msg.a, msg.x});
        break;
      case kMgSync:
        DWRS_CHECK_EQ(pending_[idx].size(), static_cast<size_t>(msg.a));
        summaries_[idx] = std::move(pending_[idx]);
        pending_[idx].clear();
        totals_[idx] = msg.x;
        break;
      default:
        DWRS_CHECK(false) << " unexpected MG message " << msg.type;
    }
  }

  std::vector<Item> HeavyHitters(double eps) const {
    DWRS_CHECK_GT(eps, 0.0);
    double total = 0.0;
    std::unordered_map<uint64_t, double> merged;
    for (size_t i = 0; i < summaries_.size(); ++i) {
      total += totals_[i];
      for (const auto& e : summaries_[i]) merged[e.id] += e.count;
    }
    std::vector<Item> out;
    for (const auto& [id, count] : merged) {
      if (count >= eps * total) out.push_back(Item{id, count});
    }
    std::sort(out.begin(), out.end(), [](const Item& a, const Item& b) {
      return a.weight > b.weight;
    });
    return out;
  }

 private:
  std::vector<std::vector<MisraGries::Entry>> pending_;
  std::vector<std::vector<MisraGries::Entry>> summaries_;
  std::vector<double> totals_;
};

std::unique_ptr<sim::SiteNode> DistributedMgHh::MakeSite(
    int index, size_t capacity, uint64_t sync_every,
    sim::Transport* transport) {
  return std::make_unique<MgHhSite>(index, capacity, sync_every, transport);
}

DistributedMgHh::DistributedMgHh(int num_sites, size_t capacity,
                                 uint64_t sync_every)
    : SimFacade(
          num_sites, /*seed=*/0,
          [&](int i, sim::Transport* transport, uint64_t) {
            return std::make_unique<MgHhSite>(i, capacity, sync_every,
                                              transport);
          },
          [&](sim::Transport*, uint64_t) {
            return std::make_unique<MgHhCoordinator>(num_sites);
          }) {}

DistributedMgHh::~DistributedMgHh() = default;

std::vector<Item> DistributedMgHh::HeavyHitters(double eps) const {
  return coordinator().HeavyHitters(eps);
}

}  // namespace dwrs
