#include "checks.h"

#include <bit>
#include <sstream>

namespace perfbench {

namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

bool SameEntry(const dwrs::KeyedItem& a, const dwrs::KeyedItem& b) {
  return a.item.id == b.item.id && Bits(a.item.weight) == Bits(b.item.weight) &&
         Bits(a.key) == Bits(b.key);
}

}  // namespace

std::string CheckFedSample(const std::vector<dwrs::KeyedItem>& sample,
                           size_t s,
                           const std::vector<dwrs::WorkloadEvent>& events,
                           uint64_t last_pass) {
  std::ostringstream err;
  if (sample.size() != s) {
    err << "sample has " << sample.size() << " entries, expected " << s;
    return err.str();
  }
  const uint64_t n = events.size();
  for (size_t i = 0; i < sample.size(); ++i) {
    const dwrs::KeyedItem& e = sample[i];
    if (i > 0 && !(e.key < sample[i - 1].key)) {
      err << "sample keys not strictly decreasing at entry " << i;
      return err.str();
    }
    if (n == 0 || e.item.id / n > last_pass) {
      err << "sampled id " << e.item.id << " was never fed";
      return err.str();
    }
    if (Bits(events[e.item.id % n].item.weight) != Bits(e.item.weight)) {
      err << "sampled id " << e.item.id << " carries weight " << e.item.weight
          << ", fed with " << events[e.item.id % n].item.weight;
      return err.str();
    }
  }
  return "";
}

std::string CheckItemAccounting(uint64_t items_ingested, uint64_t items_fed,
                                uint64_t batches_dropped_on_shutdown) {
  std::ostringstream err;
  if (items_ingested != items_fed) {
    err << "engine ingested " << items_ingested << " items, fed " << items_fed;
  } else if (batches_dropped_on_shutdown != 0) {
    err << batches_dropped_on_shutdown << " batches dropped on shutdown";
  }
  return err.str();
}

std::string CheckSameMerge(const dwrs::MergeableSample& live,
                           const dwrs::MergeableSample& stopped) {
  if (live.kind != stopped.kind || live.target_size != stopped.target_size ||
      live.state_version != stopped.state_version) {
    return "live merge header (kind, size, version) differs from MergedSample";
  }
  if (live.entries.size() != stopped.entries.size()) {
    return "live merge entry count differs from MergedSample";
  }
  for (size_t i = 0; i < live.entries.size(); ++i) {
    if (!SameEntry(live.entries[i], stopped.entries[i])) {
      return "live merge entry " + std::to_string(i) +
             " differs from MergedSample";
    }
  }
  if (live.withheld.size() != stopped.withheld.size()) {
    return "live merge withheld count differs from MergedSample";
  }
  for (size_t i = 0; i < live.withheld.size(); ++i) {
    if (live.withheld[i].level != stopped.withheld[i].level ||
        !SameEntry(live.withheld[i].entry, stopped.withheld[i].entry)) {
      return "live merge withheld entry " + std::to_string(i) +
             " differs from MergedSample";
    }
  }
  if (live.level_counts.size() != stopped.level_counts.size()) {
    return "live merge level counts differ from MergedSample";
  }
  for (size_t i = 0; i < live.level_counts.size(); ++i) {
    if (live.level_counts[i].level != stopped.level_counts[i].level ||
        live.level_counts[i].count != stopped.level_counts[i].count) {
      return "live merge level count " + std::to_string(i) +
             " differs from MergedSample";
    }
  }
  return "";
}

std::string CheckDurableOutcome(bool clean, bool recovery_consistent,
                                const std::vector<uint64_t>& ids,
                                const std::vector<uint64_t>& reference_ids) {
  if (!clean) return "durable run not clean";
  if (!recovery_consistent) return "durable recovery inconsistent";
  if (ids.empty()) return "durable sample empty";
  if (ids != reference_ids) {
    return "durable sample ids differ from the uninterrupted reference";
  }
  return "";
}

}  // namespace perfbench
