#include "faults/harness.h"

namespace dwrs::faults {

RunReport FoldShardReports(const std::vector<RunReport>& shards) {
  RunReport out;
  out.transcript_hash = 1469598103934665603ull;  // FNV offset basis
  out.clean = true;
  for (const RunReport& r : shards) {
    for (int b = 0; b < 64; b += 8) {
      out.transcript_hash ^= (r.transcript_hash >> b) & 0xffull;
      out.transcript_hash *= 1099511628211ull;  // FNV prime
    }
    for (const RunReportCounter& counter : kRunReportCounters) {
      out.*counter.field += r.*counter.field;
    }
    out.recovery_consistent = out.recovery_consistent && r.recovery_consistent;
    out.clean = out.clean && r.clean;
  }
  return out;
}

std::vector<uint64_t> SurvivingItemIds(const Workload& workload,
                                       const FaultSchedule& schedule) {
  const size_t k = static_cast<size_t>(workload.num_sites());
  std::vector<uint64_t> arrivals(k, 0);
  std::vector<uint64_t> down_remaining(k, 0);
  std::vector<uint64_t> surviving;
  const uint64_t down_for =
      static_cast<uint64_t>(schedule.config().crash_down_items);
  for (uint64_t i = 0; i < workload.size(); ++i) {
    const WorkloadEvent& event = workload.event(i);
    const size_t site = static_cast<size_t>(event.site);
    const uint64_t index = arrivals[site]++;
    if (down_remaining[site] == 0 &&
        schedule.CrashesAt(event.site, index)) {
      down_remaining[site] = down_for;
    }
    if (down_remaining[site] > 0) {
      --down_remaining[site];
      continue;  // lost at a crashed site
    }
    surviving.push_back(event.item.id);
  }
  return surviving;
}

}  // namespace dwrs::faults
