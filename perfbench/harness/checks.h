// Output checks of the three workloads. Each returns "" when the output
// is correct and a description of the first defect otherwise, so the
// benchmark's own tests (tests/checks_test.cc) can show every check
// failing on a corrupted output.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/query_service.h"
#include "sampling/keyed_item.h"
#include "sampling/mergeable_sample.h"
#include "stream/workload.h"

namespace perfbench {

// A pass-end coordinator sample: exactly `s` entries, keys strictly
// decreasing, and every (id, weight) fed. Pass p feeds `events` with ids
// shifted by p * events.size(), so id i was fed iff i / size <= last_pass
// and its weight is that of event i % size.
std::string CheckFedSample(const std::vector<dwrs::KeyedItem>& sample,
                           size_t s,
                           const std::vector<dwrs::WorkloadEvent>& events,
                           uint64_t last_pass);

// EngineStats item accounting at a quiesce point: every fed item was
// ingested and no batch was dropped on shutdown.
std::string CheckItemAccounting(uint64_t items_ingested, uint64_t items_fed,
                                uint64_t batches_dropped_on_shutdown);

// The live Query() merge equals the stop-the-world MergedSample() bit for
// bit (keys and weights compared as IEEE 754 bits).
std::string CheckSameMerge(const dwrs::MergeableSample& live,
                           const dwrs::MergeableSample& stopped);

// A poll result covers every shard and no shard is stale.
inline bool PollResultOk(const dwrs::query::QueryResult& result) {
  return result.complete && !result.any_stale;
}

// Durable run: the stack reports a clean run and a consistent recovery,
// and its sample ids equal the uninterrupted reference run's.
std::string CheckDurableOutcome(bool clean, bool recovery_consistent,
                                const std::vector<uint64_t>& ids,
                                const std::vector<uint64_t>& reference_ids);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
