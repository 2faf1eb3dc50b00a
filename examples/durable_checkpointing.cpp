// Durability walkthrough (src/durability/): run the full faulty
// protocol stack with a write-ahead log and periodic checkpoints, let
// the seeded kill schedule tear the whole shard down mid-stream —
// un-committed WAL bytes and all — and recover it from disk, then
// check the survivor against an uninterrupted run of the same seeds:
// same sample, same reliability transcript, bit for bit.
//
//   ./examples/durable_checkpointing

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "durability/durable_shard.h"
#include "dwrs.h"
#include "faults/harness.h"

int main() {
  using namespace dwrs;

  constexpr int kSites = 4;
  constexpr int kSampleSize = 12;
  constexpr uint64_t kItems = 6000;

  Workload workload = WorkloadBuilder()
                          .num_sites(kSites)
                          .num_items(kItems)
                          .seed(19)
                          .weights(std::make_unique<UniformWeights>(1.0, 32.0))
                          .partitioner(std::make_unique<RandomPartitioner>())
                          .Build();
  const WsworConfig config{
      .num_sites = kSites, .sample_size = kSampleSize, .seed = 5};

  // Kill-only fault schedule: the message layer is reliable, but the
  // shard process itself dies (kill -9 semantics) at seeded steps.
  faults::FaultConfig faults;
  faults.seed = 11;
  faults.process_kill_prob = 0.002;
  faults.max_process_kills = 3;

  const std::string dir = "durable_checkpointing_state";
  std::system(("rm -rf " + dir).c_str());

  durability::DurabilityOptions durable;
  durable.dir = dir;
  durable.commit_interval_steps = 4;    // loss window: <= 4 steps
  durable.checkpoint_interval_steps = 64;

  durability::DurableWswor shard(config, faults, faults::Backend::kEngine,
                                 durable);
  shard.Run(workload);

  const durability::RecoveryReport& recovery = shard.last_recovery();
  std::printf("durable run : kills=%llu recoveries=%llu\n",
              static_cast<unsigned long long>(shard.process_kills()),
              static_cast<unsigned long long>(shard.recoveries()));
  std::printf("last recovery: checkpoint step %llu, durable step %llu, "
              "%llu tail records checked (%llu truncated)\n",
              static_cast<unsigned long long>(recovery.checkpoint_step),
              static_cast<unsigned long long>(recovery.durable_step),
              static_cast<unsigned long long>(recovery.wal_records_replayed),
              static_cast<unsigned long long>(recovery.wal_records_truncated));

  // The uninterrupted control: the same stack, same seeds, no kills.
  faults::FaultConfig no_kills;
  no_kills.seed = 11;
  faults::FaultyWswor reference(config, no_kills, faults::Backend::kEngine);
  reference.Run(workload);

  const std::vector<uint64_t> survived = shard.SampleIds();
  const std::vector<uint64_t> control = reference.SampleIds();
  const bool sample_equal = survived == control;
  const bool transcript_equal =
      shard.report().transcript_hash == reference.report().transcript_hash;
  std::printf("sample      : %zu ids, %s the uninterrupted run's\n",
              survived.size(), sample_equal ? "identical to" : "DIFFERS from");
  std::printf("transcript  : %s\n",
              transcript_equal ? "identical" : "DIVERGED");

  std::system(("rm -rf " + dir).c_str());
  if (shard.process_kills() == 0) {
    std::fprintf(stderr, "expected the seeded schedule to kill at least once\n");
    return 1;
  }
  return sample_equal && transcript_equal ? 0 : 1;
}
