// Workload `ingest`: the paper's steady state. engine::Engine with k = 8
// sites on 2 pool workers, library-default batch and queue settings,
// weighted SWOR with s = 32, one feeder calling Engine::Run on repeated
// 4M-item passes. Feeder hand-off, scheduler and the site hot path do
// nearly all the work; the query, faults and durability layers do none
// while items flow. Between passes the readers query the quiesced
// coordinator (QuiescedReads): the uncontended control for live_query's
// read path, which runs the same calls beside ingestion.

#include <memory>
#include <vector>

#include "checks.h"
#include "common.h"
#include "core/coordinator.h"
#include "core/sampler.h"
#include "core/site.h"
#include "engine/engine.h"
#include "random/rng.h"

namespace perfbench {

namespace {

constexpr uint64_t kPassItems = 4'000'000;
constexpr int kSampleSize = 32;
constexpr int kWorkers = 2;

dwrs::WsworConfig ProtocolConfig(uint64_t seed) {
  return {.num_sites = kSites, .sample_size = kSampleSize, .seed = seed};
}

// Engine + endpoints; with a tracer the engine sees decorators that wrap
// the endpoints and the transport they send through.
class IngestStack {
 public:
  IngestStack(uint64_t seed, Tracer* tracer) {
    engine_ = std::make_unique<dwrs::engine::Engine>(dwrs::engine::EngineConfig{
        .num_sites = kSites, .num_workers = kWorkers});
    dwrs::sim::Transport* transport = &engine_->transport();
    if (tracer != nullptr) {
      traced_transport_ = std::make_unique<TracedTransport>(transport, tracer);
      transport = traced_transport_.get();
    }
    const dwrs::WsworConfig config = ProtocolConfig(seed);
    dwrs::Rng master(config.seed);
    for (int i = 0; i < kSites; ++i) {
      sites_.push_back(std::make_unique<dwrs::WsworSite>(config, i, transport,
                                                         master.NextU64()));
      dwrs::sim::SiteNode* node = sites_.back().get();
      if (tracer != nullptr) {
        traced_sites_.push_back(std::make_unique<TracedSite>(node, tracer));
        node = traced_sites_.back().get();
      }
      engine_->AttachSite(i, node);
    }
    coordinator_ = std::make_unique<dwrs::WsworCoordinator>(config, transport,
                                                            master.NextU64());
    dwrs::sim::CoordinatorNode* node = coordinator_.get();
    if (tracer != nullptr) {
      traced_coordinator_ = std::make_unique<TracedCoordinator>(node, tracer);
      node = traced_coordinator_.get();
    }
    engine_->AttachCoordinator(node);
  }
  // Workers join before any endpoint or decorator dies.
  ~IngestStack() { engine_->Shutdown(); }
  IngestStack(const IngestStack&) = delete;
  IngestStack& operator=(const IngestStack&) = delete;

  dwrs::engine::Engine& engine() { return *engine_; }
  const dwrs::WsworCoordinator& coordinator() const { return *coordinator_; }

 private:
  std::unique_ptr<dwrs::engine::Engine> engine_;
  std::unique_ptr<TracedTransport> traced_transport_;
  std::vector<std::unique_ptr<dwrs::WsworSite>> sites_;
  std::vector<std::unique_ptr<TracedSite>> traced_sites_;
  std::unique_ptr<dwrs::WsworCoordinator> coordinator_;
  std::unique_ptr<TracedCoordinator> traced_coordinator_;
};

// One measurement of the workload: kSetups stack builds (each through a
// warm-up pass), then timed passes on the last stack for `seconds`, each
// followed by a quiesced read burst of kReadShare of its length.
RunResult Measure(const RunOptions& options, PassInput& input,
                  bool traced) {
  RunResult out;
  input.SetPass(0);
  Tracer read_tracer;
  QuiescedReads reads;
  Readers readers(traced ? &read_tracer : nullptr);
  HeapGrowth heap;  // baseline: inputs and reader buffers in place

  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<IngestStack> stack;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetups; ++r) {
    stack.reset();  // before its tracer
    if (traced) tracer = std::make_unique<Tracer>();
    const double start = WallSeconds();
    stack = std::make_unique<IngestStack>(options.seed, tracer.get());
    FeedPass(stack->engine(), input.workload(), tracer.get());
    setup_s.push_back(WallSeconds() - start);
    out.checks.Record(CheckFedSample(stack->coordinator().Sample(),
                                     kSampleSize, input.events(), 0));
  }
  dwrs::engine::Engine& eng = stack->engine();
  const uint64_t warmup_msgs = eng.stats().total_messages();

  const EngineCounters before =
      ReadEngineCounters({&eng.stats()}, tracer.get());
  std::vector<PassTiming> passes;
  double timed = 0.0;
  while (timed < options.seconds) {
    const uint64_t pass = input.pass() + 1;
    input.SetPass(pass);
    passes.push_back(FeedPass(eng, input.workload(), tracer.get()));
    timed += passes.back().wall_s;
    heap.Sample();
    out.checks.Record(CheckFedSample(stack->coordinator().Sample(),
                                     kSampleSize, input.events(), pass));
    out.checks.Record(CheckItemAccounting(
        eng.stats().items_ingested.load(), (pass + 1) * input.size(),
        eng.stats().batches_dropped_on_shutdown.load()));
    reads.Burst(stack->coordinator(), kReadShare * passes.back().wall_s,
                &readers);
  }
  const EngineCounters after = ReadEngineCounters({&eng.stats()}, tracer.get());
  out.checks.Absorb(readers.checks());

  out.Fact("passes", std::to_string(passes.size()));
  out.Fact("pass_items", std::to_string(input.size()));
  out.Fact("threads", "feeder 1, pool workers " +
                          std::to_string(eng.num_workers()) +
                          ", coordinator 1; readers 2, only between passes");
  AddThroughputMetrics(passes, &out);
  AddReadMetrics(readers, &out);
  out.Add("peak_heap_mb", heap.peak_mb(), "MB");
  AddSetupMetric(setup_s, &out);
  if (!traced) return out;

  // Per-layer rollups (names and predictions: README.md).
  AddEngineLayerMetrics(before, after, passes, eng.num_workers(), warmup_msgs,
                        *tracer, &out);
  AddReaderLayerMetrics(reads.stats(), readers.cpu_frac(), read_tracer, &out);
  dwrs::DistributedWswor reference(ProtocolConfig(options.seed));
  input.SetPass(0);
  reference.Run(input.workload());
  out.Add("engine.msg_inflation",
          static_cast<double>(warmup_msgs) /
              static_cast<double>(reference.stats().total_messages()),
          "ratio");
  const std::string spans = options.work_dir + "/spans-ingest.csv";
  out.checks.Expect(tracer->Write(spans), "span trace written");
  out.Fact("spans", spans);
  return out;
}

}  // namespace

RunResult RunIngest(const RunOptions& options) {
  PassInput input(kPassItems, options.seed);
  const auto measure = [&input](const RunOptions& o, bool traced) {
    return Measure(o, input, traced);
  };
  return options.traced ? TracedRun(options, measure)
                        : measure(options, false);
}

}  // namespace perfbench
