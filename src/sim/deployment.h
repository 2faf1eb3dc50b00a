// The one deployment path. Every algorithm here runs as k site
// endpoints and a coordinator (one per shard when sharded), and every
// stack — simulator facade, engine harness, bench — builds them here.
// The rules the bit-identical sim <-> engine replay rests on live only
// in this header:
//
//   seeds    one master Rng(seed) draws the k site seeds in global site
//            order, then one seed per coordinator in shard order (the
//            unsharded deployment is S = 1);
//   order    sites are built and attached in global index order, then
//            the coordinators in shard order;
//   teardown a backend with threads (engine::Engine, ShardedEngine) is
//            shut down before any endpoint dies — declare the returned
//            endpoints after their backend.
//
// Deploy builds against sim::Runtime or engine::Engine, DeploySharded
// against sim::ShardedRuntime or engine::ShardedEngine.

#ifndef DWRS_SIM_DEPLOYMENT_H_
#define DWRS_SIM_DEPLOYMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "random/rng.h"
#include "sim/runtime.h"
#include "stream/workload.h"

namespace dwrs::sim {

struct DeploymentSeeds {
  std::vector<uint64_t> site;         // global site index order
  std::vector<uint64_t> coordinator;  // shard order
};

inline DeploymentSeeds DeriveDeploymentSeeds(uint64_t seed, int num_sites,
                                             int num_coordinators = 1) {
  DeploymentSeeds out;
  Rng master(seed);
  for (int i = 0; i < num_sites; ++i) out.site.push_back(master.NextU64());
  for (int j = 0; j < num_coordinators; ++j) {
    out.coordinator.push_back(master.NextU64());
  }
  return out;
}

// Shuts the backend down when destroyed if it has threads to join.
using ShutdownGuard = std::unique_ptr<void, void (*)(void*)>;

template <typename Backend>
ShutdownGuard GuardShutdown(Backend& backend) {
  if constexpr (requires { backend.Shutdown(); }) {
    return ShutdownGuard(
        &backend, [](void* b) { static_cast<Backend*>(b)->Shutdown(); });
  }
  return ShutdownGuard(nullptr, nullptr);
}

// The built endpoints, owned by the caller. The guard is the last
// member, so it runs before any endpoint is destroyed.
template <typename Site, typename Coordinator>
struct Deployment {
  std::vector<std::unique_ptr<Site>> sites;
  std::unique_ptr<Coordinator> coordinator;
  ShutdownGuard shutdown{nullptr, nullptr};
};

template <typename Site, typename Coordinator>
struct ShardedDeployment {
  std::vector<std::unique_ptr<Site>> sites;                // global order
  std::vector<std::unique_ptr<Coordinator>> coordinators;  // shard order
  ShutdownGuard shutdown{nullptr, nullptr};
};

// The endpoint type a factory returns a unique_ptr to.
template <typename Make, typename... Args>
using Made = typename std::invoke_result_t<const Make&, Args...>::element_type;

// make_site(index, transport, seed) and make_coordinator(transport, seed)
// return unique_ptrs to endpoints built against `transport`.
template <typename Backend, typename MakeSite, typename MakeCoordinator>
auto Deploy(Backend& backend, uint64_t seed, const MakeSite& make_site,
            const MakeCoordinator& make_coordinator) {
  Transport* transport = &backend.transport();
  const DeploymentSeeds seeds =
      DeriveDeploymentSeeds(seed, backend.num_sites());
  Deployment<Made<MakeSite, int, Transport*, uint64_t>,
             Made<MakeCoordinator, Transport*, uint64_t>>
      out;
  for (int i = 0; i < backend.num_sites(); ++i) {
    out.sites.push_back(
        make_site(i, transport, seeds.site[static_cast<size_t>(i)]));
    backend.AttachSite(i, out.sites.back().get());
  }
  out.coordinator = make_coordinator(transport, seeds.coordinator[0]);
  backend.AttachCoordinator(out.coordinator.get());
  out.shutdown = GuardShutdown(backend);
  return out;
}

// The same with the shard first: make_site(shard, local_index,
// transport, seed) and make_coordinator(shard, transport, seed), built
// against the shard's transport; sites attach under their global index.
template <typename Backend, typename MakeSite, typename MakeCoordinator>
auto DeploySharded(Backend& backend, uint64_t seed, const MakeSite& make_site,
                   const MakeCoordinator& make_coordinator) {
  const auto& topo = backend.topology();
  const DeploymentSeeds seeds =
      DeriveDeploymentSeeds(seed, topo.num_sites(), topo.num_shards());
  ShardedDeployment<Made<MakeSite, int, int, Transport*, uint64_t>,
                    Made<MakeCoordinator, int, Transport*, uint64_t>>
      out;
  for (int i = 0; i < topo.num_sites(); ++i) {
    const int shard = topo.ShardOf(i);
    out.sites.push_back(make_site(shard, topo.LocalOf(i),
                                  &backend.shard_transport(shard),
                                  seeds.site[static_cast<size_t>(i)]));
    backend.AttachSite(i, out.sites.back().get());
  }
  for (int shard = 0; shard < topo.num_shards(); ++shard) {
    out.coordinators.push_back(
        make_coordinator(shard, &backend.shard_transport(shard),
                         seeds.coordinator[static_cast<size_t>(shard)]));
    backend.AttachShardCoordinator(shard, out.coordinators.back().get());
  }
  out.shutdown = GuardShutdown(backend);
  return out;
}

// The base of every simulator facade (DistributedWswor, L1Tracker, ...):
// its protocol deployed on a sim::Runtime. A subclass adds only its
// constructor and its own queries.
template <typename Site, typename Coordinator>
class SimFacade {
 public:
  // Site `site` observes `item`; messages are exchanged per the protocol.
  void Observe(int site, const Item& item) {
    runtime_.Deliver(WorkloadEvent{site, item});
  }

  // Replays a whole workload through sim::Runtime::Run; `on_step`, if
  // set, is called after each event with the 1-based prefix length.
  void Run(const Workload& workload,
           const std::function<void(uint64_t)>& on_step = nullptr) {
    runtime_.Run(workload, on_step);
  }

  // Delivers any in-flight messages (only relevant with a delivery delay).
  void FlushNetwork() { runtime_.Flush(); }

  const MessageStats& stats() const { return runtime_.stats(); }
  const Coordinator& coordinator() const { return *endpoints_.coordinator; }

 protected:
  template <typename MakeSite, typename MakeCoordinator>
  SimFacade(int num_sites, uint64_t seed, const MakeSite& make_site,
            const MakeCoordinator& make_coordinator, int delivery_delay = 0,
            uint64_t jitter_seed = 0)
      : runtime_(num_sites, delivery_delay, jitter_seed),
        endpoints_(Deploy(runtime_, seed, make_site, make_coordinator)) {}

  Runtime runtime_;
  Deployment<Site, Coordinator> endpoints_;
};

}  // namespace dwrs::sim

#endif  // DWRS_SIM_DEPLOYMENT_H_
