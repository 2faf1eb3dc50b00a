// THE naming schema: every counter struct in the tree exports to an
// obs::Snapshot through exactly one function here, so field names can
// never drift between layers again (sim::MessageStats::ToString,
// engine::EngineStats::ToString, bench JSON rows, dwrs_cli stats and
// the registry all emit from these).
//
// Naming convention: bare canonical leaf names (matching the struct
// fields), hierarchical '/' prefixes supplied by the caller when two
// layers meet in one snapshot ("engine", "faults", "query"). A uint64
// counter stays uint64 end to end — the snapshot is bit-exact against
// the struct it was built from, which is what the registry-vs-legacy
// equality test pins.

#ifndef DWRS_OBS_SCHEMA_H_
#define DWRS_OBS_SCHEMA_H_

#include <string>

#include "obs/metrics.h"

namespace dwrs::sim {
struct MessageStats;
struct SiteHotPathCounters;
}  // namespace dwrs::sim

namespace dwrs::engine {
struct EngineStats;
}  // namespace dwrs::engine

namespace dwrs::faults {
struct RunReport;
}  // namespace dwrs::faults

namespace dwrs::query {
struct QueryServiceStats;
}  // namespace dwrs::query

namespace dwrs::obs {

// messages, site_to_coord, coord_to_site, broadcast_events, words, plus
// by_type/<i> for nonzero slots.
void AppendMessageStats(const sim::MessageStats& stats,
                        const std::string& prefix, Snapshot* out);

// keys_decided, key_bits_consumed, skips_taken.
void AppendHotPathCounters(const sim::SiteHotPathCounters& counters,
                           const std::string& prefix, Snapshot* out);

// The message fields above, then items_ingested, batches_ingested,
// ingest_stalls, upstream_stalls, quiesces, batches_recycled,
// batch_pool_misses, sites_scheduled, flush_dispatches, steals,
// worker_parks, batches_dropped_on_shutdown, snapshot_publishes, the
// hot-path counters and wasted_messages. Quiesce points only (relaxed
// reads, like EngineStats itself).
void AppendEngineStats(const engine::EngineStats& stats,
                       const std::string& prefix, Snapshot* out);

// cache_hits, cache_misses, cache_invalidations,
// snapshot_copies_avoided, slo_waits, slo_timeouts (the merge-cache /
// freshness-SLO counters of query::QueryService).
void AppendQueryServiceStats(const query::QueryServiceStats& stats,
                             const std::string& prefix, Snapshot* out);

// Every RunReport field (transcript_hash, delivered, crashes, session
// and fault-transport counters, clean as 0/1).
void AppendFaultReport(const faults::RunReport& report,
                       const std::string& prefix, Snapshot* out);

}  // namespace dwrs::obs

#endif  // DWRS_OBS_SCHEMA_H_
