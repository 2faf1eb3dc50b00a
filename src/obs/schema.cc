#include "obs/schema.h"

#include <atomic>

#include "engine/stats.h"
#include "faults/harness.h"
#include "query/query_service.h"
#include "sim/message.h"
#include "sim/node.h"

namespace dwrs::obs {

namespace {

std::string Join(const std::string& prefix, const char* leaf) {
  if (prefix.empty()) return leaf;
  return prefix + "/" + leaf;
}

}  // namespace

void AppendMessageStats(const sim::MessageStats& stats,
                        const std::string& prefix, Snapshot* out) {
  out->Append(Join(prefix, "messages"), stats.total_messages());
  out->Append(Join(prefix, "site_to_coord"), stats.site_to_coord);
  out->Append(Join(prefix, "coord_to_site"), stats.coord_to_site);
  out->Append(Join(prefix, "broadcast_events"), stats.broadcast_events);
  out->Append(Join(prefix, "words"), stats.words);
  for (size_t i = 0; i < stats.by_type.size(); ++i) {
    if (stats.by_type[i] == 0) continue;
    out->Append(Join(prefix, ("by_type/" + std::to_string(i)).c_str()),
                stats.by_type[i]);
  }
}

void AppendHotPathCounters(const sim::SiteHotPathCounters& counters,
                           const std::string& prefix, Snapshot* out) {
  out->Append(Join(prefix, "keys_decided"), counters.keys_decided);
  out->Append(Join(prefix, "key_bits_consumed"), counters.key_bits_consumed);
  out->Append(Join(prefix, "skips_taken"), counters.skips_taken);
}

void AppendEngineStats(const engine::EngineStats& stats,
                       const std::string& prefix, Snapshot* out) {
  const auto get = [](const std::atomic<uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  AppendMessageStats(stats.MessageSnapshot(), prefix, out);
  out->Append(Join(prefix, "items_ingested"), get(stats.items_ingested));
  out->Append(Join(prefix, "batches_ingested"), get(stats.batches_ingested));
  out->Append(Join(prefix, "ingest_stalls"), get(stats.ingest_stalls));
  out->Append(Join(prefix, "upstream_stalls"), get(stats.upstream_stalls));
  out->Append(Join(prefix, "quiesces"), get(stats.quiesces));
  out->Append(Join(prefix, "batches_recycled"), get(stats.batches_recycled));
  out->Append(Join(prefix, "batch_pool_misses"), get(stats.batch_pool_misses));
  out->Append(Join(prefix, "sites_scheduled"), get(stats.sites_scheduled));
  out->Append(Join(prefix, "flush_dispatches"), get(stats.flush_dispatches));
  out->Append(Join(prefix, "steals"), get(stats.steals));
  out->Append(Join(prefix, "worker_parks"), get(stats.worker_parks));
  out->Append(Join(prefix, "batches_dropped_on_shutdown"),
              get(stats.batches_dropped_on_shutdown));
  out->Append(Join(prefix, "snapshot_publishes"),
              get(stats.snapshot_publishes));
  sim::SiteHotPathCounters hot;
  hot.keys_decided = get(stats.keys_decided);
  hot.key_bits_consumed = get(stats.key_bits_consumed);
  hot.skips_taken = get(stats.skips_taken);
  AppendHotPathCounters(hot, prefix, out);
}

void AppendQueryServiceStats(const query::QueryServiceStats& stats,
                             const std::string& prefix, Snapshot* out) {
  out->Append(Join(prefix, "cache_hits"), stats.cache_hits);
  out->Append(Join(prefix, "cache_misses"), stats.cache_misses);
  out->Append(Join(prefix, "cache_invalidations"), stats.cache_invalidations);
  out->Append(Join(prefix, "snapshot_copies_avoided"),
              stats.snapshot_copies_avoided);
  out->Append(Join(prefix, "slo_waits"), stats.slo_waits);
  out->Append(Join(prefix, "slo_timeouts"), stats.slo_timeouts);
}

void AppendFaultReport(const faults::RunReport& report,
                       const std::string& prefix, Snapshot* out) {
  out->Append(Join(prefix, "transcript_hash"), report.transcript_hash);
  for (const faults::RunReportCounter& counter : faults::kRunReportCounters) {
    out->Append(Join(prefix, counter.name), report.*counter.field);
  }
  out->Append(Join(prefix, "recovery_consistent"),
              static_cast<uint64_t>(report.recovery_consistent ? 1 : 0));
  out->Append(Join(prefix, "clean"),
              static_cast<uint64_t>(report.clean ? 1 : 0));
}

}  // namespace dwrs::obs
