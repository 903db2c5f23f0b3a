//! Experiment-facing statistics extraction.

use crate::client::ClientCounters;
use crate::system::System;
use sdr_sim::Summary;
use serde::json::{ToJson, Value};
use std::collections::{HashMap, HashSet};

/// Aggregated statistics for one run.
#[derive(Clone, Debug, serde::ToJson, serde::FromJson)]
pub struct SystemStats {
    /// Reads issued by clients.
    pub reads_issued: u64,
    /// Reads fully verified and accepted.
    pub reads_accepted: u64,
    /// Reads that exhausted retries.
    pub reads_failed: u64,
    /// Responses rejected for staleness.
    pub rejected_stale: u64,
    /// Responses rejected for hash mismatch (inconsistent liars).
    pub rejected_hash: u64,
    /// Read retries.
    pub read_retries: u64,
    /// Reads served by the trusted masters (sensitive variant).
    pub reads_sensitive: u64,
    /// Static reads issued on the authenticated proof path.
    pub proof_reads_issued: u64,
    /// Proof-verified reads accepted (deterministically, no auditor).
    pub proof_reads_accepted: u64,
    /// Proof-read replies rejected by client-side verification for any
    /// reason — bad proof, stale or forged digest stamp, unknown sender
    /// (lying or stale slaves caught immediately).
    pub proof_reads_rejected: u64,
    /// Proof reads that fell back to the pledged pipeline.
    pub proof_fallbacks: u64,
    /// Proof requests a slave refused because the query shape has no
    /// Merkle path (non-point queries routed to the proof path).
    pub proof_unsupported: u64,
    /// Rejected proof replies retried on another replica of the same
    /// shard while still on the proof path (proof-path hardening; these
    /// happen *before* any pledged fallback).
    pub proof_retries: u64,
    /// Proof size on the wire, bytes (per accepted proof read).
    pub proof_bytes: Summary,
    /// Proof path depth (hash work per verification).
    pub proof_depth: Summary,
    /// Latency of proof-verified reads (µs).
    pub proof_latency: Summary,
    /// Lies slaves told (ground truth).
    pub lies_told: u64,
    /// Accepted reads whose result was a lie (oracle join).
    pub wrong_accepted: u64,
    /// Double-checks sent by clients.
    pub dc_sent: u64,
    /// Double-check mismatches (immediate discoveries at the master).
    pub dc_mismatch: u64,
    /// Double-checks throttled by greedy enforcement.
    pub dc_throttled: u64,
    /// Immediate discoveries (Section 3.5).
    pub discovery_immediate: u64,
    /// Delayed discoveries via the audit (Section 3.5).
    pub discovery_delayed: u64,
    /// Slaves excluded.
    pub exclusions: u64,
    /// Client reassignments after exclusions.
    pub reassignments: u64,
    /// Pledges submitted to the auditor.
    pub audit_submitted: u64,
    /// Pledges actually checked.
    pub audit_checked: u64,
    /// Auditor cache hits.
    pub audit_cache_hits: u64,
    /// Audit mismatches found.
    pub audit_mismatch: u64,
    /// Pledges skipped by sampled auditing.
    pub audit_skipped: u64,
    /// Writes committed.
    pub writes_committed: u64,
    /// Writes denied by ACL.
    pub writes_denied: u64,
    /// Client writes committed per sequencer round (batch-size
    /// distribution; every observation is `1` at `max_write_batch = 1`).
    pub writes_per_round: Summary,
    /// Read latency summary (µs).
    pub read_latency: Summary,
    /// Write commit latency summary (µs).
    pub write_latency: Summary,
    /// Audit lag summary (µs).
    pub audit_lag: Summary,
    /// Final auditor backlog.
    pub audit_backlog: u64,
    /// Snapshot-ring nodes owned exclusively by one retained snapshot,
    /// summed over all masters (the ring's true retention cost).
    pub snapshot_nodes_owned: u64,
    /// Snapshot-ring nodes shared with other handles, summed over all
    /// masters (structural reuse across versions).
    pub snapshot_nodes_shared: u64,
    /// Per-master CPU utilisation (0..=1), by global shard-major index.
    pub master_utilisation: Vec<f64>,
    /// Per-slave CPU utilisation (0..=1), by global shard-major index.
    pub slave_utilisation: Vec<f64>,
    /// Per-client counters, by index.
    pub per_client: Vec<ClientCounters>,
    /// Writes committed per shard (counted once per commit, at the
    /// admitting sequencer of the owning subgroup).
    pub writes_committed_per_shard: Vec<u64>,
    /// Directory lookups per shard (the routing-table load split).
    pub dir_lookups_per_shard: Vec<u64>,
    /// Unique chunks in the content store (one master per shard, summed).
    pub chunks_stored: u64,
    /// Chunk writes that hit an existing chunk (dedup hits).
    pub chunks_deduped: u64,
    /// Logical file bytes (what the files claim to hold).
    pub chunk_logical_bytes: u64,
    /// Physical chunk bytes actually stored (after dedup).
    pub chunk_physical_bytes: u64,
    /// Streamed `ReadFileRange` requests issued on the proof path.
    pub stream_reads_issued: u64,
    /// Streams fully verified chunk-by-chunk and accepted.
    pub stream_reads_accepted: u64,
    /// Individual chunks verified across all streams.
    pub stream_chunks_verified: u64,
    /// Streams rejected at a corrupted chunk.
    pub stream_chunk_rejects: u64,
    /// Range-proof size on the wire, bytes (per verified `ScanRange`
    /// reply — one proof covers every row in the page).
    pub range_proof_bytes: Summary,
    /// Rows delivered under a verified range proof, summed over all
    /// accepted `ScanRange` replies.
    pub range_rows_verified: u64,
    /// `ScanRange` reads scattered across shard boundaries (the parent
    /// counts once; per-shard sub-scans are bookkeeping).
    pub range_scans_scattered: u64,
    /// Scattered scans whose verified per-shard pieces failed the
    /// stitch check (gap, overlap, or short coverage) and were refused.
    pub range_stitch_rejects: u64,
    /// Client churn rejoins completed (each redoes the setup phase).
    pub churn_joins: u64,
    /// Client churn departures.
    pub churn_leaves: u64,
    /// Simulator events processed over the run.
    pub sim_events: u64,
    /// High-water mark of live events in the scheduler.
    pub sim_queue_peak: u64,
    /// Live events still queued at collection time.
    pub sim_queue_live: u64,
    /// Event-slab slots allocated (scheduler resident-set proxy).
    pub sim_queue_slots: u64,
    /// Cancelled timers discarded lazily by the scheduler.
    pub sim_timers_cancelled: u64,
    /// Wire bytes summed over every enqueued delivery — what the queue
    /// would hold if each fan-out delivery carried its own copy.
    pub sim_msg_bytes_logical: u64,
    /// Wire bytes of unique payload allocations enqueued; a multicast
    /// counts once here, so `logical / resident` is the sharing ratio.
    pub sim_msg_bytes_resident: u64,
    /// Slave proof-cache hits: proof reads answered from a memoized
    /// reply (point proofs and stream headers alike).
    pub proof_cache_hits: u64,
    /// Slave proof-cache misses (the reply was built and cached).
    pub proof_cache_misses: u64,
    /// Entries evicted from slave proof caches by the LRU byte budget.
    pub proof_cache_evictions: u64,
    /// Wholesale slave proof-cache invalidations (new anchor stamp or
    /// an applied write wiped a non-empty cache).
    pub proof_cache_invalidations: u64,
    /// Bytes resident in slave proof caches at collection time, summed
    /// over every slave.
    pub proof_cache_bytes: u64,
    /// Client stamp-verification cache hits (anchor signature skipped).
    pub stamp_cache_hits: u64,
    /// Client stamp-verification cache misses (full signature check).
    pub stamp_cache_misses: u64,
    /// Client verified-certificate cache hits.
    pub cert_cache_hits: u64,
    /// Client verified-certificate cache misses.
    pub cert_cache_misses: u64,
}

impl SystemStats {
    /// Collects statistics from a (finished or running) system.
    pub fn collect(sys: &mut System) -> Self {
        // Oracle join: which accepted result hashes were lies?  The set is
        // for the join; the *count* of lie events comes from the metric
        // (identical lies to repeated queries hash identically).
        let mut lie_sets: HashMap<usize, HashSet<Vec<u8>>> = HashMap::new();
        for i in 0..sys.slaves.len() {
            let lies = sys.with_slave(i, |s| s.lies_told().clone());
            lie_sets.insert(i, lies);
        }
        let lies_told = sys.world.metrics().counter("slave.lies");
        let slave_index: HashMap<_, _> = sys
            .slaves
            .iter()
            .enumerate()
            .map(|(i, n)| (*n, i))
            .collect();

        let mut wrong_accepted = 0u64;
        let mut per_client = Vec::with_capacity(sys.clients.len());
        for i in 0..sys.clients.len() {
            let (acc, counters) =
                sys.with_client(i, |c| (c.acceptances().to_vec(), c.counters()));
            for (slave, hash) in acc {
                if let Some(idx) = slave_index.get(&slave) {
                    if lie_sets.get(idx).is_some_and(|l| l.contains(&hash)) {
                        wrong_accepted += 1;
                    }
                }
            }
            per_client.push(counters);
        }

        // Snapshot-ring memory telemetry: retention cost vs churn.
        let mut snapshot_nodes = sdr_store::NodeStats::default();
        for rank in 0..sys.masters.len() {
            snapshot_nodes.merge(sys.with_master(rank, |m| m.snapshot_node_stats()));
        }

        // Chunk-store telemetry: one master per shard (masters of the
        // same subgroup hold identical replicas; summing them all would
        // just multiply by the replication factor), summed across
        // shards.
        let masters_per_shard = (sys.masters.len() / sys.config.n_shards.max(1)).max(1);
        let mut chunk_stats = sdr_store::ChunkStats::default();
        for rank in (0..sys.masters.len()).step_by(masters_per_shard) {
            let cs = sys.with_master(rank, |m| m.chunk_stats());
            chunk_stats.chunks_stored += cs.chunks_stored;
            chunk_stats.chunks_deduped += cs.chunks_deduped;
            chunk_stats.logical_bytes += cs.logical_bytes;
            chunk_stats.physical_bytes += cs.physical_bytes;
        }

        // Slave proof-cache residency: per-slave state, summed over the
        // whole replica population.
        let mut proof_cache_bytes = 0u64;
        for i in 0..sys.slaves.len() {
            proof_cache_bytes += sys.with_slave(i, |s| s.cache_bytes());
        }

        let master_utilisation: Vec<f64> = sys
            .masters
            .clone()
            .into_iter()
            .map(|n| sys.world.utilisation(n))
            .collect();
        let slave_utilisation: Vec<f64> = sys
            .slaves
            .clone()
            .into_iter()
            .map(|n| sys.world.utilisation(n))
            .collect();

        // One elected auditor per shard: the final backlog is their sum.
        let audit_backlog = (0..sys.masters.len())
            .filter_map(|rank| {
                sys.with_master(rank, |m| {
                    m.is_auditor().then(|| m.auditor_state().backlog())
                })
            })
            .sum();

        let n_shards = sys.config.n_shards;
        let queue_depth = sys.world.queue_depth();
        let sim_events = sys.world.events_processed();
        let sim_msg_bytes_logical = sys.world.msg_bytes_logical();
        let sim_msg_bytes_resident = sys.world.msg_bytes_resident();
        let m = sys.world.metrics_mut();
        let writes_committed_per_shard: Vec<u64> = (0..n_shards)
            .map(|k| m.counter(&format!("write.committed.shard{k}")))
            .collect();
        let dir_lookups_per_shard: Vec<u64> = (0..n_shards)
            .map(|k| m.counter(&format!("directory.lookups.shard{k}")))
            .collect();
        SystemStats {
            reads_issued: m.counter("read.issued"),
            reads_accepted: m.counter("read.accepted"),
            reads_failed: m.counter("read.failed"),
            rejected_stale: m.counter("read.rejected.stale"),
            rejected_hash: m.counter("read.rejected.hash"),
            read_retries: m.counter("read.retry"),
            reads_sensitive: m.counter("read.sensitive"),
            proof_reads_issued: m.counter("read.proof_issued"),
            proof_reads_accepted: m.counter("read.proof_accepted"),
            proof_reads_rejected: m.counter("read.proof_rejected"),
            proof_fallbacks: m.counter("read.proof_fallback"),
            proof_unsupported: m.counter("slave.proof_unsupported"),
            proof_retries: m.counter("read.proof_retry"),
            proof_bytes: m.summary("proof.bytes"),
            proof_depth: m.summary("proof.depth"),
            proof_latency: m.summary("read.proof_latency_us"),
            lies_told,
            wrong_accepted,
            dc_sent: m.counter("dc.sent"),
            dc_mismatch: m.counter("dc.mismatch"),
            dc_throttled: m.counter("dc.throttled"),
            discovery_immediate: m.counter("discovery.immediate"),
            discovery_delayed: m.counter("discovery.delayed"),
            exclusions: m.counter("exclusion.count"),
            reassignments: m.counter("reassign.count"),
            audit_submitted: m.counter("audit.submitted"),
            audit_checked: m.counter("audit.checked"),
            audit_cache_hits: m.counter("audit.cache_hit"),
            audit_mismatch: m.counter("audit.mismatch"),
            audit_skipped: m.counter("audit.skipped_sampling"),
            writes_committed: m.counter("write.committed"),
            writes_denied: m.counter("write.denied"),
            writes_per_round: m.summary("write.batch_size"),
            read_latency: m.summary("read.latency_us"),
            write_latency: m.summary("write.latency_us"),
            audit_lag: m.summary("audit.lag_hist_us"),
            audit_backlog,
            snapshot_nodes_owned: snapshot_nodes.owned as u64,
            snapshot_nodes_shared: snapshot_nodes.shared as u64,
            master_utilisation,
            slave_utilisation,
            per_client,
            writes_committed_per_shard,
            dir_lookups_per_shard,
            chunks_stored: chunk_stats.chunks_stored,
            chunks_deduped: chunk_stats.chunks_deduped,
            chunk_logical_bytes: chunk_stats.logical_bytes,
            chunk_physical_bytes: chunk_stats.physical_bytes,
            stream_reads_issued: m.counter("read.stream_issued"),
            stream_reads_accepted: m.counter("read.stream_accepted"),
            stream_chunks_verified: m.counter("read.stream_chunks_verified"),
            stream_chunk_rejects: m.counter("read.stream_chunk_rejected"),
            range_proof_bytes: m.summary("range.proof_bytes"),
            range_rows_verified: m.counter("range.rows_verified"),
            range_scans_scattered: m.counter("read.range_scattered"),
            range_stitch_rejects: m.counter("read.range_stitch_rejected"),
            churn_joins: m.counter("client.churn_join"),
            churn_leaves: m.counter("client.churn_leave"),
            sim_events,
            sim_queue_peak: queue_depth.peak as u64,
            sim_queue_live: queue_depth.live as u64,
            sim_queue_slots: queue_depth.slots as u64,
            sim_timers_cancelled: queue_depth.drained_cancelled,
            sim_msg_bytes_logical,
            sim_msg_bytes_resident,
            proof_cache_hits: m.counter("slave.proof_cache_hit"),
            proof_cache_misses: m.counter("slave.proof_cache_miss"),
            proof_cache_evictions: m.counter("slave.proof_cache_evict"),
            proof_cache_invalidations: m.counter("slave.proof_cache_invalidate"),
            proof_cache_bytes,
            stamp_cache_hits: m.counter("client.stamp_cache_hit"),
            stamp_cache_misses: m.counter("client.stamp_cache_miss"),
            cert_cache_hits: m.counter("client.cert_cache_hit"),
            cert_cache_misses: m.counter("client.cert_cache_miss"),
        }
    }

    /// Fraction of accepted reads that were wrong (the headline
    /// correctness metric).
    pub fn wrong_accept_rate(&self) -> f64 {
        if self.reads_accepted == 0 {
            0.0
        } else {
            self.wrong_accepted as f64 / self.reads_accepted as f64
        }
    }

    /// Mean utilisation of the serving masters: every master but the
    /// last, which is the auditor.
    pub fn serving_master_utilisation(&self) -> f64 {
        let serving = &self.master_utilisation[..self.master_utilisation.len() - 1];
        serving.iter().sum::<f64>() / serving.len() as f64
    }

    /// Total misbehaviour discoveries.
    pub fn discoveries(&self) -> u64 {
        self.discovery_immediate + self.discovery_delayed
    }

    /// How many queued deliveries each unique payload allocation served
    /// on average (`logical / resident` bytes; 1.0 means no sharing,
    /// higher means multicast fan-out amortised its payloads).
    pub fn msg_sharing_ratio(&self) -> f64 {
        if self.sim_msg_bytes_resident == 0 {
            1.0
        } else {
            self.sim_msg_bytes_logical as f64 / self.sim_msg_bytes_resident as f64
        }
    }

    /// Fraction of proof reads the slaves answered from their reply
    /// caches (hits over hits+misses; 0 when no proof read probed one).
    pub fn proof_cache_hit_rate(&self) -> f64 {
        let total = self.proof_cache_hits + self.proof_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.proof_cache_hits as f64 / total as f64
        }
    }

    /// Fraction of anchor-signature checks the clients answered from
    /// their stamp-verification caches.
    pub fn stamp_cache_hit_rate(&self) -> f64 {
        let total = self.stamp_cache_hits + self.stamp_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.stamp_cache_hits as f64 / total as f64
        }
    }

    /// Fraction of logical bytes the chunk store saved through dedup
    /// (`1 - physical/logical`; 0 when nothing was written).
    pub fn chunk_dedup_ratio(&self) -> f64 {
        if self.chunk_logical_bytes == 0 {
            0.0
        } else {
            1.0 - self.chunk_physical_bytes as f64 / self.chunk_logical_bytes as f64
        }
    }

    /// Every numeric statistic as `(name, value)`, read off this
    /// struct's own JSON: each number field in struct order as `field`,
    /// each number member of an object field (a [`Summary`]) as
    /// `field_member`, arrays skipped; then the derived rows below.
    /// The scenario runner's per-cell mean/min/max aggregation runs over
    /// this, so a field added to the struct and to [`collect`](Self::collect)
    /// is reportable everywhere.
    pub fn numeric_fields(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        if let Value::Object(fields) = self.to_json() {
            for (name, value) in fields.iter() {
                match value {
                    Value::Object(members) => out.extend(
                        members
                            .iter()
                            .filter_map(|(m, v)| Some((format!("{name}_{m}"), v.as_f64()?))),
                    ),
                    v => out.extend(v.as_f64().map(|x| (name.to_string(), x))),
                }
            }
        }
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        let derived = [
            ("wrong_accept_rate", self.wrong_accept_rate()),
            ("master_util_mean", mean(&self.master_utilisation)),
            ("slave_util_mean", mean(&self.slave_utilisation)),
            ("chunk_dedup_ratio", self.chunk_dedup_ratio()),
            // Legacy bare name for the range-proof size mean.
            ("range_proof_bytes", self.range_proof_bytes.mean),
            ("msg_sharing_ratio", self.msg_sharing_ratio()),
            ("proof_cache_hit_rate", self.proof_cache_hit_rate()),
            ("stamp_cache_hit_rate", self.stamp_cache_hit_rate()),
        ];
        out.extend(derived.map(|(name, v)| (name.to_string(), v)));
        out
    }

    /// Compact human-readable summary (used by examples and test
    /// messages): every non-zero [`numeric_fields`](Self::numeric_fields)
    /// row as `name=value`, six to a line.
    pub fn render(&self) -> String {
        let items: Vec<String> = self
            .numeric_fields()
            .into_iter()
            .filter(|&(_, v)| v != 0.0)
            .map(|(name, v)| format!("{name}={v}"))
            .collect();
        items
            .chunks(6)
            .map(|line| line.join(" "))
            .collect::<Vec<_>>()
            .join("\n")
    }
}
