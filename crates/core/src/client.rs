//! Clients: issue reads/writes, verify everything, sample double-checks.
//!
//! Reads are verified by one of two strategies, selected per query by
//! [`crate::verify::strategy_for`]:
//!
//! * **Pledged** (computed queries) — Section 3.2 verbatim: compute the
//!   result hash and compare with the pledge, verify the slave's
//!   signature, verify the master stamp, and check the stamp is no older
//!   than `max_latency` (possibly the client's *own* bound — the paper's
//!   slow-client accommodation).  Accepted results are either
//!   double-checked with the master (probability `p`) or their pledge is
//!   forwarded to the auditor — acceptance happens only after the pledge
//!   is on its way, as Section 3.4 requires.
//! * **Proof-verified** (static `GetRow`/`ReadFile` lookups, `ScanRange`
//!   scans and streamed `ReadFileRange`s) — the slave answers with a
//!   Merkle proof against a master-signed state digest; the client
//!   verifies it locally and accepts *finally*: no pledge, no
//!   double-check, no auditor traffic.  A failed proof (a
//!   lying or corrupt slave) first retries one *other* replica of the
//!   same shard on the proof path; only a second failure falls the read
//!   back to the pledged pipeline.
//!
//! With the content space sharded, the client is the router: every
//! query and write batch is mapped to its owning shard by the
//! [`ShardMap`], and the whole pipeline for that request — slaves,
//! master, auditor, verification keys — is the owning shard's.  Each
//! shard independently carries the paper's trust argument; a Byzantine
//! replica in one shard never appears on another shard's read path.
//!
//! The Section 4 variants live here too: security-sensitive reads go
//! straight to the owning shard's trusted master, and `read_quorum > 1`
//! sends the same query to several of that shard's slaves,
//! auto-double-checking on any disagreement.

use crate::config::SystemConfig;
use crate::messages::{CheckVerdict, Msg, RefuseReason, StateDigestStamp, WriteOutcome};
use crate::pledge::Pledge;
use crate::shard::ShardMap;
use crate::verify::{self, ProvenAnswer, ReadStrategy, RejectReason, VerifyEnv};
use crate::workload::Workload;
use rand::Rng;
use sdr_crypto::{CertRole, Certificate, Digest as _, PublicKey, Sha256};
use sdr_sim::{Ctx, NodeId, Process, SimDuration, SimTime};
use sdr_store::{LruByteCache, ProofError, Query, QueryResult, StateProof, StreamProof, UpdateOp};
use std::collections::{HashMap, HashSet, VecDeque};

const K_BOOT: u64 = 1;
const K_NEXT_READ: u64 = 2;
const K_NEXT_WRITE: u64 = 3;
const K_READ_TIMEOUT: u64 = 4;
const K_WRITE_TIMEOUT: u64 = 5;
const K_SETUP_TIMEOUT: u64 = 6;
const K_CHURN: u64 = 7;

fn tag(kind: u64, req: u64) -> u64 {
    (kind << 40) | req
}
fn tag_kind(t: u64) -> u64 {
    t >> 40
}
fn tag_req(t: u64) -> u64 {
    t & ((1 << 40) - 1)
}

/// Setup/operation phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Boot,
    AwaitDir,
    AwaitSetup,
    Ready,
    /// Churned away: no reads, no writes, all inbound traffic dropped.
    /// The next churn flip reboots through the full setup phase.
    Offline,
}

/// The client's view of one shard: its masters, the chosen setup master,
/// the assigned slaves, and the shard's auditor.
#[derive(Clone, Debug, Default)]
struct ShardView {
    masters: Vec<(NodeId, PublicKey)>,
    master: Option<(NodeId, PublicKey)>,
    slaves: Vec<(NodeId, PublicKey)>,
    /// Spare replicas of the shard: outside the read quorum, targeted
    /// only by proof-path retries.
    spares: Vec<(NodeId, PublicKey)>,
    auditor: NodeId,
}

impl ShardView {
    /// The verification environment for this shard's pipeline at `now`:
    /// only the shard's own masters and slaves are trusted verification
    /// keys, so stamps and pledges from another shard's subgroup never
    /// verify here.
    fn env(&self, now: SimTime, max_latency: SimDuration) -> VerifyEnv<'_> {
        VerifyEnv {
            masters: &self.masters,
            slaves: &self.slaves,
            spares: &self.spares,
            now,
            max_latency,
        }
    }
}

struct PendingRead {
    query: Query,
    /// Owning shard (routing key of the whole pipeline).
    shard: usize,
    sensitive: bool,
    /// Which verification pipeline this read runs; flips from `Proof` to
    /// `Pledged` when the proof attempts are exhausted (fallback).
    strategy: ReadStrategy,
    /// Whether the one extra same-shard proof-path replica retry has
    /// been spent (proof-path hardening).
    proof_retried: bool,
    attempts: u32,
    issued_at: SimTime,
    awaiting: HashSet<NodeId>,
    responses: Vec<(NodeId, QueryResult, Pledge)>,
    mismatch_check_sent: bool,
    /// In-flight chunk stream (`ReadFileRange` on the proof path): the
    /// verified header plus per-chunk progress.  The client never holds
    /// the file — only the manifest and which chunk indexes verified.
    stream: Option<StreamState>,
    /// Chunks that arrived before their stream header (per-message
    /// network latency can reorder the slave's sends).  Held unverified
    /// until the header opens the window, then replayed; bounded so a
    /// flood before any header cannot grow client memory.
    early_chunks: Vec<(NodeId, u32, Vec<u8>)>,
    /// Set when this read is one per-shard sub-scan of a scattered
    /// cross-shard `ScanRange`: the parent scan's id.  Sub-scans accept
    /// into the parent's stitcher instead of counting their own read,
    /// and never fall back to the pledged path — a stitched scan is
    /// only as strong as its weakest piece.
    parent_scan: Option<u64>,
}

/// One scattered cross-shard range scan: the parent of `parts.len()`
/// per-shard sub-scans, each a normal proof-path [`PendingRead`].  The
/// parent accepts only when every part verified against its own shard's
/// signed digest *and* the parts tile the scanned interval exactly —
/// gap, overlap, or any per-shard proof failure rejects the whole scan.
struct ScanState {
    /// Scanned half-open key interval.
    start: u64,
    end: u64,
    issued_at: SimTime,
    /// `(sub_start, sub_end, verified_rows)` per part, ascending;
    /// `None` = still in flight.
    parts: Vec<(u64, u64, Option<u64>)>,
    /// Sub-request id → index into `parts`.
    by_req: HashMap<u64, usize>,
}

/// Progress of one verified chunk stream.
struct StreamState {
    /// The header proof (manifest pinned to the signed digest).
    proof: StreamProof,
    /// The slave streaming to us; chunks from anyone else are ignored.
    source: NodeId,
    /// First manifest index the stream carries.
    first: u32,
    /// Number of chunks announced.
    count: u32,
    /// Manifest indexes verified so far (the network may reorder
    /// chunks; verification is per-index so order never matters).
    received: HashSet<u32>,
    /// Verified payload bytes so far.
    bytes: u64,
}

/// Per-client counters used by experiments (E8 needs per-client views).
#[derive(Clone, Copy, Debug, Default, serde::ToJson, serde::FromJson)]
pub struct ClientCounters {
    /// Reads issued.
    pub reads_issued: u64,
    /// Reads accepted after full verification.
    pub reads_accepted: u64,
    /// Reads that exhausted their retries.
    pub reads_failed: u64,
    /// Double-checks sent.
    pub dc_sent: u64,
    /// Double-checks the master throttled (greedy enforcement).
    pub dc_throttled: u64,
    /// Stale-stamp rejections observed.
    pub stale_rejections: u64,
    /// Times this client had to redo the setup phase.
    pub re_setups: u64,
    /// Static reads issued on the proof path.
    pub proof_reads_issued: u64,
    /// Proof-verified reads accepted (these never touch the auditor).
    pub proof_reads_accepted: u64,
    /// Rejected proof replies retried on another replica of the same
    /// shard, still on the proof path (before any pledged fallback).
    pub proof_retries: u64,
}

/// A client process.
pub struct ClientProcess {
    cfg: SystemConfig,
    workload: Workload,
    index: usize,
    directory: NodeId,
    content_key: PublicKey,
    is_writer: bool,
    dc_prob: f64,
    my_max_latency: SimDuration,
    map: ShardMap,

    phase: Phase,
    /// Whether this client participates in session churn (drawn once at
    /// start from [`crate::workload::ChurnModel::fraction`]).
    churns: bool,
    /// Whether a read/write workload timer chain is currently ticking.
    /// Guards re-arming on every `Ready` transition: without it each
    /// re-setup (and each churn rejoin) would stack another perpetual
    /// timer chain, inflating the event rate cycle after cycle.
    read_timer_live: bool,
    write_timer_live: bool,
    shards: Vec<ShardView>,
    /// Shards with an outstanding `SetupRequest`: exactly these have an
    /// unresponsive master to blame when the setup timeout fires.
    awaiting_setup: HashSet<usize>,
    blacklist: HashSet<NodeId>,

    next_req: u64,
    pending: HashMap<u64, PendingRead>,
    /// In-flight scattered cross-shard scans, by parent id.
    scans: HashMap<u64, ScanState>,
    pending_writes: HashMap<u64, (SimTime, usize)>,
    /// Per-shard overflow of sampled-but-unsent writes: with
    /// `max_write_batch > 1` the client keeps up to a batch of writes
    /// outstanding per shard (pipelining into the sequencer's round) and
    /// parks the rest here until responses drain the window.  Unused —
    /// and unallocated per-entry — at `max_write_batch = 1`.
    deferred_writes: Vec<VecDeque<Vec<UpdateOp>>>,

    /// Stamp-verification cache: digests of `(master key, stamp
    /// statement)` pairs whose signature already verified.  A repeat
    /// read anchored in the same stamp skips the signature check — the
    /// dominant cost of a verified hot read — while freshness is still
    /// re-checked on every reply and the Merkle fold always runs.
    /// Entry weight is 1, so the byte budget doubles as an entry count.
    stamp_cache: LruByteCache<()>,
    /// Verified-certificate set: `scoped_cache_key` digests of
    /// certificates that passed `verify_scoped` for a given issuer,
    /// role, and shard.  Re-setups after churn re-admit the same
    /// replica roster with a table lookup per certificate.
    cert_cache: LruByteCache<()>,

    /// `(slave, accepted result-hash bytes)` — joined post-run against
    /// slave lie logs to count wrong answers that slipped through.
    acceptances: Vec<(NodeId, Vec<u8>)>,
    counters: ClientCounters,
}

impl ClientProcess {
    /// Creates a client.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: SystemConfig,
        workload: Workload,
        index: usize,
        directory: NodeId,
        content_key: PublicKey,
        is_writer: bool,
    ) -> Self {
        let dc_prob = workload
            .greedy_clients
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, p)| *p)
            .unwrap_or(cfg.double_check_prob);
        let my_max_latency = workload
            .client_max_latency
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, d)| *d)
            .unwrap_or(cfg.max_latency);
        let map = ShardMap::new(cfg.n_shards, &workload.dataset);
        let cfg_shards = cfg.n_shards.max(1);
        let shards = vec![ShardView::default(); cfg_shards];
        let stamp_cache = LruByteCache::new(cfg.stamp_cache_entries);
        let cert_cache = LruByteCache::new(cfg.cert_cache_entries);
        ClientProcess {
            cfg,
            workload,
            index,
            directory,
            content_key,
            is_writer,
            dc_prob,
            my_max_latency,
            map,
            phase: Phase::Boot,
            churns: false,
            read_timer_live: false,
            write_timer_live: false,
            shards,
            awaiting_setup: HashSet::new(),
            blacklist: HashSet::new(),
            next_req: 1,
            pending: HashMap::new(),
            scans: HashMap::new(),
            pending_writes: HashMap::new(),
            deferred_writes: vec![VecDeque::new(); cfg_shards],
            stamp_cache,
            cert_cache,
            acceptances: Vec::new(),
            counters: ClientCounters::default(),
        }
    }

    /// Acceptance log: `(slave, result-hash bytes)` of every accepted read.
    pub fn acceptances(&self) -> &[(NodeId, Vec<u8>)] {
        &self.acceptances
    }

    /// Per-client counters.
    pub fn counters(&self) -> ClientCounters {
        self.counters
    }

    /// The client's assigned slaves across all shards (test inspection).
    pub fn assigned_slaves(&self) -> Vec<NodeId> {
        self.shards
            .iter()
            .flat_map(|sv| sv.slaves.iter().map(|(n, _)| *n))
            .collect()
    }

    /// The client's assigned slaves of one shard (test inspection).
    pub fn assigned_slaves_of_shard(&self, shard: usize) -> Vec<NodeId> {
        self.shards[shard].slaves.iter().map(|(n, _)| *n).collect()
    }

    /// Whether setup completed (every shard has at least one slave).
    pub fn is_ready(&self) -> bool {
        self.phase == Phase::Ready
    }

    /// Current Byzantine-evidence blacklist (test inspection).
    pub fn blacklisted(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.blacklist.iter().copied().collect();
        v.sort();
        v
    }

    /// Plants Byzantine evidence against a node (test injection).
    pub fn blacklist_insert(&mut self, node: NodeId) {
        self.blacklist.insert(node);
    }

    /// The master this client set up shard `shard` with (test inspection).
    pub fn chosen_master(&self, shard: usize) -> Option<NodeId> {
        self.shards[shard].master.map(|(n, _)| n)
    }

    /// The master roster this client learned for shard `shard` from the
    /// directory (test inspection).
    pub fn shard_masters(&self, shard: usize) -> Vec<NodeId> {
        self.shards[shard].masters.iter().map(|(n, _)| *n).collect()
    }

    fn boot(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.phase = Phase::AwaitDir;
        for sv in &mut self.shards {
            sv.master = None;
            sv.slaves.clear();
            sv.spares.clear();
            sv.masters.clear();
        }
        self.awaiting_setup.clear();
        // Parked writes reference the pre-reboot pipeline; drop them (the
        // workload timer keeps producing fresh ones once Ready again).
        for q in &mut self.deferred_writes {
            q.clear();
        }
        for shard in 0..self.shards.len() {
            ctx.send(self.directory, Msg::DirLookup { shard: shard as u32 });
        }
        ctx.set_timer(self.cfg.read_timeout * 4, tag(K_SETUP_TIMEOUT, 0));
    }

    fn choose_master(&self, shard: usize, auditor: NodeId) -> Option<(NodeId, PublicKey)> {
        let eligible: Vec<&(NodeId, PublicKey)> = self.shards[shard]
            .masters
            .iter()
            .filter(|(n, _)| *n != auditor && !self.blacklist.contains(n))
            .collect();
        if eligible.is_empty() {
            return None;
        }
        // Deterministic spread of clients across masters ("the closest one
        // for example" — we model proximity as static preference).
        Some(*eligible[self.index % eligible.len()])
    }

    fn schedule_next_read(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now();
        let gap = self.workload.read_gap(ctx.rng(), now);
        self.read_timer_live = true;
        ctx.set_timer(gap, tag(K_NEXT_READ, 0));
    }

    fn schedule_next_write(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let gap = self.workload.write_gap(ctx.rng());
        self.write_timer_live = true;
        ctx.set_timer(gap, tag(K_NEXT_WRITE, 0));
    }

    /// Leaves the system: drops every in-flight request so late replies
    /// and timeouts find nothing to act on, and lets the workload timer
    /// chains die at their next tick.
    fn go_offline(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.phase = Phase::Offline;
        self.pending.clear();
        self.scans.clear();
        self.pending_writes.clear();
        for q in &mut self.deferred_writes {
            q.clear();
        }
        self.awaiting_setup.clear();
        ctx.metrics().inc("client.churn_leave");
    }

    /// Writes in flight to one shard's master (response still pending).
    fn outstanding_writes(&self, shard: usize) -> usize {
        self.pending_writes
            .values()
            .filter(|(_, s)| *s == shard)
            .count()
    }

    /// Sends one write to the owning shard's master with the usual
    /// timeout; drops it silently when the shard has no chosen master
    /// (the periodic write timer just moves on, as before batching).
    fn send_write(&mut self, ctx: &mut Ctx<'_, Msg>, shard: usize, ops: Vec<UpdateOp>) {
        if let Some((m, _)) = self.shards[shard].master {
            let req = self.next_req;
            self.next_req += 1;
            ctx.metrics().inc("write.issued");
            self.pending_writes.insert(req, (ctx.now(), shard));
            ctx.send(m, Msg::WriteRequest { req_id: req, ops });
            ctx.set_timer(
                self.cfg.max_latency * 4 + self.cfg.read_timeout,
                tag(K_WRITE_TIMEOUT, req),
            );
        }
    }

    /// Refills the shard's pipeline window from the deferred queue.
    fn flush_deferred_writes(&mut self, ctx: &mut Ctx<'_, Msg>, shard: usize) {
        while !self.deferred_writes[shard].is_empty()
            && self.outstanding_writes(shard) < self.cfg.max_write_batch
        {
            let ops = self.deferred_writes[shard].pop_front().expect("non-empty");
            self.send_write(ctx, shard, ops);
        }
    }

    /// Rotation cursor shared by every proof-path target pick: request
    /// id plus attempt count, wrapped over the replica list.
    fn proof_rotation(req: u64, attempts: u32, n: usize) -> usize {
        (req as usize + attempts as usize) % n.max(1)
    }

    /// Picks the slave a proof read targets within the owning shard:
    /// rotated by request id and attempt so retries (after timeouts) try
    /// a different replica.  `None` when the shard currently has no
    /// slaves (mid-reassignment; the read then waits for its timeout
    /// like the pledged path does).
    fn proof_target(&self, shard: usize, req: u64, attempts: u32) -> Option<NodeId> {
        let slaves = &self.shards[shard].slaves;
        if slaves.is_empty() {
            return None;
        }
        Some(slaves[Self::proof_rotation(req, attempts, slaves.len())].0)
    }

    /// Picks the replica a *rejected* proof retries: the next assigned
    /// replica in the same rotation that is not the one that failed, or
    /// — with a quorum of one — the setup-issued spare of the shard.
    fn proof_retry_target(
        &self,
        shard: usize,
        req: u64,
        attempts: u32,
        failed: NodeId,
    ) -> Option<NodeId> {
        let sv = &self.shards[shard];
        let n = sv.slaves.len();
        let start = Self::proof_rotation(req, attempts, n);
        (1..=n)
            .map(|i| sv.slaves[(start + i) % n].0)
            .find(|s| *s != failed)
            .or_else(|| sv.spares.iter().map(|(s, _)| *s).find(|s| *s != failed))
    }

    fn issue_read(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.phase != Phase::Ready {
            return;
        }
        let query = self.workload.mix.sample(ctx.rng(), &self.workload.dataset);
        // A `ScanRange` crossing shard boundaries scatters: one
        // proof-path sub-scan per owning shard, stitched client-side.
        // Single-shard scans fall through to the ordinary proof path.
        if let Query::ScanRange { start, end, .. } = &query {
            if self.cfg.proof_reads {
                let parts = self.map.split_scan(*start, *end);
                if parts.len() > 1 {
                    self.issue_scatter_scan(ctx, query, parts);
                    return;
                }
            }
        }
        let shard = self.map.shard_of_query(&query);
        if self.shards[shard].slaves.is_empty() {
            return;
        }
        let req = self.next_req;
        self.next_req += 1;
        self.counters.reads_issued += 1;
        ctx.metrics().inc("read.issued");

        let sensitive =
            self.cfg.sensitive_fraction > 0.0 && ctx.coin() < self.cfg.sensitive_fraction;
        let strategy = if sensitive {
            // Trusted hardware is its own (stronger) guarantee.
            ReadStrategy::Pledged
        } else {
            verify::strategy_for(&query, self.cfg.proof_reads)
        };
        let mut awaiting = HashSet::new();
        if sensitive {
            // Section 4 variant: run on the owning shard's trusted master.
            ctx.metrics().inc("read.sensitive");
            let (m, _) = self.shards[shard].master.expect("ready implies master");
            ctx.send(
                m,
                Msg::TrustedRead {
                    req_id: req,
                    query: query.clone(),
                },
            );
            awaiting.insert(m);
        } else if strategy == ReadStrategy::Proof {
            // One slave suffices: the proof is self-certifying, so there
            // is nothing a quorum would vote on.
            self.counters.proof_reads_issued += 1;
            ctx.metrics().inc("read.proof_issued");
            if matches!(query, Query::ReadFileRange { .. }) {
                ctx.metrics().inc("read.stream_issued");
            }
            let s = self
                .proof_target(shard, req, 0)
                .expect("checked non-empty above");
            ctx.send(
                s,
                Msg::ProvenRead {
                    req_id: req,
                    query: query.clone(),
                },
            );
            awaiting.insert(s);
        } else {
            for (s, _) in &self.shards[shard].slaves {
                ctx.send(
                    *s,
                    Msg::ReadRequest {
                        req_id: req,
                        query: query.clone(),
                    },
                );
                awaiting.insert(*s);
            }
        }
        self.pending.insert(
            req,
            PendingRead {
                query,
                shard,
                sensitive,
                strategy,
                proof_retried: false,
                attempts: 0,
                issued_at: ctx.now(),
                awaiting,
                responses: Vec::new(),
                mismatch_check_sent: false,
                stream: None,
                early_chunks: Vec::new(),
                parent_scan: None,
            },
        );
        ctx.set_timer(self.cfg.read_timeout, tag(K_READ_TIMEOUT, req));
    }

    /// Scatters one cross-shard `ScanRange` into per-shard sub-scans:
    /// each part is an ordinary proof-path read of its owning shard
    /// (verified against *that shard's* signed digest), registered under
    /// a parent [`ScanState`] that stitches the verified pieces.  The
    /// parent counts as one issued read; the fan-out is bookkeeping.
    fn issue_scatter_scan(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        query: Query,
        parts: Vec<(usize, u64, u64)>,
    ) {
        if parts.iter().any(|(s, _, _)| self.shards[*s].slaves.is_empty()) {
            return; // Some target shard is mid-reassignment; skip the tick.
        }
        let Query::ScanRange { table, start, end } = query else {
            unreachable!("caller matched ScanRange");
        };
        let parent = self.next_req;
        self.next_req += 1;
        self.counters.reads_issued += 1;
        self.counters.proof_reads_issued += 1;
        ctx.metrics().inc("read.issued");
        ctx.metrics().inc("read.proof_issued");
        ctx.metrics().inc("read.range_scattered");
        let mut scan = ScanState {
            start,
            end,
            issued_at: ctx.now(),
            parts: Vec::with_capacity(parts.len()),
            by_req: HashMap::new(),
        };
        for (i, (shard, lo, hi)) in parts.into_iter().enumerate() {
            let req = self.next_req;
            self.next_req += 1;
            let sub = Query::ScanRange {
                table: table.clone(),
                start: lo,
                end: hi,
            };
            let s = self
                .proof_target(shard, req, 0)
                .expect("checked non-empty above");
            ctx.send(
                s,
                Msg::ProvenRead {
                    req_id: req,
                    query: sub.clone(),
                },
            );
            let mut awaiting = HashSet::new();
            awaiting.insert(s);
            scan.parts.push((lo, hi, None));
            scan.by_req.insert(req, i);
            self.pending.insert(
                req,
                PendingRead {
                    query: sub,
                    shard,
                    sensitive: false,
                    strategy: ReadStrategy::Proof,
                    proof_retried: false,
                    attempts: 0,
                    issued_at: ctx.now(),
                    awaiting,
                    responses: Vec::new(),
                    mismatch_check_sent: false,
                    stream: None,
                    early_chunks: Vec::new(),
                    parent_scan: Some(parent),
                },
            );
            ctx.set_timer(self.cfg.read_timeout, tag(K_READ_TIMEOUT, req));
        }
        self.scans.insert(parent, scan);
    }

    /// Fails a scattered scan: the parent and every sibling sub-scan die
    /// together (a stitched result with a missing piece is no result).
    fn fail_scan(&mut self, ctx: &mut Ctx<'_, Msg>, parent: u64) {
        let Some(scan) = self.scans.remove(&parent) else { return };
        for req in scan.by_req.keys() {
            self.pending.remove(req);
        }
        self.counters.reads_failed += 1;
        ctx.metrics().inc("read.failed");
        ctx.metrics().inc("read.range_failed");
    }

    /// Records one verified sub-scan; when the last part lands, runs the
    /// stitch check — the parts must tile `[start, end)` exactly — and
    /// accepts the parent scan.
    fn scan_part_done(&mut self, ctx: &mut Ctx<'_, Msg>, parent: u64, req: u64, rows: u64) {
        let Some(scan) = self.scans.get_mut(&parent) else { return };
        let Some(&idx) = scan.by_req.get(&req) else { return };
        scan.parts[idx].2 = Some(rows);
        if scan.parts.iter().any(|(_, _, r)| r.is_none()) {
            return;
        }
        let scan = self.scans.remove(&parent).expect("present");
        // Every part carries its own shard's range proof, so each piece
        // is complete *within its bounds*; the stitch check makes the
        // bounds themselves airtight: ascending, gapless, covering.
        let mut cursor = scan.start;
        let mut exact = true;
        for (lo, hi, _) in &scan.parts {
            exact &= *lo == cursor && *hi > *lo;
            cursor = *hi;
        }
        exact &= cursor == scan.end;
        if !exact {
            ctx.metrics().inc("read.range_stitch_rejected");
            self.counters.reads_failed += 1;
            ctx.metrics().inc("read.failed");
            return;
        }
        let total: u64 = scan.parts.iter().filter_map(|(_, _, r)| *r).sum();
        self.counters.reads_accepted += 1;
        self.counters.proof_reads_accepted += 1;
        ctx.metrics().inc("read.accepted");
        ctx.metrics().inc("read.proof_accepted");
        ctx.metrics().inc("read.range_stitched");
        ctx.metrics().observe("range.scan_rows", total);
        let latency = ctx.now().since(scan.issued_at);
        ctx.metrics().observe("read.latency_us", latency.as_micros());
        ctx.metrics()
            .observe("read.proof_latency_us", latency.as_micros());
    }

    fn retry_read(&mut self, ctx: &mut Ctx<'_, Msg>, req: u64) {
        let Some(p) = self.pending.get_mut(&req) else { return };
        p.attempts += 1;
        if p.attempts > self.cfg.read_retries {
            let parent = self.pending.remove(&req).expect("present").parent_scan;
            match parent {
                Some(par) => self.fail_scan(ctx, par),
                None => {
                    self.counters.reads_failed += 1;
                    ctx.metrics().inc("read.failed");
                }
            }
            return;
        }
        ctx.metrics().inc("read.retry");
        p.responses.clear();
        p.mismatch_check_sent = false;
        p.awaiting.clear();
        p.stream = None;
        p.early_chunks.clear();
        let shard = p.shard;
        if p.sensitive {
            let (m, _) = self.shards[shard].master.expect("ready implies master");
            ctx.send(
                m,
                Msg::TrustedRead {
                    req_id: req,
                    query: p.query.clone(),
                },
            );
            p.awaiting.insert(m);
        } else if p.strategy == ReadStrategy::Proof {
            let (query, attempts) = (p.query.clone(), p.attempts);
            if let Some(s) = self.proof_target(shard, req, attempts) {
                ctx.send(s, Msg::ProvenRead { req_id: req, query });
                self.pending
                    .get_mut(&req)
                    .expect("present")
                    .awaiting
                    .insert(s);
            }
            // No slaves right now (mid-reassignment): the read idles on
            // its timeout, exactly like the pledged branch below.
        } else {
            let targets: Vec<NodeId> =
                self.shards[shard].slaves.iter().map(|(n, _)| *n).collect();
            for s in targets {
                let q = self.pending.get(&req).expect("present").query.clone();
                ctx.send(s, Msg::ReadRequest { req_id: req, query: q });
                self.pending
                    .get_mut(&req)
                    .expect("present")
                    .awaiting
                    .insert(s);
            }
        }
        ctx.set_timer(self.cfg.read_timeout, tag(K_READ_TIMEOUT, req));
    }

    /// Records a rejection: the reason-specific metric plus the
    /// per-client staleness counter the experiments watch.
    fn note_rejection(&mut self, ctx: &mut Ctx<'_, Msg>, reason: RejectReason) {
        if reason == RejectReason::Stale {
            self.counters.stale_rejections += 1;
        }
        ctx.metrics().inc(reason.metric());
    }

    /// Checks a digest stamp's master signature, memoized per statement.
    ///
    /// The cache key binds the *current* verification key of the
    /// stamping master to the stamp's signing bytes, so a forged
    /// statement, a different master, or a rotated key all hash to
    /// fresh keys and take the full signature check — a hit proves
    /// exactly "this statement verified under this key before".
    /// Freshness is deliberately not part of the statement: the caller
    /// re-checks it on every reply.
    fn check_stamp_cached(
        stamp_cache: &mut LruByteCache<()>,
        cfg: &SystemConfig,
        ctx: &mut Ctx<'_, Msg>,
        env: &VerifyEnv<'_>,
        stamp: &StateDigestStamp,
    ) -> Result<(), RejectReason> {
        let Some(mkey) = env.master_key_of(stamp.master) else {
            return Err(RejectReason::BadStampSignature);
        };
        if cfg.stamp_cache_entries == 0 {
            ctx.charge(ctx.costs().verify);
            return stamp
                .verify(mkey)
                .map_err(|_| RejectReason::BadStampSignature);
        }
        let key = Sha256::digest_parts(&[
            b"sdr/stamp-cache/v1",
            &mkey.encode(),
            &stamp.signing_bytes(),
        ]);
        if stamp_cache.get(&key).is_some() {
            ctx.charge(ctx.costs().cache_lookup);
            ctx.metrics().inc("client.stamp_cache_hit");
            if cfg.cache_verify && stamp.verify(mkey).is_err() {
                ctx.metrics().inc("client.cache_divergence");
            }
            return Ok(());
        }
        ctx.metrics().inc("client.stamp_cache_miss");
        ctx.charge(ctx.costs().verify);
        match stamp.verify(mkey) {
            Ok(()) => {
                stamp_cache.put(key, (), 1);
                Ok(())
            }
            Err(_) => Err(RejectReason::BadStampSignature),
        }
    }

    /// Checks one certificate's scoped signature, memoized in the
    /// verified-certificate set.  The cache key already binds issuer
    /// key, role, shard, and the full certificate statement
    /// ([`Certificate::scoped_cache_key`]), so a hit cannot launder a
    /// certificate across scopes.
    fn verify_cert_cached(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        issuer: &PublicKey,
        role: CertRole,
        shard: u32,
        cert: &Certificate,
    ) -> bool {
        if self.cfg.cert_cache_entries == 0 {
            ctx.charge(ctx.costs().verify);
            return cert.verify_scoped(issuer, role, shard).is_ok();
        }
        let key = cert.scoped_cache_key(issuer, role, shard);
        if self.cert_cache.get(&key).is_some() {
            ctx.charge(ctx.costs().cache_lookup);
            ctx.metrics().inc("client.cert_cache_hit");
            if self.cfg.cache_verify && cert.verify_scoped(issuer, role, shard).is_err() {
                ctx.metrics().inc("client.cache_divergence");
            }
            return true;
        }
        ctx.metrics().inc("client.cert_cache_miss");
        ctx.charge(ctx.costs().verify);
        if cert.verify_scoped(issuer, role, shard).is_ok() {
            self.cert_cache.put(key, (), 1);
            true
        } else {
            false
        }
    }

    /// Full verification of one pledged slave response (Section 3.2's
    /// client checks, shared with the proof pipeline via
    /// [`crate::verify`]).  Returns false when the response must be
    /// discarded.
    fn verify_response(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        shard: usize,
        slave: NodeId,
        result: &QueryResult,
        pledge: &Pledge,
    ) -> bool {
        // One result hash plus two signature verifications.
        ctx.charge(ctx.costs().hash_cost(result.size()));
        ctx.charge(ctx.costs().verify * 2u64);
        let env = self.shards[shard].env(ctx.now(), self.my_max_latency);
        match verify::verify_pledged_read(&env, slave, result, pledge) {
            Ok(()) => true,
            Err(reason) => {
                self.note_rejection(ctx, reason);
                false
            }
        }
    }

    /// Verifies one proven answer from `from` with
    /// [`verify::verify_proven`], checking the stamp signature through
    /// the stamp memo.  The O(log n) proof fold always runs and is
    /// charged here — it is what ties *this* answer to the signed
    /// digest; the signature is the memoized part, so a repeat read
    /// under the same anchor pays a cache lookup instead of a signature
    /// verification.
    fn proven_verdict(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        shard: usize,
        from: NodeId,
        query: &Query,
        answer: ProvenAnswer<'_>,
        stamp: &StateDigestStamp,
    ) -> Result<(), RejectReason> {
        ctx.charge(ctx.costs().hash_cost(64) * (1 + answer.depth() as u64));
        let env = self.shards[shard].env(ctx.now(), self.my_max_latency);
        let (stamp_cache, cfg) = (&mut self.stamp_cache, &self.cfg);
        verify::verify_proven(&env, from, query, answer, stamp, |env, stamp| {
            Self::check_stamp_cached(stamp_cache, cfg, ctx, env, stamp)
        })
    }

    /// Handles one proof-read reply: verify the digest stamp and the
    /// Merkle path, then accept *finally* — proof-verified reads never
    /// touch the double-check or audit machinery.
    ///
    /// Rejection runs the hardened path: the first rejected reply
    /// retries one *other* replica of the same shard, still on the proof
    /// path (a single bad replica should not cost the read its
    /// deterministic verification); only when that is spent does the
    /// read fall back to pledge+audit.
    fn handle_proof_reply(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        req: u64,
        result: QueryResult,
        proof: StateProof,
        stamp: StateDigestStamp,
    ) {
        let Some(p) = self.pending.get(&req) else { return };
        if p.strategy != ReadStrategy::Proof || !p.awaiting.contains(&from) {
            return; // Duplicate, unsolicited, or already fallen back.
        }
        let (shard, query) = (p.shard, p.query.clone());
        ctx.charge(ctx.costs().hash_cost(result.size()));
        let answer = ProvenAnswer::Result(&result, &proof);
        match self.proven_verdict(ctx, shard, from, &query, answer, &stamp) {
            Ok(()) => {
                let p = self.pending.remove(&req).expect("present");
                self.acceptances.push((
                    from,
                    crate::pledge::ResultHash::of(&result, self.cfg.pledge_hash)
                        .bytes()
                        .to_vec(),
                ));
                ctx.metrics()
                    .observe("proof.bytes", proof.wire_len() as u64);
                ctx.metrics().observe("proof.depth", proof.depth() as u64);
                if matches!(query, Query::ScanRange { .. }) {
                    ctx.metrics()
                        .observe("range.proof_bytes", proof.wire_len() as u64);
                    ctx.metrics()
                        .add("range.rows_verified", result.row_count() as u64);
                }
                if let Some(parent) = p.parent_scan {
                    // One verified piece of a scattered scan: report to
                    // the parent's stitcher instead of accepting a read.
                    self.scan_part_done(ctx, parent, req, result.row_count() as u64);
                    return;
                }
                self.counters.reads_accepted += 1;
                self.counters.proof_reads_accepted += 1;
                ctx.metrics().inc("read.accepted");
                ctx.metrics().inc("read.proof_accepted");
                let latency = ctx.now().since(p.issued_at);
                ctx.metrics().observe("read.latency_us", latency.as_micros());
                ctx.metrics()
                    .observe("read.proof_latency_us", latency.as_micros());
            }
            Err(reason) => self.reject_proof_path(ctx, req, from, reason),
        }
    }

    /// Shared rejection path for proof-verified replies — point proofs,
    /// stream headers, and streamed chunks alike.  Deterministic lie
    /// detection: the slave shipped something its proof cannot cover (or
    /// a stale/forged anchor).  The first rejection retries one *other*
    /// replica of the same shard, still on the proof path; only when
    /// that is spent does the read fall back to pledge+audit.
    fn reject_proof_path(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        req: u64,
        from: NodeId,
        reason: RejectReason,
    ) {
        self.note_rejection(ctx, reason);
        // Umbrella counter: *any* rejected proof reply, whatever
        // the reason (the reason-specific metric has the detail).
        ctx.metrics().inc("read.proof_rejected");
        let Some(p) = self.pending.get_mut(&req) else { return };
        p.awaiting.remove(&from);
        p.stream = None;
        p.early_chunks.clear();
        let (shard, attempts) = (p.shard, p.attempts);
        let retry_target = (!p.proof_retried)
            .then(|| self.proof_retry_target(shard, req, attempts, from))
            .flatten();
        let p = self.pending.get_mut(&req).expect("present");
        match retry_target {
            Some(s) => {
                // Proof-path hardening: one same-shard replica
                // retry before any pledged fallback.
                p.proof_retried = true;
                p.awaiting.insert(s);
                let query = p.query.clone();
                self.counters.proof_retries += 1;
                ctx.metrics().inc("read.proof_retry");
                ctx.send(s, Msg::ProvenRead { req_id: req, query });
                ctx.set_timer(self.cfg.read_timeout, tag(K_READ_TIMEOUT, req));
            }
            None => {
                if let Some(parent) = p.parent_scan {
                    // No pledged fallback for sub-scans: a stitched scan
                    // is only as strong as its weakest piece, so a part
                    // whose proof path is exhausted fails the whole scan.
                    self.pending.remove(&req);
                    self.fail_scan(ctx, parent);
                    return;
                }
                // Fall back to the pledged pipeline for the
                // remaining retries.
                ctx.metrics().inc("read.proof_fallback");
                p.strategy = ReadStrategy::Pledged;
                self.retry_read(ctx, req);
            }
        }
    }

    /// Handles a stream header: verify the manifest proof against the
    /// signed digest, then open the per-chunk verification window.  An
    /// empty stream (absent file or empty range) accepts immediately.
    #[allow(clippy::too_many_arguments)]
    fn handle_stream_header(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        req: u64,
        proof: StreamProof,
        stamp: StateDigestStamp,
        first_chunk: u32,
        chunk_count: u32,
    ) {
        let Some(p) = self.pending.get(&req) else { return };
        if p.strategy != ReadStrategy::Proof || !p.awaiting.contains(&from) || p.stream.is_some()
        {
            return; // Duplicate, unsolicited, or already fallen back.
        }
        let (shard, query) = (p.shard, p.query.clone());
        let answer = ProvenAnswer::Header(&proof);
        if let Err(reason) = self.proven_verdict(ctx, shard, from, &query, answer, &stamp) {
            self.reject_proof_path(ctx, req, from, reason);
            return;
        }
        ctx.metrics().observe("proof.bytes", proof.wire_len() as u64);
        ctx.metrics().observe("proof.depth", proof.depth() as u64);
        // The announced window must lie within the verified manifest
        // slice — a slave cannot promise chunks the slice's proof does
        // not commit to.
        let (slice_lo, slice_hi) = proof.slice.as_ref().map_or((0, 0), |s| {
            (s.first as usize, s.first as usize + s.entries.len())
        });
        if (first_chunk as usize) < slice_lo
            || first_chunk as usize + chunk_count as usize > slice_hi
        {
            self.reject_proof_path(
                ctx,
                req,
                from,
                RejectReason::BadProof(ProofError::ShapeMismatch),
            );
            return;
        }
        if chunk_count == 0 {
            // Nothing to stream: proven absence or an empty range.
            self.accept_stream(ctx, req, 0, 0);
        } else {
            let p = self.pending.get_mut(&req).expect("present");
            p.stream = Some(StreamState {
                proof,
                source: from,
                first: first_chunk,
                count: chunk_count,
                received: HashSet::new(),
                bytes: 0,
            });
            // Chunks are in flight: give them a fresh timeout window.
            ctx.set_timer(self.cfg.read_timeout, tag(K_READ_TIMEOUT, req));
            // Replay any chunks the network delivered ahead of this
            // header; they verify exactly as if they had just arrived.
            let early = std::mem::take(
                &mut self.pending.get_mut(&req).expect("present").early_chunks,
            );
            for (src, index, data) in early {
                self.handle_stream_chunk(ctx, src, req, index, data);
            }
        }
    }

    /// Handles one streamed chunk: hash it, compare against the verified
    /// manifest entry, and accept the read once every announced chunk
    /// verified.  A bad chunk rejects the stream *at that chunk* — the
    /// already-verified prefix needed no buffering and no re-transfer.
    fn handle_stream_chunk(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        req: u64,
        index: u32,
        data: Vec<u8>,
    ) {
        let Some(p) = self.pending.get_mut(&req) else { return };
        let Some(st) = p.stream.as_mut() else {
            // Header not here yet (per-message latency reorders the
            // slave's sends): hold the chunk for replay, bounded.
            if p.strategy == ReadStrategy::Proof
                && p.awaiting.contains(&from)
                && p.early_chunks.len() < 1024
            {
                p.early_chunks.push((from, index, data));
            }
            return;
        };
        if st.source != from
            || index < st.first
            || index >= st.first + st.count
            || st.received.contains(&index)
        {
            return; // Wrong sender, outside the window, or duplicate.
        }
        ctx.charge(ctx.costs().hash_cost(data.len()));
        match st.proof.verify_chunk(index as usize, &data) {
            Ok(()) => {
                st.received.insert(index);
                st.bytes += data.len() as u64;
                ctx.metrics().inc("read.stream_chunks_verified");
                if st.received.len() as u32 == st.count {
                    let (chunks, bytes) = (u64::from(st.count), st.bytes);
                    self.accept_stream(ctx, req, chunks, bytes);
                }
            }
            Err(e) => {
                ctx.metrics().inc("read.stream_chunk_rejected");
                self.reject_proof_path(ctx, req, from, RejectReason::BadProof(e));
            }
        }
    }

    /// Final acceptance of a verified stream (all chunks checked, or an
    /// empty/absent result proven by the header alone).
    fn accept_stream(&mut self, ctx: &mut Ctx<'_, Msg>, req: u64, chunks: u64, bytes: u64) {
        let Some(p) = self.pending.remove(&req) else { return };
        self.counters.reads_accepted += 1;
        self.counters.proof_reads_accepted += 1;
        ctx.metrics().inc("read.accepted");
        ctx.metrics().inc("read.proof_accepted");
        ctx.metrics().inc("read.stream_accepted");
        ctx.metrics().observe("stream.chunks", chunks);
        ctx.metrics().observe("stream.bytes", bytes);
        let latency = ctx.now().since(p.issued_at);
        ctx.metrics().observe("read.latency_us", latency.as_micros());
        ctx.metrics()
            .observe("read.proof_latency_us", latency.as_micros());
    }

    fn finalize_read(&mut self, ctx: &mut Ctx<'_, Msg>, req: u64) {
        let Some(p) = self.pending.get(&req) else { return };
        debug_assert!(!p.responses.is_empty());

        let first_hash = p.responses[0].2.result_hash;
        let unanimous = p
            .responses
            .iter()
            .all(|(_, _, pl)| pl.result_hash == first_hash);

        if !unanimous {
            // Section 4: "If not all answers match, the client
            // automatically double-checks, since at least one of the
            // slaves has to be malicious."
            if !p.mismatch_check_sent {
                ctx.metrics().inc("read.quorum_mismatch");
                let (m, _) = self.shards[p.shard]
                    .master
                    .expect("ready implies master");
                let pledges: Vec<Pledge> =
                    p.responses.iter().map(|(_, _, pl)| pl.clone()).collect();
                self.pending.get_mut(&req).expect("present").mismatch_check_sent = true;
                for pl in pledges {
                    self.counters.dc_sent += 1;
                    ctx.metrics().inc("dc.sent");
                    ctx.send(m, Msg::DoubleCheck { req_id: req, pledge: Box::new(pl) });
                }
            }
            return;
        }

        let p = self.pending.remove(&req).expect("present");
        // Forward pledges to the owning shard's auditor *before*
        // accepting (Section 3.4), unless this read is the sampled
        // double-check.
        let double_check = ctx.coin() < self.dc_prob;
        if double_check {
            let (m, _) = self.shards[p.shard].master.expect("ready implies master");
            self.counters.dc_sent += 1;
            ctx.metrics().inc("dc.sent");
            ctx.send(
                m,
                Msg::DoubleCheck {
                    req_id: req,
                    pledge: Box::new(p.responses[0].2.clone()),
                },
            );
        } else {
            let auditor = self.shards[p.shard].auditor;
            for (_, _, pl) in &p.responses {
                ctx.send(auditor, Msg::AuditSubmit { pledge: Box::new(pl.clone()) });
            }
        }
        for (slave, _, pl) in &p.responses {
            self.acceptances.push((*slave, pl.result_hash.bytes().to_vec()));
        }
        self.counters.reads_accepted += 1;
        ctx.metrics().inc("read.accepted");
        let latency = ctx.now().since(p.issued_at);
        ctx.metrics().observe("read.latency_us", latency.as_micros());
    }

    /// Shard whose subgroup contains master node `m` (by directory
    /// listing, falling back to the chosen setup master).
    fn shard_of_master(&self, m: NodeId) -> Option<usize> {
        self.shards.iter().position(|sv| {
            sv.master.map(|(n, _)| n) == Some(m) || sv.masters.iter().any(|(n, _)| *n == m)
        })
    }

    fn handle_reassign(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        excluded: NodeId,
        replacement: Option<(NodeId, sdr_crypto::Certificate)>,
    ) {
        if excluded == NodeId(u32::MAX) {
            // Master retiring (became auditor): full re-setup.
            self.counters.re_setups += 1;
            self.phase = Phase::Boot;
            self.boot(ctx);
            return;
        }
        let Some(shard) = self.shard_of_master(from) else { return };
        ctx.metrics().inc("client.reassigned");
        self.shards[shard].slaves.retain(|(n, _)| *n != excluded);
        self.shards[shard].spares.retain(|(n, _)| *n != excluded);
        if let Some((node, cert)) = replacement {
            let master_key = self.shards[shard].master.map(|(_, k)| k);
            let valid = master_key.is_some_and(|k| {
                self.verify_cert_cached(ctx, &k, CertRole::Slave, shard as u32, &cert)
            });
            if valid {
                self.shards[shard].slaves.push((node, cert.body.subject_key));
            }
        }
        if self.shards[shard].slaves.is_empty() {
            // No replacement capacity here: redo setup.
            self.counters.re_setups += 1;
            self.boot(ctx);
            return;
        }
        // Re-issue still-pending reads that were waiting on the excluded
        // slave ("the client that has made the discovery connects to its
        // newly assigned slave and issues the same read request again").
        let mut stalled: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.awaiting.contains(&excluded) && !p.sensitive)
            .map(|(r, _)| *r)
            .collect();
        // Sort: HashMap iteration order is process-random, and each retry
        // draws from the client RNG, so the order must be reproducible.
        stalled.sort_unstable();
        for req in stalled {
            self.retry_read(ctx, req);
        }
    }
}

impl Process<Msg> for ClientProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Jittered boot spreads directory load and client phase.
        let jitter = SimDuration::from_micros(ctx.rng().gen_range(0..200_000));
        ctx.set_timer(jitter, tag(K_BOOT, 0));
        // Churn participation and the first leave time draw only when the
        // workload models churn at all, so non-churn runs consume an
        // identical RNG stream to the pre-churn simulator.
        if let Some(churn) = self.workload.churn {
            self.churns = ctx.rng().gen_bool(churn.fraction.clamp(0.0, 1.0));
            if self.churns {
                let first = jitter + churn.sample_session(ctx.rng());
                ctx.set_timer(first, tag(K_CHURN, 0));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, t: u64) {
        match (tag_kind(t), tag_req(t)) {
            (K_BOOT, _) => self.boot(ctx),
            (K_CHURN, _) => {
                let Some(churn) = self.workload.churn else { return };
                if self.phase == Phase::Offline {
                    // Rejoin: full setup phase, like any cold client.
                    ctx.metrics().inc("client.churn_join");
                    self.counters.re_setups += 1;
                    self.boot(ctx);
                    let gap = churn.sample_session(ctx.rng());
                    ctx.set_timer(gap, tag(K_CHURN, 0));
                } else {
                    self.go_offline(ctx);
                    let gap = churn.sample_offline(ctx.rng());
                    ctx.set_timer(gap, tag(K_CHURN, 0));
                }
            }
            (K_NEXT_READ, _) => {
                if self.phase == Phase::Offline {
                    self.read_timer_live = false;
                    return;
                }
                self.issue_read(ctx);
                self.schedule_next_read(ctx);
            }
            (K_NEXT_WRITE, _) => {
                if self.phase == Phase::Offline {
                    self.write_timer_live = false;
                    return;
                }
                if self.phase == Phase::Ready {
                    let ops = self.workload.sample_write(ctx.rng());
                    let shard = self.map.shard_of_ops(&ops);
                    if self.cfg.max_write_batch > 1
                        && self.outstanding_writes(shard) >= self.cfg.max_write_batch
                    {
                        // Pipeline window full: park the write until a
                        // response frees a slot.  Keeping a batch-sized
                        // window outstanding lets the sequencer fill its
                        // rounds without the client flooding a master
                        // that can only drain one batch per max_latency.
                        ctx.metrics().inc("write.deferred");
                        self.deferred_writes[shard].push_back(ops);
                    } else {
                        self.send_write(ctx, shard, ops);
                    }
                }
                self.schedule_next_write(ctx);
            }
            (K_READ_TIMEOUT, req)
                if self.pending.contains_key(&req) => {
                    let (sensitive, shard) = self
                        .pending
                        .get(&req)
                        .map(|p| (p.sensitive, p.shard))
                        .unwrap_or((false, 0));
                    let got_nothing = self
                        .pending
                        .get(&req)
                        .map(|p| p.responses.is_empty())
                        .unwrap_or(false);
                    ctx.metrics().inc("read.timeout");
                    if sensitive && got_nothing {
                        // Master unresponsive: fail over.
                        if let Some((m, _)) = self.shards[shard].master {
                            self.blacklist.insert(m);
                        }
                        self.pending.remove(&req);
                        self.counters.re_setups += 1;
                        self.boot(ctx);
                    } else {
                        self.retry_read(ctx, req);
                    }
                }
            (K_WRITE_TIMEOUT, req) => {
                if let Some((_, shard)) = self.pending_writes.remove(&req) {
                    ctx.metrics().inc("write.timeout");
                    // Master presumed crashed: redo the setup phase
                    // (Section 3: "all the clients connected to the crashed
                    // server will have to go through the setup process
                    // again").
                    if let Some((m, _)) = self.shards[shard].master {
                        self.blacklist.insert(m);
                    }
                    self.counters.re_setups += 1;
                    self.boot(ctx);
                }
            }
            (K_SETUP_TIMEOUT, _)
                if !matches!(self.phase, Phase::Ready | Phase::Offline) => {
                    // Blame exactly the masters that owe a SetupResponse
                    // (shards that answered are innocent; shards still
                    // waiting on the directory have no master to blame).
                    for shard in 0..self.shards.len() {
                        if self.awaiting_setup.contains(&shard) {
                            if let Some((m, _)) = self.shards[shard].master.take() {
                                self.blacklist.insert(m);
                            }
                        }
                    }
                    self.boot(ctx);
                }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        // A churned-away client has no socket to receive on: late replies
        // from its previous session fall on the floor.
        if self.phase == Phase::Offline {
            return;
        }
        match msg {
            Msg::DirResponse {
                shard,
                certs,
                nodes,
                auditor,
            } => {
                let shard = shard as usize;
                if self.phase != Phase::AwaitDir && self.phase != Phase::AwaitSetup {
                    return;
                }
                if shard >= self.shards.len() || self.shards[shard].master.is_some() {
                    return; // Unknown shard or duplicate response.
                }
                self.shards[shard].masters.clear();
                let content_key = self.content_key;
                for (cert, node) in certs.iter().zip(nodes.iter()) {
                    // The certificate must grant the master role *for
                    // this shard* — a master certificate of another
                    // subgroup must not authenticate here.
                    if self.verify_cert_cached(
                        ctx,
                        &content_key,
                        CertRole::Master,
                        shard as u32,
                        cert,
                    ) {
                        self.shards[shard].masters.push((*node, cert.body.subject_key));
                    } else {
                        ctx.metrics().inc("client.bad_master_cert");
                    }
                }
                self.shards[shard].auditor = auditor;
                match self.choose_master(shard, auditor) {
                    Some(m) => {
                        self.shards[shard].master = Some(m);
                        self.awaiting_setup.insert(shard);
                        ctx.send(m.0, Msg::SetupRequest);
                        if self.shards.iter().all(|sv| sv.master.is_some()) {
                            self.phase = Phase::AwaitSetup;
                        }
                    }
                    None => {
                        // All of this shard's masters blacklisted: forgive
                        // *this shard's* masters and retry later.  Evidence
                        // against other shards' masters must survive — a
                        // global clear would let a Byzantine master in
                        // shard j be re-chosen because shard k ran dry.
                        for (n, _) in &self.shards[shard].masters {
                            self.blacklist.remove(n);
                        }
                        ctx.set_timer(self.cfg.read_timeout, tag(K_BOOT, 0));
                    }
                }
            }
            Msg::SetupResponse {
                shard,
                slaves,
                spares,
                auditor,
            } => {
                let shard = shard as usize;
                // Accept during AwaitDir too: with several shards, a
                // fast shard's SetupResponse can overtake a slow shard's
                // DirResponse (the phase flips to AwaitSetup only once
                // every shard has chosen a master).  Staleness is still
                // caught below — boot() clears every chosen master, so a
                // pre-reboot response fails the sender check.
                if !matches!(self.phase, Phase::AwaitDir | Phase::AwaitSetup)
                    || shard >= self.shards.len()
                {
                    return;
                }
                let Some((master_node, mkey)) = self.shards[shard].master else { return };
                if from != master_node {
                    return; // Not the master this shard set up with.
                }
                self.awaiting_setup.remove(&shard);
                if slaves.is_empty() {
                    // This master has no capacity (e.g. it is the auditor).
                    self.blacklist.insert(from);
                    self.boot(ctx);
                    return;
                }
                self.shards[shard].slaves.clear();
                for (node, cert) in slaves {
                    if self.verify_cert_cached(ctx, &mkey, CertRole::Slave, shard as u32, &cert) {
                        self.shards[shard].slaves.push((node, cert.body.subject_key));
                    } else {
                        ctx.metrics().inc("client.bad_slave_cert");
                    }
                }
                if self.shards[shard].slaves.is_empty() {
                    self.blacklist.insert(from);
                    self.boot(ctx);
                    return;
                }
                // Spares are optional: verify what the master offered,
                // keep whatever passes (an empty list just means the
                // proof path has no same-shard retry target).
                self.shards[shard].spares.clear();
                for (node, cert) in spares {
                    if self.verify_cert_cached(ctx, &mkey, CertRole::Slave, shard as u32, &cert) {
                        self.shards[shard].spares.push((node, cert.body.subject_key));
                    } else {
                        ctx.metrics().inc("client.bad_slave_cert");
                    }
                }
                self.shards[shard].auditor = auditor;
                if self.shards.iter().all(|sv| !sv.slaves.is_empty()) {
                    self.phase = Phase::Ready;
                    ctx.metrics().inc("client.ready");
                    if !self.read_timer_live {
                        self.schedule_next_read(ctx);
                    }
                    if self.is_writer && !self.write_timer_live {
                        self.schedule_next_write(ctx);
                    }
                }
            }
            Msg::ReadResponse {
                req_id,
                result,
                pledge,
            } => {
                let Some(shard) = self.pending.get(&req_id).map(|p| p.shard) else {
                    return;
                };
                let valid = self.verify_response(ctx, shard, from, &result, &pledge);
                let Some(p) = self.pending.get_mut(&req_id) else { return };
                if !p.awaiting.remove(&from) {
                    return; // Duplicate or unsolicited.
                }
                if valid {
                    p.responses.push((from, result, *pledge));
                }
                if p.awaiting.is_empty() {
                    if p.responses.is_empty() {
                        self.retry_read(ctx, req_id);
                    } else {
                        self.finalize_read(ctx, req_id);
                    }
                }
            }
            Msg::ProvenReply {
                query,
                result,
                proof,
                digest_stamp,
            } => {
                // The reply is content-addressed (no request id), so one
                // cached `Arc<Msg>` can answer every reader of a hot key
                // or hot range.  Route it to the lowest-numbered pending
                // proof read for this exact query still awaiting this
                // slave — lowest so duplicate replies resolve reads in
                // issue order, deterministically.
                let req = self
                    .pending
                    .iter()
                    .filter(|(_, p)| {
                        p.strategy == ReadStrategy::Proof
                            && p.awaiting.contains(&from)
                            && p.query == *query
                    })
                    .map(|(r, _)| *r)
                    .min();
                if let Some(req) = req {
                    self.handle_proof_reply(ctx, from, req, result, *proof, digest_stamp);
                }
            }
            Msg::StreamHeader {
                req_id,
                proof,
                digest_stamp,
                first_chunk,
                chunk_count,
            } => self.handle_stream_header(
                ctx,
                from,
                req_id,
                *proof,
                digest_stamp,
                first_chunk,
                chunk_count,
            ),
            Msg::StreamChunk { req_id, index, data } => {
                self.handle_stream_chunk(ctx, from, req_id, index, data)
            }
            Msg::ReadRefused { req_id, reason } => {
                if !self.pending.contains_key(&req_id) {
                    return;
                }
                ctx.metrics().inc("read.refused");
                match reason {
                    RefuseReason::Excluded => {
                        // Learn of exclusions we missed; ask the owning
                        // shard's master for a new slave.
                        let shard = self.pending.get(&req_id).map(|p| p.shard).unwrap_or(0);
                        self.shards[shard].slaves.retain(|(n, _)| *n != from);
                        self.shards[shard].spares.retain(|(n, _)| *n != from);
                        if let Some((m, _)) = self.shards[shard].master {
                            self.phase = Phase::AwaitSetup;
                            self.awaiting_setup.insert(shard);
                            ctx.send(m, Msg::SetupRequest);
                            ctx.set_timer(self.cfg.read_timeout * 4, tag(K_SETUP_TIMEOUT, 0));
                        }
                        self.retry_read(ctx, req_id);
                    }
                    RefuseReason::OutOfSync => {
                        let Some(p) = self.pending.get_mut(&req_id) else { return };
                        p.awaiting.remove(&from);
                        if p.awaiting.is_empty() && p.responses.is_empty() {
                            // Everyone refused: retry after timeout fires.
                        } else if p.awaiting.is_empty() {
                            self.finalize_read(ctx, req_id);
                        }
                    }
                }
            }
            Msg::TrustedReadResponse { req_id, result } => {
                if let Some(p) = self.pending.remove(&req_id) {
                    // Results from trusted hardware are authoritative.
                    self.counters.reads_accepted += 1;
                    ctx.metrics().inc("read.accepted");
                    ctx.metrics().inc("read.accepted_sensitive");
                    let latency = ctx.now().since(p.issued_at);
                    ctx.metrics().observe("read.latency_us", latency.as_micros());
                    ctx.metrics()
                        .observe("read.sensitive_latency_us", latency.as_micros());
                    let _ = result;
                }
            }
            Msg::DoubleCheckResponse { req_id, verdict } => match verdict {
                CheckVerdict::Match => {
                    ctx.metrics().inc("client.dc_match");
                    // Quorum-mismatch path: a Match identifies an honest
                    // pledge; accept pending read if still open.
                    if self.pending.contains_key(&req_id) {
                        let p = self.pending.remove(&req_id).expect("present");
                        self.counters.reads_accepted += 1;
                        ctx.metrics().inc("read.accepted");
                        let latency = ctx.now().since(p.issued_at);
                        ctx.metrics().observe("read.latency_us", latency.as_micros());
                    }
                }
                CheckVerdict::Mismatch { correct } => {
                    ctx.metrics().inc("client.dc_mismatch");
                    ctx.charge(ctx.costs().hash_cost(correct.size()));
                    if self.pending.contains_key(&req_id) {
                        let p = self.pending.remove(&req_id).expect("present");
                        // The master's answer is authoritative.
                        self.counters.reads_accepted += 1;
                        ctx.metrics().inc("read.accepted");
                        ctx.metrics().inc("read.corrected_by_master");
                        let latency = ctx.now().since(p.issued_at);
                        ctx.metrics().observe("read.latency_us", latency.as_micros());
                    }
                }
                CheckVerdict::VersionUnavailable => {
                    ctx.metrics().inc("client.dc_version_unavailable");
                    self.pending.remove(&req_id);
                }
                CheckVerdict::Throttled => {
                    self.counters.dc_throttled += 1;
                    ctx.metrics().inc("client.dc_throttled");
                    self.pending.remove(&req_id);
                }
            },
            Msg::WriteResponse { req_id, outcome } => {
                if let Some((sent_at, shard)) = self.pending_writes.remove(&req_id) {
                    match outcome {
                        WriteOutcome::Committed { .. } => {
                            ctx.metrics().inc("write.committed");
                            let latency = ctx.now().since(sent_at);
                            ctx.metrics().observe("write.latency_us", latency.as_micros());
                        }
                        WriteOutcome::AccessDenied => {
                            ctx.metrics().inc("write.denied_seen");
                        }
                        WriteOutcome::Failed(_) => {
                            ctx.metrics().inc("write.failed_seen");
                        }
                    }
                    // The response freed a slot in the shard's pipeline
                    // window; refill it from the deferred queue.
                    self.flush_deferred_writes(ctx, shard);
                }
            }
            Msg::Reassign {
                excluded,
                replacement,
            } => self.handle_reassign(ctx, from, excluded, replacement),
            Msg::AuditorChanged { shard, auditor } => {
                if let Some(sv) = self.shards.get_mut(shard as usize) {
                    sv.auditor = auditor;
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> String {
        format!("client-{}", self.index)
    }
}
