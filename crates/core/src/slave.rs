//! Slave servers: marginally-trusted replicas with behaviour models.
//!
//! Honest slaves execute queries over their replica, sign pledges, apply
//! lazy state updates in order, and self-gate when out of sync (Section 3).
//! Byzantine behaviour is a pluggable [`SlaveBehavior`]:
//!
//! * [`SlaveBehavior::ConsistentLiar`] — the dangerous attacker: corrupts
//!   the result *and pledges the corrupted hash*, so the client's hash
//!   check passes and only double-checking or auditing can catch it.
//! * [`SlaveBehavior::InconsistentLiar`] — a sloppy attacker whose pledge
//!   hash does not match the shipped result; clients reject instantly.
//! * [`SlaveBehavior::StaleServer`] — stops applying state updates but
//!   keeps answering with fresh stamps (detected by the audit because the
//!   pledged version's correct state no longer matches its answers).
//! * [`SlaveBehavior::Refuser`] — denial of service: claims to be out of
//!   sync with some probability.

use crate::config::SystemConfig;
use crate::messages::{Msg, RefuseReason, StateDigestStamp, VersionStamp};
use crate::pledge::{Pledge, ResultHash};
use sdr_crypto::{Digest, Hash256, PublicKey, Sha256, Signer};
use sdr_sim::{Ctx, NodeId, Payload, Process, SimTime};
use sdr_store::fsview::GrepMatch;
use sdr_store::{
    execute, Database, Document, LruByteCache, Query, QueryResult, StreamProof, UpdateOp, Value,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Wrong-answer machinery shared by the pledge and proof read paths: a
/// liar corrupts the shipped result (and on the pledge path may also
/// pledge the corrupted hash); the proof path always ships the *honest*
/// proof because forging one against the signed digest would need a
/// hash collision — which is exactly why proof-read lies die at the
/// client instead of waiting for the auditor.
fn apply_lie_behavior(
    behavior: SlaveBehavior,
    ctx: &mut Ctx<'_, Msg>,
    result: &QueryResult,
) -> Option<QueryResult> {
    match behavior {
        SlaveBehavior::ConsistentLiar { prob, collude } if ctx.coin() < prob => {
            let salt = if collude { 0 } else { u64::from(ctx.id().0) };
            Some(corrupt(result, salt))
        }
        SlaveBehavior::InconsistentLiar { prob } if ctx.coin() < prob => {
            Some(corrupt(result, 1))
        }
        _ => None,
    }
}

/// Behaviour model of a slave.
#[derive(Clone, Copy, Debug, PartialEq, serde::ToJson, serde::FromJson)]
pub enum SlaveBehavior {
    /// Follows the protocol.
    Honest,
    /// With probability `prob`, returns a corrupted result with a
    /// self-consistent pledge (hash matches the corrupted result).
    ///
    /// When `collude` is true, every colluding liar forges the *same*
    /// wrong answer (salt 0), which is what defeating the quorum-read
    /// variant requires; otherwise each liar corrupts with its own salt.
    ConsistentLiar {
        /// Lie probability per read.
        prob: f64,
        /// Forge identically to other colluders.
        collude: bool,
    },
    /// With probability `prob`, ships a corrupted result but pledges the
    /// hash of the *correct* one.
    InconsistentLiar {
        /// Lie probability per read.
        prob: f64,
    },
    /// Applies keep-alive stamps but silently drops state updates once the
    /// version reaches `freeze_at`, serving stale data with fresh stamps.
    StaleServer {
        /// Version after which updates are ignored.
        freeze_at: u64,
    },
    /// With probability `prob`, falsely claims to be out of sync.
    Refuser {
        /// Refusal probability per read.
        prob: f64,
    },
}

impl SlaveBehavior {
    /// Whether this behaviour ever produces wrong answers.
    pub fn is_malicious(&self) -> bool {
        !matches!(self, SlaveBehavior::Honest)
    }
}

/// Deterministically corrupts a query result (the lie a malicious slave
/// tells).  Guaranteed to differ from the input under the canonical
/// encoding; different `salt` values produce different forgeries, so
/// independent (non-colluding) liars disagree with each other too.
pub fn corrupt(result: &QueryResult, salt: u64) -> QueryResult {
    let s = salt as i64 + 1;
    match result {
        QueryResult::Rows(rows) => {
            let mut rows = rows.clone();
            if rows.is_empty() {
                rows.push((u64::MAX, Document::new().with("forged", s)));
            } else {
                rows.pop();
                rows.push((u64::MAX - 1, Document::new().with("forged", s)));
            }
            QueryResult::Rows(rows)
        }
        QueryResult::Scalar(v) => QueryResult::Scalar(match v {
            Value::Int(i) => Value::Int(i.wrapping_add(s)),
            Value::Float(f) => Value::Float(f + s as f64),
            _ => Value::Int(666 + s),
        }),
        QueryResult::Groups(groups) => {
            let mut groups = groups.clone();
            match groups.first_mut() {
                Some((_, v)) => {
                    *v = match v {
                        Value::Int(i) => Value::Int(i.wrapping_add(s)),
                        Value::Float(f) => Value::Float(*f + s as f64),
                        _ => Value::Int(666 + s),
                    }
                }
                None => groups.push((Value::Null, Value::Int(666 + s))),
            }
            QueryResult::Groups(groups)
        }
        QueryResult::Text(t) => QueryResult::Text(Some(format!(
            "{}[tampered:{salt}]",
            t.clone().unwrap_or_default()
        ))),
        QueryResult::Matches(ms) => {
            let mut ms = ms.clone();
            if ms.is_empty() {
                ms.push(GrepMatch {
                    path: format!("/forged-{salt}"),
                    line: 1,
                    text: "forged".into(),
                });
            } else {
                ms.pop();
            }
            QueryResult::Matches(ms)
        }
        QueryResult::Paths(ps) => {
            let mut ps = ps.clone();
            if ps.is_empty() {
                ps.push(format!("/forged-{salt}"));
            } else {
                ps.pop();
            }
            QueryResult::Paths(ps)
        }
    }
}

/// A slave server process.
pub struct SlaveProcess {
    cfg: SystemConfig,
    db: Database,
    behavior: SlaveBehavior,
    signer: Box<dyn Signer>,
    master_keys: HashMap<NodeId, PublicKey>,
    latest_stamp: Option<VersionStamp>,
    /// Freshest master-signed digest stamp that matches this replica's
    /// *applied* state — the anchor served with proof reads.  Deliberately
    /// absent while the replica lags: a correct slave refuses proof reads
    /// it cannot anchor, and a stale server's anchor ages out.
    latest_digest_stamp: Option<StateDigestStamp>,
    last_keepalive_at: SimTime,
    /// Buffered out-of-order updates, keyed by version.  The digest
    /// stamp is `None` for intermediate versions of a batch: the master
    /// signs one anchor — the batch's final version — so only that run
    /// carries a provable digest.
    pending_updates: BTreeMap<u64, (Vec<UpdateOp>, VersionStamp, Option<StateDigestStamp>)>,
    excluded: bool,
    /// Earliest time the next sync request may be sent (rate limit: the
    /// simulated network reorders packets, so most gaps heal by
    /// themselves; only persistent gaps are worth a replay).
    sync_cooldown_until: SimTime,
    /// Highest version this slave consumed-but-dropped (StaleServer only);
    /// keeps gap detection from re-requesting updates it chose to ignore.
    dropped_up_to: u64,
    /// Result-hash bytes of every lie told (joined post-run against client
    /// acceptance logs to measure wrong-accepted reads — the ground-truth
    /// oracle described in DESIGN.md).
    lies_told: HashSet<Vec<u8>>,
    reads_served: u64,
    /// Hot-read fast path: honest proofs memoized per anchor stamp and
    /// shape (see [`Self::cache_key`]), so a flash crowd reading one hot
    /// key costs one proof build plus N pointer bumps.  Wiped wholesale
    /// whenever the anchor or the replica state changes.
    cache: LruByteCache<CachedProof>,
}

/// One entry of the slave's hot-read cache.
#[derive(Clone)]
enum CachedProof {
    /// A whole [`Msg::ProvenReply`], re-sent as a shared allocation.
    Reply(Arc<Msg>),
    /// A stream header proof (chunk payloads are per-request and stay
    /// uncached).
    Header(Box<StreamProof>),
}

impl SlaveProcess {
    /// Creates a slave starting from `db` with the given behaviour.
    pub fn new(
        cfg: SystemConfig,
        db: Database,
        behavior: SlaveBehavior,
        signer: Box<dyn Signer>,
        master_keys: HashMap<NodeId, PublicKey>,
    ) -> Self {
        let budget = cfg.proof_cache_bytes;
        SlaveProcess {
            cfg,
            db,
            behavior,
            signer,
            master_keys,
            latest_stamp: None,
            latest_digest_stamp: None,
            last_keepalive_at: SimTime::ZERO,
            pending_updates: BTreeMap::new(),
            excluded: false,
            sync_cooldown_until: SimTime::ZERO,
            dropped_up_to: 0,
            lies_told: HashSet::new(),
            reads_served: 0,
            cache: LruByteCache::new(budget),
        }
    }

    /// The slave's verification key.
    pub fn public_key(&self) -> PublicKey {
        self.signer.public_key()
    }

    /// Result hashes of lies told so far (test/stats oracle).
    pub fn lies_told(&self) -> &HashSet<Vec<u8>> {
        &self.lies_told
    }

    /// Number of reads served.
    pub fn reads_served(&self) -> u64 {
        self.reads_served
    }

    /// Current replica version (test inspection).
    pub fn version(&self) -> u64 {
        self.db.version()
    }

    /// State digest (test inspection).
    pub fn state_digest(&self) -> sdr_crypto::Hash256 {
        self.db.state_digest()
    }

    /// Whether this slave has been excluded.
    pub fn is_excluded(&self) -> bool {
        self.excluded
    }

    /// Bytes currently held by the hot-read cache (stats gauge).
    pub fn cache_bytes(&self) -> u64 {
        self.cache.bytes() as u64
    }

    /// Cache key of a memoized proof: the anchor stamp's version,
    /// timestamp, *and* digest plus the proven shape — `b"reply"` and the
    /// query encoding, or `b"stream"`, the chunk window and the path.
    /// Version alone would suffice given wholesale invalidation; the
    /// timestamp makes a keep-alive refresh (same version, newer stamp)
    /// miss by construction, and the digest is belt-and-braces against
    /// any anchor/state divergence.
    fn cache_key(anchor: &StateDigestStamp, shape: &[&[u8]]) -> Hash256 {
        let version = anchor.version.to_be_bytes();
        let timestamp = anchor.timestamp.as_micros().to_be_bytes();
        let mut parts: Vec<&[u8]> = vec![
            b"sdr/proven-cache/v1",
            &version,
            &timestamp,
            anchor.digest.as_ref(),
        ];
        parts.extend_from_slice(shape);
        Sha256::digest_parts(&parts)
    }

    /// Probes the hot-read cache, charging one lookup; `None` on a miss
    /// or when caching is off.
    fn cache_get(&mut self, ctx: &mut Ctx<'_, Msg>, key: &Hash256) -> Option<CachedProof> {
        if self.cfg.proof_cache_bytes == 0 {
            return None;
        }
        ctx.charge(ctx.costs().cache_lookup);
        let hit = self.cache.get(key).cloned();
        match &hit {
            Some(_) => ctx.metrics().inc("slave.proof_cache_hit"),
            None => ctx.metrics().inc("slave.proof_cache_miss"),
        }
        hit
    }

    /// Memoizes a freshly built proof (no-op when caching is off).
    fn cache_put(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        key: Hash256,
        entry: CachedProof,
        bytes: usize,
    ) {
        if self.cfg.proof_cache_bytes > 0 {
            let evicted = self.cache.put(key, entry, bytes);
            ctx.metrics().add("slave.proof_cache_evict", evicted);
        }
    }

    /// Wipes the hot-read cache.  Called whenever the proof-read anchor
    /// moves (any newer digest stamp, including same-version keep-alive
    /// refreshes) *and* whenever the replica applies a write — the latter
    /// covers the gap where the database advances but the accompanying
    /// digest stamp is rejected, which would otherwise leave cached
    /// replies proving a state the replica no longer has.
    fn invalidate_caches(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.cache.is_empty() {
            ctx.metrics().inc("slave.proof_cache_invalidate");
        }
        self.cache.clear();
    }

    /// The proof-read anchor this replica currently serves under
    /// (test/stats inspection).
    pub fn digest_anchor(&self) -> Option<&StateDigestStamp> {
        self.latest_digest_stamp.as_ref()
    }

    /// Test hook: plant an arbitrary payload in the reply cache under
    /// the current anchor — models a Byzantine slave poisoning its own
    /// cache.  No-op while the slave has no anchor.
    pub fn poison_reply_cache_for_test(&mut self, query: &Query, reply: Msg) {
        if let Some(anchor) = &self.latest_digest_stamp {
            let key = Self::cache_key(anchor, &[b"reply", &query.encode()]);
            let bytes = reply.wire_len();
            self.cache
                .put(key, CachedProof::Reply(Arc::new(reply)), bytes);
        }
    }

    fn is_fresh(&self, now: SimTime) -> bool {
        match &self.latest_stamp {
            Some(stamp) => now.since(stamp.timestamp) <= self.cfg.max_latency,
            None => false,
        }
    }

    fn accept_stamp(&mut self, stamp: VersionStamp) {
        let newer = match &self.latest_stamp {
            Some(cur) => {
                stamp.version > cur.version
                    || (stamp.version == cur.version && stamp.timestamp > cur.timestamp)
            }
            None => true,
        };
        if newer {
            self.latest_stamp = Some(stamp);
        }
    }

    /// Adopts a digest stamp as the proof-read anchor — only when it
    /// certifies exactly the state this replica has applied.  A stamp for
    /// a version we have not reached (or whose digest contradicts our
    /// own state) is useless for proving and is dropped; an honest slave
    /// that diverged would otherwise serve proofs doomed to fail.
    fn accept_digest_stamp(&mut self, ctx: &mut Ctx<'_, Msg>, stamp: StateDigestStamp) {
        if stamp.version != self.db.version() {
            return;
        }
        if stamp.digest != self.db.state_digest() {
            ctx.metrics().inc("slave.digest_mismatch");
            return;
        }
        let newer = match &self.latest_digest_stamp {
            Some(cur) => {
                stamp.version > cur.version
                    || (stamp.version == cur.version && stamp.timestamp > cur.timestamp)
            }
            None => true,
        };
        if newer {
            // The anchor moved (even a same-version keep-alive refresh):
            // every cached reply carries the old stamp, so none may be
            // served again.
            self.invalidate_caches(ctx);
            self.latest_digest_stamp = Some(stamp);
        }
    }

    /// The version this slave *appears* to be at: applied updates plus any
    /// it silently dropped (StaleServer keeps consuming the stream so it
    /// never looks like it has a gap).
    fn effective_version(&self) -> u64 {
        self.db.version().max(self.dropped_up_to)
    }

    fn apply_ready_updates(&mut self, ctx: &mut Ctx<'_, Msg>) {
        while let Some((&version, _)) = self.pending_updates.first_key_value() {
            if version != self.effective_version() + 1 {
                break;
            }
            let (ops, stamp, digest_stamp) =
                self.pending_updates.remove(&version).expect("present");
            let frozen = matches!(self.behavior, SlaveBehavior::StaleServer { freeze_at }
                if self.effective_version() >= freeze_at);
            if frozen {
                // StaleServer: keep the fresh stamp, drop the data.  The
                // digest stamp is useless to it — its frozen state can
                // never match the certified digest, so its proof-read
                // anchor ages out and that path self-gates.
                self.dropped_up_to = version;
                self.accept_stamp(stamp);
                ctx.metrics().inc("slave.updates_dropped");
                continue;
            }
            let bytes: usize = ops.iter().map(UpdateOp::size).sum();
            ctx.charge(ctx.costs().write_apply * ops.len() as u64);
            ctx.charge(ctx.costs().serde_cost(bytes));
            if self.db.apply_write(&ops).is_ok() {
                ctx.metrics().inc("slave.updates_applied");
                // The replica state moved: cached proofs describe the old
                // state even if the new digest stamp ends up rejected, so
                // wipe before (not only when) the anchor adoption below.
                self.invalidate_caches(ctx);
            }
            self.accept_stamp(stamp);
            if let Some(digest_stamp) = digest_stamp {
                self.accept_digest_stamp(ctx, digest_stamp);
            }
        }
    }

    /// Gap detection: ask the master for anything still missing,
    /// rate-limited so transient network reordering (which heals by
    /// itself) does not trigger replay storms.
    fn request_missing(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId) {
        if let Some((&lowest, _)) = self.pending_updates.first_key_value() {
            if lowest > self.effective_version() + 1 && ctx.now() >= self.sync_cooldown_until {
                self.sync_cooldown_until = ctx.now() + self.cfg.keepalive_period;
                ctx.metrics().inc("slave.sync_requests");
                ctx.send(
                    from,
                    Msg::SlaveSyncRequest {
                        from_version: self.effective_version() + 1,
                    },
                );
            }
        }
    }

    fn serve_read(&mut self, ctx: &mut Ctx<'_, Msg>, client: NodeId, req_id: u64, query: Query) {
        if self.excluded {
            ctx.send(
                client,
                Msg::ReadRefused {
                    req_id,
                    reason: RefuseReason::Excluded,
                },
            );
            return;
        }
        // Freshness self-gate (correct-slave duty from Section 3): "if they
        // behave correctly they should stop handling user requests until
        // they are back in sync".
        if !self.is_fresh(ctx.now()) {
            ctx.metrics().inc("slave.refused_stale");
            ctx.send(
                client,
                Msg::ReadRefused {
                    req_id,
                    reason: RefuseReason::OutOfSync,
                },
            );
            return;
        }
        if let SlaveBehavior::Refuser { prob } = self.behavior {
            if ctx.coin() < prob {
                ctx.metrics().inc("slave.refused_malicious");
                ctx.send(
                    client,
                    Msg::ReadRefused {
                        req_id,
                        reason: RefuseReason::OutOfSync,
                    },
                );
                return;
            }
        }

        let Ok((result, qcost)) = execute(&self.db, &query) else {
            ctx.metrics().inc("slave.query_errors");
            ctx.send(
                client,
                Msg::ReadRefused {
                    req_id,
                    reason: RefuseReason::OutOfSync,
                },
            );
            return;
        };
        ctx.charge(crate::cost::query_charge(&qcost, result.size(), ctx.costs()));
        self.reads_served += 1;
        ctx.metrics().inc("slave.reads");

        // Behaviour: decide what to ship and what to pledge.
        let lie = apply_lie_behavior(self.behavior, ctx, &result);
        let (shipped, pledged_hash_src, lie) = match (self.behavior, lie) {
            // A consistent liar pledges the corrupted hash too.
            (SlaveBehavior::ConsistentLiar { .. }, Some(bad)) => (bad.clone(), bad, true),
            // An inconsistent liar pledges the correct hash, ships garbage.
            (SlaveBehavior::InconsistentLiar { .. }, Some(bad)) => (bad, result, true),
            (_, _) => (result.clone(), result, false),
        };

        let result_hash = ResultHash::of(&pledged_hash_src, self.cfg.pledge_hash);
        ctx.charge(ctx.costs().hash_cost(pledged_hash_src.size()));
        if lie {
            self.record_lie(ctx, &shipped);
        }

        let stamp = self.latest_stamp.clone().expect("fresh implies stamp");
        ctx.charge(ctx.costs().sign);
        let Ok(pledge) = Pledge::build(
            query,
            result_hash,
            stamp,
            ctx.id(),
            self.signer.as_mut(),
        ) else {
            ctx.metrics().inc("slave.sign_failures");
            ctx.send(
                client,
                Msg::ReadRefused {
                    req_id,
                    reason: RefuseReason::OutOfSync,
                },
            );
            return;
        };
        ctx.send(
            client,
            Msg::ReadResponse {
                req_id,
                result: shipped,
                pledge: Box::new(pledge),
            },
        );
    }

    /// Serves a [`Msg::ProvenRead`] against the freshest master-signed
    /// digest stamp — no pledge involved.
    ///
    /// Refuses (like a pledged read) when excluded, when no sufficiently
    /// fresh digest anchor exists, or when the query is not provable
    /// (not a point read, file read, scan or file range, or its table is
    /// missing).  A `ReadFileRange` streams: one [`Msg::StreamHeader`]
    /// carrying the manifest slice proof, then the overlapping chunks as
    /// [`Msg::StreamChunk`]s.  Every other shape gets one content-addressed
    /// [`Msg::ProvenReply`].
    ///
    /// Hot-read fast path: under one anchor the honest proof for a shape
    /// is immutable, so the first build is memoized and every repeat
    /// reader costs one cache probe.  RNG parity: execution and proving
    /// draw no randomness, so the hit and miss paths consume identical
    /// RNG streams (Refuser coin, lie coin) and a run's trace never
    /// depends on cache contents.
    ///
    /// Liars corrupt what they ship, never the proof: forging a proof
    /// against the signed digest would need a hash collision, so a lying
    /// reply dies at the client's fold and a lying stream at exactly the
    /// corrupted chunk.
    fn serve_proven_read(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        client: NodeId,
        req_id: u64,
        query: Query,
    ) {
        let refuse = |ctx: &mut Ctx<'_, Msg>, reason: RefuseReason| {
            ctx.send(client, Msg::ReadRefused { req_id, reason });
        };
        if self.excluded {
            refuse(ctx, RefuseReason::Excluded);
            return;
        }
        // The proof-read self-gate: serve only with an anchor the client
        // will still consider fresh.
        let anchor = match &self.latest_digest_stamp {
            Some(s) if s.is_fresh(ctx.now(), self.cfg.max_latency) => s.clone(),
            _ => {
                ctx.metrics().inc("slave.refused_stale");
                refuse(ctx, RefuseReason::OutOfSync);
                return;
            }
        };
        if let SlaveBehavior::Refuser { prob } = self.behavior {
            if ctx.coin() < prob {
                ctx.metrics().inc("slave.refused_malicious");
                refuse(ctx, RefuseReason::OutOfSync);
                return;
            }
        }

        if let Query::ReadFileRange { path, offset, len } = &query {
            // A slice header proves only the chunk-table rows the byte
            // range overlaps, so keying on the chunk window — not the
            // raw `(offset, len)` — lets every read landing in the same
            // chunks share one header.  `(u64::MAX, u64::MAX)` keys the
            // absent-file header.
            let window = self
                .db
                .fs()
                .manifest(path)
                .map_or((u64::MAX, u64::MAX), |m| {
                    let (a, b) = m.chunk_range(*offset, *len);
                    (a as u64, b as u64)
                });
            let key = Self::cache_key(
                &anchor,
                &[
                    b"stream",
                    &window.0.to_be_bytes(),
                    &window.1.to_be_bytes(),
                    path.as_bytes(),
                ],
            );
            let proof = match self.cache_get(ctx, &key) {
                Some(CachedProof::Header(p)) => {
                    if self.cfg.cache_verify {
                        // Host-side oracle: rebuild fresh and compare.
                        // No charges — virtual time must not see it.
                        let fresh = self.db.prove_stream(path, *offset, *len);
                        if format!("{fresh:?}") != format!("{p:?}") {
                            ctx.metrics().inc("slave.cache_divergence");
                        }
                    }
                    p
                }
                _ => {
                    let p = Box::new(self.db.prove_stream(path, *offset, *len));
                    // Header assembly re-hashes only the O(log n) path.
                    ctx.charge(ctx.costs().hash_cost(64) * (1 + p.depth() as u64));
                    let bytes = p.wire_len();
                    self.cache_put(ctx, key, CachedProof::Header(p.clone()), bytes);
                    p
                }
            };
            // The slice already covers exactly the chunks overlapping the
            // requested byte range; stream them at their absolute indexes.
            let (first, end) = proof.slice.as_ref().map_or((0, 0), |s| {
                (s.first as usize, s.first as usize + s.entries.len())
            });
            let mut chunks: Vec<(u32, Vec<u8>)> = proof
                .slice
                .as_ref()
                .map(|s| s.entries.as_slice())
                .unwrap_or_default()
                .iter()
                .enumerate()
                .filter_map(|(rel, entry)| {
                    let data = self.db.fs().chunk_bytes(&entry.id)?.to_vec();
                    Some(((first + rel) as u32, data))
                })
                .collect();
            if chunks.len() != end - first {
                // A manifest chunk missing from the store means replica
                // corruption; refusing beats streaming a doomed proof.
                ctx.metrics().inc("slave.query_errors");
                refuse(ctx, RefuseReason::OutOfSync);
                return;
            }
            let streamed: usize = chunks.iter().map(|(_, d)| d.len()).sum();
            ctx.charge(ctx.costs().serde_cost(streamed));
            self.reads_served += 1;
            ctx.metrics().inc("slave.reads");
            ctx.metrics().inc("slave.stream_reads");

            // Liars corrupt one chunk's bytes; the header stays honest.
            let lie_coin = match self.behavior {
                SlaveBehavior::ConsistentLiar { prob, .. }
                | SlaveBehavior::InconsistentLiar { prob } => ctx.coin() < prob,
                _ => false,
            };
            if lie_coin {
                if let Some((_, data)) = chunks.last_mut() {
                    data[0] ^= 0x5a;
                    let forged =
                        QueryResult::Text(Some(String::from_utf8_lossy(data).into_owned()));
                    self.record_lie(ctx, &forged);
                }
            }
            ctx.send(
                client,
                Msg::StreamHeader {
                    req_id,
                    proof,
                    digest_stamp: anchor,
                    first_chunk: first as u32,
                    chunk_count: (end - first) as u32,
                },
            );
            for (index, data) in chunks {
                ctx.send(
                    client,
                    Msg::StreamChunk {
                        req_id,
                        index,
                        data,
                    },
                );
            }
            return;
        }

        let key = Self::cache_key(&anchor, &[b"reply", &query.encode()]);
        let (reply, cached) = match self.cache_get(ctx, &key) {
            Some(CachedProof::Reply(reply)) => {
                if self.cfg.cache_verify {
                    // Host-side oracle, as for stream headers above.
                    let fresh = self.build_proven_reply(&query, &anchor);
                    if fresh.as_ref().map(|m| format!("{m:?}")) != Some(format!("{:?}", *reply)) {
                        ctx.metrics().inc("slave.cache_divergence");
                    }
                }
                (reply, true)
            }
            _ => {
                let Ok((result, qcost)) = execute(&self.db, &query) else {
                    ctx.metrics().inc("slave.query_errors");
                    refuse(ctx, RefuseReason::OutOfSync);
                    return;
                };
                ctx.charge(crate::cost::query_charge(
                    &qcost,
                    result.size(),
                    ctx.costs(),
                ));
                let Some(Ok(proof)) = self.db.prove_query(&query) else {
                    // No Merkle path for this shape, or the table is gone.
                    ctx.metrics().inc("slave.proof_unsupported");
                    refuse(ctx, RefuseReason::OutOfSync);
                    return;
                };
                // Proof assembly re-hashes only the O(log n + k) path.
                ctx.charge(ctx.costs().hash_cost(64) * (1 + proof.depth() as u64));
                let reply = Arc::new(Msg::ProvenReply {
                    query: Box::new(query.clone()),
                    result,
                    proof: Box::new(proof),
                    digest_stamp: anchor,
                });
                let bytes = reply.wire_len();
                self.cache_put(ctx, key, CachedProof::Reply(Arc::clone(&reply)), bytes);
                (reply, false)
            }
        };
        self.reads_served += 1;
        ctx.metrics().inc("slave.reads");
        ctx.metrics().inc("slave.proof_reads");
        if matches!(query, Query::ScanRange { .. }) {
            ctx.metrics().inc("slave.range_reads");
        }
        // The cache always holds the honest reply; liars corrupt a
        // per-request copy of the result.
        let lie = match &*reply {
            Msg::ProvenReply { result, .. } => apply_lie_behavior(self.behavior, ctx, result),
            _ => None, // Poisoned by the test hook with junk.
        };
        match lie {
            Some(bad) => {
                self.record_lie(ctx, &bad);
                let mut forged = (*reply).clone();
                if let Msg::ProvenReply { result, .. } = &mut forged {
                    *result = bad;
                }
                ctx.send(client, forged);
            }
            None if cached => ctx.send_cached(client, reply),
            None => ctx.send_shared(client, reply),
        }
    }

    /// Books one lie for the wrong-accept oracle.
    fn record_lie(&mut self, ctx: &mut Ctx<'_, Msg>, shipped: &QueryResult) {
        ctx.metrics().inc("slave.lies");
        self.lies_told.insert(
            ResultHash::of(shipped, self.cfg.pledge_hash)
                .bytes()
                .to_vec(),
        );
    }

    /// Rebuilds the honest proven reply from scratch (the `cache_verify`
    /// oracle); returns `None` when the query no longer executes/proves.
    fn build_proven_reply(&self, query: &Query, anchor: &StateDigestStamp) -> Option<Msg> {
        let (result, _) = execute(&self.db, query).ok()?;
        let proof = self.db.prove_query(query)?.ok()?;
        Some(Msg::ProvenReply {
            query: Box::new(query.clone()),
            result,
            proof: Box::new(proof),
            digest_stamp: anchor.clone(),
        })
    }
}

impl Process<Msg> for SlaveProcess {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::ReadRequest { req_id, query } => self.serve_read(ctx, from, req_id, query),
            Msg::ProvenRead { req_id, query } => self.serve_proven_read(ctx, from, req_id, query),
            Msg::KeepAlive {
                stamp,
                digest_stamp,
            } => {
                // Only stamps genuinely signed by a known master count.
                ctx.charge(ctx.costs().verify * 2);
                let valid = self
                    .master_keys
                    .get(&stamp.master)
                    .is_some_and(|k| stamp.verify(k).is_ok() && digest_stamp.verify(k).is_ok());
                if valid {
                    self.last_keepalive_at = ctx.now();
                    self.accept_stamp(stamp);
                    self.accept_digest_stamp(ctx, digest_stamp);
                } else {
                    ctx.metrics().inc("slave.bad_keepalives");
                }
            }
            Msg::StateUpdate {
                version,
                ops,
                stamp,
                digest_stamp,
            } => {
                ctx.charge(ctx.costs().verify * 2);
                let valid = self
                    .master_keys
                    .get(&stamp.master)
                    .is_some_and(|k| stamp.verify(k).is_ok() && digest_stamp.verify(k).is_ok());
                if !valid {
                    ctx.metrics().inc("slave.bad_updates");
                    return;
                }
                if version > self.effective_version() {
                    self.pending_updates
                        .insert(version, (ops, stamp, Some(digest_stamp)));
                }
                self.apply_ready_updates(ctx);
                self.request_missing(ctx, from);
            }
            Msg::StateUpdateBatch {
                updates,
                stamp,
                digest_stamp,
            } => {
                // One stamp pair covers the whole batch: verify twice,
                // not 2 x batch.  The version stamp certifies the final
                // version; every run in the batch rides that signature.
                ctx.charge(ctx.costs().verify * 2);
                let valid = self
                    .master_keys
                    .get(&stamp.master)
                    .is_some_and(|k| stamp.verify(k).is_ok() && digest_stamp.verify(k).is_ok());
                if !valid {
                    ctx.metrics().inc("slave.bad_updates");
                    return;
                }
                let last = updates.last().map(|(v, _)| *v);
                for (version, ops) in updates {
                    if version <= self.effective_version() {
                        continue;
                    }
                    // Only the batch's final version carries the signed
                    // digest anchor; intermediates apply without one (a
                    // mid-batch digest was never signed).
                    let anchor = (Some(version) == last).then(|| digest_stamp.clone());
                    self.pending_updates
                        .insert(version, (ops, stamp.clone(), anchor));
                }
                self.apply_ready_updates(ctx);
                self.request_missing(ctx, from);
            }
            Msg::ExcludeNotice => {
                self.excluded = true;
                ctx.metrics().inc("slave.excluded_notices");
            }
            _ => {}
        }
    }

    fn name(&self) -> String {
        format!("slave({:?})", self.behavior)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_always_changes_hash() {
        let samples = vec![
            QueryResult::Rows(vec![]),
            QueryResult::Rows(vec![(1, Document::new().with("a", 1i64))]),
            QueryResult::Scalar(Value::Int(5)),
            QueryResult::Scalar(Value::Str("x".into())),
            QueryResult::Groups(vec![]),
            QueryResult::Groups(vec![(Value::Int(1), Value::Int(2))]),
            QueryResult::Text(None),
            QueryResult::Text(Some("abc".into())),
            QueryResult::Matches(vec![]),
            QueryResult::Paths(vec![]),
            QueryResult::Paths(vec!["/a".into()]),
        ];
        for r in samples {
            let c = corrupt(&r, 0);
            assert_ne!(r.sha1(), c.sha1(), "corrupt({r:?}) did not change hash");
            // Different salts give different forgeries for non-empty cases
            // where the salt lands in the payload.
            let c2 = corrupt(&r, 7);
            if matches!(
                r,
                QueryResult::Scalar(_) | QueryResult::Text(_) | QueryResult::Rows(_)
            ) {
                assert_ne!(c.sha1(), c2.sha1(), "salt ignored for {r:?}");
            }
        }
    }

    #[test]
    fn behavior_malice_flags() {
        assert!(!SlaveBehavior::Honest.is_malicious());
        assert!(SlaveBehavior::ConsistentLiar {
            prob: 0.1,
            collude: false
        }
        .is_malicious());
        assert!(SlaveBehavior::StaleServer { freeze_at: 1 }.is_malicious());
    }
}
