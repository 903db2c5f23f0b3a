//! Client-side response verification: the two read-acceptance strategies.
//!
//! Every read a client accepts went through exactly one of two pipelines:
//!
//! * **Pledged** ([`verify_pledged_read`]) — Section 3.2's checks for
//!   computed queries: result hash matches the pledge, slave signature
//!   over the pledge, master signature over the version stamp, and stamp
//!   freshness under the client's own `max_latency`.  Acceptance is
//!   provisional: the pledge still goes to the auditor (or a sampled
//!   double-check) because a consistent liar passes all four checks.
//! * **Proof-verified** ([`verify_proven`]) — the answer to a
//!   [`Msg::ProvenRead`](crate::messages::Msg::ProvenRead): point reads
//!   (`GetRow`, `ReadFile`) and key scans (`ScanRange`) delivered as a
//!   [`Msg::ProvenReply`](crate::messages::Msg::ProvenReply), and the
//!   header of a streamed `ReadFileRange`.  Known responder, master
//!   signature over the *state digest* stamp, stamp freshness, and a
//!   Merkle fold from the delivered answer to the signed digest.
//!   Acceptance is final: a wrong answer cannot carry a valid proof, so
//!   the auditor and the double-check machinery are skipped entirely.
//!
//! Both pipelines are built from the same helpers and report a
//! structured [`RejectReason`] instead of a bare bool, so metrics,
//! retries, and fallbacks can react to *why* a response died.

use crate::messages::{StateDigestStamp, VersionStamp};
use crate::pledge::Pledge;
use sdr_crypto::PublicKey;
use sdr_sim::{NodeId, SimDuration, SimTime};
use sdr_store::{ProofError, Query, QueryResult, StateProof, StreamProof};

/// Why a read response was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Delivered result does not hash to the pledged value
    /// (inconsistent liar — caught instantly).
    HashMismatch,
    /// Response came from a node the client never set up with.
    UnknownSlave,
    /// The slave's signature over the pledge does not verify.
    BadSlaveSignature,
    /// The master's signature over the (version or digest) stamp does
    /// not verify, or the stamping master is unknown.
    BadStampSignature,
    /// The stamp is older than the client's freshness bound.
    Stale,
    /// The Merkle path proof failed (wrong content, spliced path, or
    /// stale digest) — deterministic lie detection on the proof path.
    BadProof(ProofError),
}

impl RejectReason {
    /// Metric counter this rejection increments.
    pub fn metric(&self) -> &'static str {
        match self {
            RejectReason::HashMismatch => "read.rejected.hash",
            RejectReason::UnknownSlave => "read.rejected.unknown_slave",
            RejectReason::BadSlaveSignature => "read.rejected.sig",
            RejectReason::BadStampSignature => "read.rejected.stamp_sig",
            RejectReason::Stale => "read.rejected.stale",
            RejectReason::BadProof(_) => "read.rejected.proof",
        }
    }
}

/// Which pipeline serves a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadStrategy {
    /// Pledge + double-check/audit (computed queries).
    Pledged,
    /// Merkle-path proof against the signed state digest (static point
    /// reads).
    Proof,
}

/// Picks the read strategy for a query: static point lookups, streamed
/// file ranges (which verify chunk-by-chunk against the manifest slice
/// proof), and key-range scans (which verify against an O(log n + k)
/// range proof) take the proof path when it is enabled; everything
/// computed stays pledged.
pub fn strategy_for(query: &Query, proof_reads_enabled: bool) -> ReadStrategy {
    match query {
        Query::GetRow { .. }
        | Query::ReadFile { .. }
        | Query::ReadFileRange { .. }
        | Query::ScanRange { .. }
            if proof_reads_enabled =>
        {
            ReadStrategy::Proof
        }
        _ => ReadStrategy::Pledged,
    }
}

/// The keys and bounds a verification runs against.  In a sharded
/// deployment this is the *owning shard's* environment: only that
/// subgroup's masters and replicas are acceptable signers here.
pub struct VerifyEnv<'a> {
    /// Known masters and their verification keys.
    pub masters: &'a [(NodeId, PublicKey)],
    /// The client's assigned slaves and their verification keys.
    pub slaves: &'a [(NodeId, PublicKey)],
    /// Spare replicas of the same shard (proof-retry targets); their
    /// certificates were verified at setup like the assigned slaves'.
    pub spares: &'a [(NodeId, PublicKey)],
    /// Current simulation time.
    pub now: SimTime,
    /// This client's freshness bound (possibly relaxed; Section 3.2).
    pub max_latency: SimDuration,
}

impl VerifyEnv<'_> {
    fn master_key(&self, master: NodeId) -> Option<&PublicKey> {
        self.masters
            .iter()
            .find(|(n, _)| *n == master)
            .map(|(_, k)| k)
    }

    fn slave_key(&self, slave: NodeId) -> Option<&PublicKey> {
        self.slaves
            .iter()
            .chain(self.spares.iter())
            .find(|(n, _)| *n == slave)
            .map(|(_, k)| k)
    }

    /// Current verification key of `master`, if it belongs to this
    /// shard's subgroup.  Exposed for the client's stamp-verification
    /// cache, whose entries bind the statement to the exact key it
    /// verified under (a key rotation therefore misses, never hits).
    pub fn master_key_of(&self, master: NodeId) -> Option<&PublicKey> {
        self.master_key(master)
    }

    /// Whether `slave` is an acceptable proof responder here (an
    /// assigned replica or a setup-issued spare of the shard).
    pub fn knows_slave(&self, slave: NodeId) -> bool {
        self.slave_key(slave).is_some()
    }
}

/// Step: the delivered result hashes to the pledged value.
pub fn check_result_hash(pledge: &Pledge, result: &QueryResult) -> Result<(), RejectReason> {
    if pledge.matches_result(result) {
        Ok(())
    } else {
        Err(RejectReason::HashMismatch)
    }
}

/// Step: the responding slave is known and its pledge signature holds.
pub fn check_slave_signature(
    env: &VerifyEnv<'_>,
    from: NodeId,
    pledge: &Pledge,
) -> Result<(), RejectReason> {
    let key = env.slave_key(from).ok_or(RejectReason::UnknownSlave)?;
    pledge
        .verify_signature(key)
        .map_err(|_| RejectReason::BadSlaveSignature)
}

/// Step: the version stamp is signed by a known master.
pub fn check_version_stamp(
    env: &VerifyEnv<'_>,
    stamp: &VersionStamp,
) -> Result<(), RejectReason> {
    env.master_key(stamp.master)
        .and_then(|k| stamp.verify(k).ok())
        .ok_or(RejectReason::BadStampSignature)
}

/// Step: the digest stamp is signed by a known master.
pub fn check_digest_stamp(
    env: &VerifyEnv<'_>,
    stamp: &StateDigestStamp,
) -> Result<(), RejectReason> {
    env.master_key(stamp.master)
        .and_then(|k| stamp.verify(k).ok())
        .ok_or(RejectReason::BadStampSignature)
}

/// Step: a stamp timestamp is within the client's freshness bound.
pub fn check_freshness(env: &VerifyEnv<'_>, stamped_at: SimTime) -> Result<(), RejectReason> {
    if env.now.since(stamped_at) <= env.max_latency {
        Ok(())
    } else {
        Err(RejectReason::Stale)
    }
}

/// Full pledged-read verification (Section 3.2's client checks, in
/// order: hash, slave signature, stamp signature, freshness).
pub fn verify_pledged_read(
    env: &VerifyEnv<'_>,
    from: NodeId,
    result: &QueryResult,
    pledge: &Pledge,
) -> Result<(), RejectReason> {
    check_result_hash(pledge, result)?;
    check_slave_signature(env, from, pledge)?;
    check_version_stamp(env, &pledge.stamp)?;
    check_freshness(env, pledge.stamp.timestamp)
}

/// What a proven read delivered, to be folded to the signed digest.
#[derive(Clone, Copy, Debug)]
pub enum ProvenAnswer<'a> {
    /// A point, file or scan result and the proof claimed to cover it.
    Result(&'a QueryResult, &'a StateProof),
    /// A stream header.  Once it verifies, each arriving chunk is checked
    /// with [`StreamProof::verify_chunk`] — no further trust in the
    /// slave, and no buffering of the file.
    Header(&'a StreamProof),
}

impl ProvenAnswer<'_> {
    /// Path depth of the proof: what one fold costs, in hash steps.
    pub fn depth(&self) -> usize {
        match self {
            ProvenAnswer::Result(_, proof) => proof.depth(),
            ProvenAnswer::Header(proof) => proof.depth(),
        }
    }
}

/// Full proven-read verification, in order: known responder, digest
/// stamp signature (`check_stamp`), for a stream header that it proves
/// the requested path, stamp freshness, then the Merkle fold from the
/// answer to the signed digest.
///
/// `check_stamp` is the signature step: pass [`check_digest_stamp`] to
/// verify every time, or a memo that skips statements it has already
/// verified.  Freshness is never memoized — the same stamp goes stale as
/// time passes — and the fold always runs, because it is what ties
/// *this* answer to the signed digest.
pub fn verify_proven(
    env: &VerifyEnv<'_>,
    from: NodeId,
    query: &Query,
    answer: ProvenAnswer<'_>,
    stamp: &StateDigestStamp,
    check_stamp: impl FnOnce(&VerifyEnv<'_>, &StateDigestStamp) -> Result<(), RejectReason>,
) -> Result<(), RejectReason> {
    if !env.knows_slave(from) {
        return Err(RejectReason::UnknownSlave);
    }
    check_stamp(env, stamp)?;
    if let ProvenAnswer::Header(proof) = answer {
        if !matches!(query, Query::ReadFileRange { path, .. } if *path == proof.path) {
            return Err(RejectReason::BadProof(ProofError::ShapeMismatch));
        }
    }
    check_freshness(env, stamp.timestamp)?;
    match answer {
        ProvenAnswer::Result(result, proof) => {
            proof.verify_result(&stamp.digest, stamp.version, query, result)
        }
        ProvenAnswer::Header(proof) => proof.verify_header(&stamp.digest, stamp.version),
    }
    .map_err(RejectReason::BadProof)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HashAlgo;
    use crate::pledge::ResultHash;
    use sdr_crypto::{HmacSigner, Signer as _};
    use sdr_store::{Database, Document, UpdateOp, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.apply_write(&[
            UpdateOp::CreateTable {
                table: "t".into(),
                indexes: vec![],
            },
            UpdateOp::Insert {
                table: "t".into(),
                key: 7,
                doc: Document::new().with("v", 7i64),
            },
        ])
        .unwrap();
        db
    }

    struct Fixture {
        master: HmacSigner,
        slave: HmacSigner,
        masters: Vec<(NodeId, PublicKey)>,
        slaves: Vec<(NodeId, PublicKey)>,
    }

    fn fixture() -> Fixture {
        let master = HmacSigner::from_seed_label(1, b"m");
        let slave = HmacSigner::from_seed_label(2, b"s");
        Fixture {
            masters: vec![(NodeId(0), master.public_key())],
            slaves: vec![(NodeId(5), slave.public_key())],
            master,
            slave,
        }
    }

    fn env<'a>(f: &'a Fixture, now_ms: u64) -> VerifyEnv<'a> {
        VerifyEnv {
            masters: &f.masters,
            slaves: &f.slaves,
            spares: &[],
            now: SimTime::from_millis(now_ms),
            max_latency: SimDuration::from_millis(500),
        }
    }

    #[test]
    fn strategy_picks_proof_only_for_static_reads() {
        let get = Query::GetRow {
            table: "t".into(),
            key: 1,
        };
        let grep = Query::Grep {
            pattern: "x".into(),
            prefix: "/".into(),
        };
        assert_eq!(strategy_for(&get, true), ReadStrategy::Proof);
        assert_eq!(strategy_for(&get, false), ReadStrategy::Pledged);
        assert_eq!(strategy_for(&grep, true), ReadStrategy::Pledged);
        assert_eq!(
            strategy_for(&Query::ReadFile { path: "/a".into() }, true),
            ReadStrategy::Proof
        );
        let range = Query::ReadFileRange {
            path: "/a".into(),
            offset: 0,
            len: 10,
        };
        assert_eq!(strategy_for(&range, true), ReadStrategy::Proof);
        assert_eq!(strategy_for(&range, false), ReadStrategy::Pledged);
        let scan = Query::ScanRange {
            table: "t".into(),
            start: 1,
            end: 100,
        };
        assert_eq!(strategy_for(&scan, true), ReadStrategy::Proof);
        assert_eq!(strategy_for(&scan, false), ReadStrategy::Pledged);
        // The legacy limit-truncatable Range stays pledged: truncation
        // makes its answer a computed result, not a provable slice.
        let legacy = Query::Range {
            table: "t".into(),
            low: 1,
            high: 100,
            limit: Some(10),
        };
        assert_eq!(strategy_for(&legacy, true), ReadStrategy::Pledged);
    }

    #[test]
    fn pledged_pipeline_reports_each_failure() {
        let mut f = fixture();
        let query = Query::GetRow {
            table: "t".into(),
            key: 7,
        };
        let result = QueryResult::Scalar(Value::Int(9));
        let stamp =
            VersionStamp::build(1, SimTime::from_millis(100), NodeId(0), &mut f.master).unwrap();
        let pledge = Pledge::build(
            query,
            ResultHash::of(&result, HashAlgo::Sha1),
            stamp,
            NodeId(5),
            &mut f.slave,
        )
        .unwrap();

        verify_pledged_read(&env(&f, 200), NodeId(5), &result, &pledge).unwrap();

        // Wrong result → hash mismatch.
        let wrong = QueryResult::Scalar(Value::Int(10));
        assert_eq!(
            verify_pledged_read(&env(&f, 200), NodeId(5), &wrong, &pledge),
            Err(RejectReason::HashMismatch)
        );
        // Unknown responder.
        assert_eq!(
            verify_pledged_read(&env(&f, 200), NodeId(99), &result, &pledge),
            Err(RejectReason::UnknownSlave)
        );
        // Tampered stamp → master signature dies.
        let mut forged = pledge.clone();
        forged.stamp.version += 1;
        assert_eq!(
            verify_pledged_read(&env(&f, 200), NodeId(5), &result, &forged),
            Err(RejectReason::BadSlaveSignature)
        );
        // Staleness under the client bound.
        assert_eq!(
            verify_pledged_read(&env(&f, 2_000), NodeId(5), &result, &pledge),
            Err(RejectReason::Stale)
        );
    }

    /// A database holding rows 10..30 beside row 7, and one file `/big`
    /// large enough to span several chunks, with a stamp over its state.
    struct Proven {
        f: Fixture,
        db: Database,
        contents: String,
        stamp: StateDigestStamp,
    }

    fn proven() -> Proven {
        let mut f = fixture();
        let mut db = db();
        let mut ops: Vec<UpdateOp> = (10..30)
            .map(|k| UpdateOp::Insert {
                table: "t".into(),
                key: k,
                doc: Document::new().with("v", k as i64),
            })
            .collect();
        let contents: String = (0..800)
            .map(|l| format!("line {l:04} of streamed data\n"))
            .collect();
        ops.push(UpdateOp::WriteFile {
            path: "/big".into(),
            contents: contents.clone(),
        });
        db.apply_write(&ops).unwrap();
        let stamp = StateDigestStamp::build(
            db.version(),
            db.state_digest(),
            SimTime::from_millis(100),
            NodeId(0),
            &mut f.master,
        )
        .unwrap();
        Proven {
            f,
            db,
            contents,
            stamp,
        }
    }

    /// One table, shared by every proven shape: {accept, unknown
    /// responder, forged stamp, stale, bad proof}.  `lie` is answered to
    /// `lie_query` under the honest stamp and must die as a bad proof.
    fn assert_proven_table(
        p: &Proven,
        query: &Query,
        honest: ProvenAnswer<'_>,
        lie_query: &Query,
        lie: ProvenAnswer<'_>,
    ) {
        let mut forged = p.stamp.clone();
        forged.version += 1;
        let verify = |now_ms, from, query, answer, stamp| {
            verify_proven(
                &env(&p.f, now_ms),
                NodeId(from),
                query,
                answer,
                stamp,
                check_digest_stamp,
            )
        };
        assert_eq!(verify(200, 5, query, honest, &p.stamp), Ok(()));
        assert_eq!(
            verify(200, 99, query, honest, &p.stamp),
            Err(RejectReason::UnknownSlave)
        );
        assert_eq!(
            verify(200, 5, query, honest, &forged),
            Err(RejectReason::BadStampSignature)
        );
        assert_eq!(
            verify(2_000, 5, query, honest, &p.stamp),
            Err(RejectReason::Stale)
        );
        assert!(matches!(
            verify(200, 5, lie_query, lie, &p.stamp),
            Err(RejectReason::BadProof(_))
        ));
    }

    #[test]
    fn proof_pipeline_accepts_true_answers_and_kills_lies() {
        let p = proven();
        // Point read; the lie is a corrupted row under the honest proof.
        let get = Query::GetRow {
            table: "t".into(),
            key: 7,
        };
        let (result, _) = sdr_store::execute(&p.db, &get).unwrap();
        let proof = p.db.prove_row("t", 7).unwrap();
        let lie = QueryResult::Rows(vec![(7, Document::new().with("v", 666i64))]);
        assert_proven_table(
            &p,
            &get,
            ProvenAnswer::Result(&result, &proof),
            &get,
            ProvenAnswer::Result(&lie, &proof),
        );
    }

    #[test]
    fn range_scan_pipeline_accepts_complete_answers_and_kills_omissions() {
        let p = proven();
        let scan = Query::ScanRange {
            table: "t".into(),
            start: 12,
            end: 25,
        };
        let (result, _) = sdr_store::execute(&p.db, &scan).unwrap();
        let proof = p.db.prove_scan("t", 12, 25).unwrap();
        // The lie omits a row from the middle of the scan — range proofs
        // prove completeness, not just membership.
        let QueryResult::Rows(rows) = &result else {
            panic!("rows")
        };
        let mut omitted = rows.clone();
        omitted.remove(5);
        let lie = QueryResult::Rows(omitted);
        assert_proven_table(
            &p,
            &scan,
            ProvenAnswer::Result(&result, &proof),
            &scan,
            ProvenAnswer::Result(&lie, &proof),
        );
    }

    #[test]
    fn stream_header_pipeline_checks_path_stamp_and_fold() {
        let p = proven();
        let len = p.contents.len() as u64;
        let stream = Query::ReadFileRange {
            path: "/big".into(),
            offset: 0,
            len,
        };
        let proof = p.db.prove_stream("/big", 0, len);
        // The lie is the honest header offered for another path.
        let other_path = Query::ReadFileRange {
            path: "/other".into(),
            offset: 0,
            len: 8,
        };
        assert_proven_table(
            &p,
            &stream,
            ProvenAnswer::Header(&proof),
            &other_path,
            ProvenAnswer::Header(&proof),
        );

        // After the header, chunks verify one by one against the slice.
        let slice = proof.slice.as_ref().unwrap();
        let mut off = 0usize;
        for (i, e) in slice.entries.iter().enumerate() {
            proof
                .verify_chunk(i, &p.contents.as_bytes()[off..off + e.len as usize])
                .unwrap();
            off += e.len as usize;
        }
    }
}
