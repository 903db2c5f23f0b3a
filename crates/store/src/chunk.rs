//! Content-defined chunking and the content-addressed chunk store.
//!
//! Files are split at *content-defined* cut points found by a gear
//! rolling hash, so an edit moves only the chunk boundaries near the
//! touched bytes: appending to a file re-chunks the tail chunk alone,
//! and two files sharing most of their content share most of their
//! chunks.  Chunks are stored once, keyed by their commitment digest
//! ([`ChunkId`], `sdr_crypto::chunk_hash`) and reference-counted across
//! files ([`ChunkStore`]); each file keeps a [`FileManifest`] — the
//! ordered list of chunk digests and lengths — whose canonical encoding
//! is what the file tree's Merkle digest commits to.  A streamed read
//! therefore verifies chunk-by-chunk: manifest entry → chunk digest →
//! chunk bytes, with the manifest itself bound to the master-signed
//! state digest by an O(log n) inclusion proof.
//!
//! Chunking is fully deterministic (a compile-time gear table, no
//! platform-dependent state), and the rolling hash *restarts at every
//! cut*, so the boundaries after a cut depend only on the bytes after
//! it.  That restart is what makes appends O(chunk): re-chunking
//! `tail-chunk ‖ appended-bytes` yields exactly the chunks a
//! from-scratch pass over the whole file would produce past the old
//! tail boundary.

use crate::pmap::{MerkleContent, PKey, PMap, ProofError};
use sdr_crypto::merkle::leaf_hash;
use sdr_crypto::{chunk_hash, Hash256, MerkleRangeProof, MerkleTree};
use serde::{Deserialize, Serialize};

/// No cut point is considered before a chunk reaches this many bytes.
pub const MIN_CHUNK: usize = 256;
/// A cut is forced once a chunk reaches this many bytes.
pub const MAX_CHUNK: usize = 4096;
/// Bits of the rolling hash a cut point must zero: expected chunk size
/// is `MIN_CHUNK + 2^CUT_BITS` (~1.25 KiB) between the hard bounds.
pub const CUT_BITS: u32 = 10;

/// The judged hash window: bits 16..16+[`CUT_BITS`], so a cut decision
/// depends on roughly the last 26 bytes — comfortably inside the
/// [`MIN_CHUNK`] restart guard.
const CUT_MASK: u64 = ((1u64 << CUT_BITS) - 1) << 16;

/// Deterministic gear table: one 64-bit mixing constant per byte value,
/// generated at compile time so chunk boundaries are identical on every
/// platform and build.
const GEAR: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = splitmix64(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
        i += 1;
    }
    table
};

const fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Splits `data` into content-defined `[start, end)` spans.
///
/// Invariants: spans are contiguous, cover `data` exactly, every span
/// except possibly the last is in `[MIN_CHUNK, MAX_CHUNK]`, and empty
/// input yields no spans.
pub fn chunk_spans(data: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::with_capacity(data.len() / MIN_CHUNK + 1);
    let mut start = 0usize;
    let mut h = 0u64;
    for (i, &b) in data.iter().enumerate() {
        h = (h << 1).wrapping_add(GEAR[b as usize]);
        let len = i + 1 - start;
        if (len >= MIN_CHUNK && h & CUT_MASK == 0) || len == MAX_CHUNK {
            spans.push((start, i + 1));
            start = i + 1;
            h = 0; // Restart: later boundaries depend only on later bytes.
        }
    }
    if start < data.len() {
        spans.push((start, data.len()));
    }
    spans
}

/// Identity of one chunk: the domain-separated digest of its bytes
/// (`sdr_crypto::chunk_hash`).  The chunk store's key, and what file
/// manifests embed per chunk.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct ChunkId(pub Hash256);

impl ChunkId {
    /// The id of a chunk with these bytes.
    pub fn of(data: &[u8]) -> Self {
        ChunkId(chunk_hash(data))
    }
}

impl PKey for ChunkId {
    fn encode_key(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.0.as_ref());
    }
}

/// One manifest entry: a chunk's id and its length in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// The chunk's content digest.
    pub id: ChunkId,
    /// The chunk's length in bytes.
    pub len: u32,
}

/// The ordered chunk list of one file.
///
/// This is the value the file tree ([`crate::fsview::FsView`]) stores
/// per path, so the state digest commits to *chunk digests* rather than
/// raw contents — verifying any single chunk against an inclusion proof
/// of the manifest authenticates that chunk without the rest of the
/// file.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileManifest {
    /// Total file length in bytes (the sum of the entry lengths).
    pub total_len: u64,
    /// The chunks, in file order.
    pub chunks: Vec<ManifestEntry>,
}

impl FileManifest {
    /// Chunks `data` from scratch into its manifest (without touching
    /// any store).  This is also what proof *verifiers* run over claimed
    /// contents: determinism makes the manifest recomputable anywhere.
    pub fn of(data: &[u8]) -> Self {
        let chunks = chunk_spans(data)
            .into_iter()
            .map(|(s, e)| ManifestEntry {
                id: ChunkId::of(&data[s..e]),
                len: (e - s) as u32,
            })
            .collect();
        FileManifest {
            total_len: data.len() as u64,
            chunks,
        }
    }

    /// Indexes `[first, end)` of the chunks overlapping the byte range
    /// `[offset, offset + len)`, clamped to the file.
    pub fn chunk_range(&self, offset: u64, len: u64) -> (usize, usize) {
        let lo = offset.min(self.total_len);
        let hi = offset.saturating_add(len).min(self.total_len);
        let (mut first, mut end) = (self.chunks.len(), self.chunks.len());
        let mut pos = 0u64;
        for (i, entry) in self.chunks.iter().enumerate() {
            let next = pos + u64::from(entry.len);
            if first == self.chunks.len() && lo < next {
                first = i;
            }
            if hi <= next {
                end = i + 1;
                break;
            }
            pos = next;
        }
        if lo >= hi {
            return (0, 0);
        }
        (first, end)
    }

    /// Byte offset where chunk `index` starts.
    pub fn chunk_offset(&self, index: usize) -> u64 {
        self.chunks[..index.min(self.chunks.len())]
            .iter()
            .map(|e| u64::from(e.len))
            .sum()
    }

    /// The Merkle root over the chunk-entry leaves (see `entry_leaf`).
    ///
    /// This is what [`FileManifest::content_encode`] commits to, so a
    /// contiguous *slice* of the chunk table can be authenticated with a
    /// [`MerkleRangeProof`] instead of shipping the whole table.
    pub fn chunks_root(&self) -> Hash256 {
        chunks_root_of(&self.chunks)
    }

    /// The slice of this manifest covering the byte range
    /// `[offset, offset + len)`, with its range proof against
    /// [`FileManifest::chunks_root`].  An empty overlap (or empty file)
    /// yields an entry-less slice whose header still binds the file's
    /// length and chunk count.
    pub fn slice(&self, offset: u64, len: u64) -> ManifestSlice {
        let (first, end) = self.chunk_range(offset, len);
        let proof = if first < end {
            let tree = MerkleTree::from_leaves(self.entry_leaves())
                .expect("non-empty chunk range implies non-empty tree");
            tree.prove_range(first, end)
                .expect("chunk_range is in bounds")
        } else {
            MerkleRangeProof {
                first: 0,
                siblings: Vec::new(),
            }
        };
        ManifestSlice {
            total_len: self.total_len,
            chunk_count: self.chunks.len() as u32,
            chunks_root: self.chunks_root(),
            first: first as u32,
            start: self.chunk_offset(first),
            entries: self.chunks[first..end].to_vec(),
            proof,
        }
    }

    fn entry_leaves(&self) -> Vec<Hash256> {
        let mut start = 0u64;
        self.chunks
            .iter()
            .map(|e| {
                let leaf = entry_leaf(start, e);
                start += u64::from(e.len);
                leaf
            })
            .collect()
    }
}

/// Leaf commitment of one chunk-table entry: its starting byte offset,
/// chunk id, and length.  Binding the *offset* into the leaf is what
/// lets a verifier place a slice's bytes in the file without the
/// preceding entries: a slave cannot shift a slice sideways.
fn entry_leaf(start: u64, entry: &ManifestEntry) -> Hash256 {
    let mut buf = Vec::with_capacity(44);
    buf.extend_from_slice(&start.to_be_bytes());
    buf.extend_from_slice(entry.id.0.as_ref());
    buf.extend_from_slice(&entry.len.to_be_bytes());
    leaf_hash(&buf)
}

fn chunks_root_of(chunks: &[ManifestEntry]) -> Hash256 {
    if chunks.is_empty() {
        return leaf_hash(b"sdr/manifest/v2/empty");
    }
    let mut start = 0u64;
    let leaves = chunks
        .iter()
        .map(|e| {
            let leaf = entry_leaf(start, e);
            start += u64::from(e.len);
            leaf
        })
        .collect();
    MerkleTree::from_leaves(leaves)
        .expect("non-empty leaves")
        .root()
}

impl MerkleContent for FileManifest {
    fn content_encode(&self, out: &mut Vec<u8>) {
        // A dedicated domain keeps manifest commitments disjoint from the
        // raw-contents leaves of the pre-chunking store.  v2 commits to
        // the chunk table through its Merkle root (rather than inline),
        // so stream headers can carry an authenticated *slice* of the
        // table: O(slice + log chunks) header bytes instead of O(chunks).
        out.extend_from_slice(b"sdr/manifest/v2");
        out.extend_from_slice(&self.total_len.to_be_bytes());
        out.extend_from_slice(&(self.chunks.len() as u32).to_be_bytes());
        out.extend_from_slice(self.chunks_root().as_ref());
    }
}

/// An authenticated contiguous slice of one file's chunk table — what a
/// `ReadFileRange` stream header carries instead of the whole
/// [`FileManifest`].
///
/// The header fields (`total_len`, `chunk_count`, `chunks_root`) rebuild
/// the manifest's canonical encoding for the outer state-digest fold;
/// `proof` ties `entries` (chunks `[first, first + entries.len())`,
/// starting at byte `start`) to `chunks_root`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestSlice {
    /// Total file length in bytes.
    pub total_len: u64,
    /// Total number of chunks in the file.
    pub chunk_count: u32,
    /// Merkle root of the full chunk table.
    pub chunks_root: Hash256,
    /// Absolute index of the first entry in this slice.
    pub first: u32,
    /// Byte offset where the first entry starts.
    pub start: u64,
    /// The chunk entries covering the requested byte range.
    pub entries: Vec<ManifestEntry>,
    /// Range proof of the entries against `chunks_root` (unused when
    /// `entries` is empty — the header fields alone carry the claim).
    pub proof: MerkleRangeProof,
}

impl ManifestSlice {
    /// Checks the slice's internal consistency — the entries (with their
    /// implied byte offsets) fold to `chunks_root` at `[first, ..)` —
    /// and returns the manifest's canonical v2 encoding for the outer
    /// state-digest fold.  An entry-less slice is consistent by itself;
    /// its header claims are bound by the outer fold alone.
    pub fn verified_encoding(&self) -> Result<Vec<u8>, ProofError> {
        if !self.entries.is_empty() {
            let end = (self.first as usize)
                .checked_add(self.entries.len())
                .ok_or(ProofError::ShapeMismatch)?;
            if end > self.chunk_count as usize || self.proof.first != u64::from(self.first) {
                return Err(ProofError::ShapeMismatch);
            }
            let mut start = self.start;
            let leaves: Vec<Hash256> = self
                .entries
                .iter()
                .map(|e| {
                    let leaf = entry_leaf(start, e);
                    start += u64::from(e.len);
                    leaf
                })
                .collect();
            self.proof
                .verify(&self.chunks_root, self.chunk_count as usize, &leaves)
                .map_err(|_| ProofError::RootMismatch)?;
        }
        let mut out = Vec::with_capacity(47 + 32);
        out.extend_from_slice(b"sdr/manifest/v2");
        out.extend_from_slice(&self.total_len.to_be_bytes());
        out.extend_from_slice(&self.chunk_count.to_be_bytes());
        out.extend_from_slice(self.chunks_root.as_ref());
        Ok(out)
    }

    /// The entry for absolute chunk index `index`, when in the slice.
    pub fn entry(&self, index: usize) -> Option<&ManifestEntry> {
        index
            .checked_sub(self.first as usize)
            .and_then(|i| self.entries.get(i))
    }

    /// Byte offset where absolute chunk `index` starts (when in slice).
    pub fn entry_start(&self, index: usize) -> Option<u64> {
        let rel = index.checked_sub(self.first as usize)?;
        if rel > self.entries.len() {
            return None;
        }
        Some(
            self.start
                + self.entries[..rel]
                    .iter()
                    .map(|e| u64::from(e.len))
                    .sum::<u64>(),
        )
    }

    /// Approximate wire size in bytes.
    pub fn wire_len(&self) -> usize {
        // total_len + chunk_count + chunks_root + first + start
        8 + 4 + 32 + 4 + 8 + self.entries.len() * 36 + self.proof.wire_len()
    }
}

/// One stored chunk: its bytes and how many manifest entries reference
/// it across all files.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkEntry {
    /// The chunk's bytes.
    pub data: Vec<u8>,
    /// Live references from file manifests.
    pub refs: u64,
}

impl MerkleContent for ChunkEntry {
    fn content_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.data.len() as u64).to_be_bytes());
        out.extend_from_slice(&self.data);
        out.extend_from_slice(&self.refs.to_be_bytes());
    }
}

/// Aggregated chunk-store telemetry (see `SystemStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkStats {
    /// Distinct chunks currently stored.
    pub chunks_stored: u64,
    /// Retains that hit an already-stored chunk (cumulative).
    pub chunks_deduped: u64,
    /// Bytes of file content as the manifests see it.
    pub logical_bytes: u64,
    /// Bytes of chunk data actually stored (once per distinct chunk).
    pub physical_bytes: u64,
}

impl ChunkStats {
    /// Fraction of logical bytes saved by dedup: `1 - physical/logical`.
    pub fn dedup_ratio(&self) -> f64 {
        if self.logical_bytes == 0 {
            0.0
        } else {
            1.0 - self.physical_bytes as f64 / self.logical_bytes as f64
        }
    }
}

/// The content-addressed, reference-counted chunk store.
///
/// Persistent like everything else in this crate: cloning is O(1) and
/// mutations path-copy, so database snapshots share chunk storage
/// structurally and a failed write's rollback restores the counters for
/// free.  The store is *not* part of the Merkle state digest — the
/// manifests' chunk digests already commit to every stored byte.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ChunkStore {
    entries: PMap<ChunkId, ChunkEntry>,
    dedup_hits: u64,
    logical_bytes: u64,
    physical_bytes: u64,
}

impl ChunkStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ChunkStore::default()
    }

    /// Adds one reference to the chunk with these bytes, storing them on
    /// first sight, and returns its id.
    pub fn retain(&mut self, data: &[u8]) -> ChunkId {
        let id = ChunkId::of(data);
        self.logical_bytes += data.len() as u64;
        match self.entries.get_mut(&id) {
            Some(entry) => {
                entry.refs += 1;
                self.dedup_hits += 1;
            }
            None => {
                self.physical_bytes += data.len() as u64;
                self.entries.insert(
                    id,
                    ChunkEntry {
                        data: data.to_vec(),
                        refs: 1,
                    },
                );
            }
        }
        id
    }

    /// Drops one reference; the chunk's bytes are freed at zero.
    pub fn release(&mut self, id: ChunkId, len: u32) {
        self.logical_bytes = self.logical_bytes.saturating_sub(u64::from(len));
        let gone = match self.entries.get_mut(&id) {
            Some(entry) => {
                entry.refs -= 1;
                entry.refs == 0
            }
            None => false,
        };
        if gone {
            if let Some(entry) = self.entries.remove(&id) {
                self.physical_bytes -= entry.data.len() as u64;
            }
        }
    }

    /// The bytes of a stored chunk.
    pub fn get(&self, id: &ChunkId) -> Option<&[u8]> {
        self.entries.get(id).map(|e| e.data.as_slice())
    }

    /// Live reference count of a chunk (0 when absent).
    pub fn refs(&self, id: &ChunkId) -> u64 {
        self.entries.get(id).map_or(0, |e| e.refs)
    }

    /// Number of distinct chunks stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }

    /// Shared-vs-owned node counts of the chunk tree (memory telemetry).
    pub fn node_stats(&self) -> crate::pmap::NodeStats {
        self.entries.node_stats()
    }

    /// Current telemetry snapshot.
    pub fn stats(&self) -> ChunkStats {
        ChunkStats {
            chunks_stored: self.entries.len() as u64,
            chunks_deduped: self.dedup_hits,
            logical_bytes: self.logical_bytes,
            physical_bytes: self.physical_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random content (text-ish, like the dataset's
    /// log files) long enough to cross many cut points.
    fn sample(len: usize, seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut state = seed;
        while out.len() < len {
            state = splitmix64(state);
            let word = state % 997;
            out.extend_from_slice(format!("entry {word:03} code={:04}\n", state % 9973).as_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn spans_cover_input_exactly_and_respect_bounds() {
        for (len, seed) in [(0usize, 1u64), (1, 2), (255, 3), (256, 4), (5000, 5), (40_000, 6)] {
            let data = sample(len, seed);
            let spans = chunk_spans(&data);
            let mut pos = 0;
            for (i, &(s, e)) in spans.iter().enumerate() {
                assert_eq!(s, pos, "len={len}");
                assert!(e > s);
                let clen = e - s;
                assert!(clen <= MAX_CHUNK, "len={len} chunk {i} too big");
                if i + 1 < spans.len() {
                    assert!(clen >= MIN_CHUNK, "len={len} chunk {i} too small");
                }
                pos = e;
            }
            assert_eq!(pos, data.len(), "len={len}");
            if len == 0 {
                assert!(spans.is_empty());
            }
        }
    }

    #[test]
    fn incompressible_input_forces_max_cuts() {
        // All-identical bytes never zero the hash window, so every chunk
        // is a forced MAX_CHUNK cut.
        let data = vec![0x41u8; MAX_CHUNK * 3 + 100];
        let spans = chunk_spans(&data);
        assert_eq!(spans.len(), 4);
        assert!(spans[..3].iter().all(|&(s, e)| e - s == MAX_CHUNK));
        assert_eq!(spans[3].1 - spans[3].0, 100);
    }

    /// The pinned determinism fixture: identical contents must produce
    /// identical boundaries and digests on every platform and run.  If
    /// this test fails the chunker changed shape — that silently breaks
    /// proof verification between old and new builds, so it must be a
    /// deliberate domain bump, not an accident.
    #[test]
    fn chunking_is_deterministic_pinned() {
        let data = sample(10_000, 42);
        let spans = chunk_spans(&data);
        assert_eq!(spans, chunk_spans(&data));
        let manifest = FileManifest::of(&data);
        assert_eq!(manifest, FileManifest::of(&data));
        assert_eq!(manifest.total_len, 10_000);
        // Pinned shape: boundary list and first/last chunk commitments.
        let cuts: Vec<usize> = spans.iter().map(|&(_, e)| e).collect();
        assert_eq!(cuts, vec![1681, 2297, 6393, 10_000]);
        assert_eq!(
            manifest.chunks[0].id.0.to_hex(),
            "6836699f70714e24222776b432534161f72f5f9bd949199e4c454f498f32a971"
        );
    }

    #[test]
    fn restart_at_cut_makes_appends_local() {
        let base = sample(20_000, 7);
        let extra = sample(900, 8);
        let mut whole = base.clone();
        whole.extend_from_slice(&extra);

        let before = chunk_spans(&base);
        let after = chunk_spans(&whole);
        // Every chunk before the old tail is untouched.
        assert!(before.len() > 2);
        let stable = &before[..before.len() - 1];
        assert_eq!(&after[..stable.len()], stable);
        // And the re-chunked tail equals chunking (tail ‖ extra) alone.
        let tail_start = stable.last().unwrap().1;
        let rechunked = chunk_spans(&whole[tail_start..]);
        let shifted: Vec<(usize, usize)> = after[stable.len()..]
            .iter()
            .map(|&(s, e)| (s - tail_start, e - tail_start))
            .collect();
        assert_eq!(shifted, rechunked);
    }

    #[test]
    fn chunk_range_selects_overlapping_chunks() {
        let data = sample(6_000, 11);
        let m = FileManifest::of(&data);
        assert!(m.chunks.len() >= 3);
        // Whole file.
        assert_eq!(m.chunk_range(0, m.total_len), (0, m.chunks.len()));
        // Empty and out-of-range requests select nothing.
        assert_eq!(m.chunk_range(0, 0), (0, 0));
        assert_eq!(m.chunk_range(m.total_len + 5, 10), (0, 0));
        // A one-byte read in the middle hits exactly one chunk.
        let mid = m.chunk_offset(1);
        let (first, end) = m.chunk_range(mid, 1);
        assert_eq!((first, end), (1, 2));
        // A range straddling a boundary hits both neighbours.
        let (first, end) = m.chunk_range(mid - 1, 2);
        assert_eq!((first, end), (0, 2));
    }

    #[test]
    fn store_refcounts_and_dedups() {
        let mut store = ChunkStore::new();
        let a = store.retain(b"alpha-chunk");
        assert_eq!(store.len(), 1);
        assert_eq!(store.refs(&a), 1);
        assert_eq!(store.stats().chunks_deduped, 0);

        // Same bytes again: dedup, not a second copy.
        let a2 = store.retain(b"alpha-chunk");
        assert_eq!(a, a2);
        assert_eq!(store.len(), 1);
        assert_eq!(store.refs(&a), 2);
        let stats = store.stats();
        assert_eq!(stats.chunks_deduped, 1);
        assert_eq!(stats.logical_bytes, 22);
        assert_eq!(stats.physical_bytes, 11);
        assert!(stats.dedup_ratio() > 0.49 && stats.dedup_ratio() < 0.51);

        store.release(a, 11);
        assert_eq!(store.refs(&a), 1);
        assert_eq!(store.get(&a), Some(b"alpha-chunk".as_ref()));
        store.release(a, 11);
        assert_eq!(store.refs(&a), 0);
        assert!(store.get(&a).is_none());
        let stats = store.stats();
        assert_eq!(stats.logical_bytes, 0);
        assert_eq!(stats.physical_bytes, 0);
    }

    #[test]
    fn store_clone_is_isolated() {
        let mut store = ChunkStore::new();
        store.retain(b"shared");
        let snap = store.clone();
        store.retain(b"later");
        assert_eq!(snap.len(), 1);
        assert_eq!(store.len(), 2);
        assert_eq!(snap.stats().physical_bytes, 6);
    }

    #[test]
    fn manifest_slices_verify_and_bind_position() {
        let data = sample(40_000, 13);
        let m = FileManifest::of(&data);
        assert!(m.chunks.len() >= 8);
        let mut whole_enc = Vec::new();
        m.content_encode(&mut whole_enc);

        for (offset, len) in [(0u64, 40_000u64), (0, 1), (10_000, 5_000), (39_999, 1), (12_345, 0), (50_000, 10)] {
            let slice = m.slice(offset, len);
            let enc = slice.verified_encoding().unwrap_or_else(|e| {
                panic!("slice [{offset}, +{len}) rejected: {e}")
            });
            // The slice rebuilds the exact whole-manifest encoding.
            assert_eq!(enc, whole_enc);
            let (first, end) = m.chunk_range(offset, len);
            assert_eq!(slice.first as usize, first);
            assert_eq!(slice.entries.len(), end - first);
            assert_eq!(slice.start, m.chunk_offset(first));
            for i in first..end {
                assert_eq!(slice.entry(i), Some(&m.chunks[i]));
                assert_eq!(slice.entry_start(i), Some(m.chunk_offset(i)));
            }
            // A slice header is O(slice), not O(chunks).
            if end - first <= 2 {
                assert!(slice.wire_len() < m.chunks.len() * 36);
            }
        }
    }

    #[test]
    fn manifest_slice_tampering_rejected() {
        let data = sample(40_000, 17);
        let m = FileManifest::of(&data);
        let slice = m.slice(10_000, 5_000);
        slice.verified_encoding().unwrap();

        // Shifting the slice sideways (lying about the byte offset).
        let mut shifted = slice.clone();
        shifted.start += 1;
        assert!(shifted.verified_encoding().is_err());
        // Lying about the first index.
        let mut moved = slice.clone();
        moved.first += 1;
        moved.proof.first += 1;
        assert!(moved.verified_encoding().is_err());
        // Corrupting an entry's chunk id.
        let mut forged = slice.clone();
        forged.entries[0].id = ChunkId::of(b"evil");
        assert!(forged.verified_encoding().is_err());
        // Dropping an entry.
        let mut dropped = slice.clone();
        dropped.entries.pop();
        assert!(dropped.verified_encoding().is_err());
        // Claiming a different chunk count changes the encoding, so a
        // consistent-but-lying header can never match the outer fold.
        let mut counted = slice.clone();
        counted.chunk_count += 1;
        let enc = counted.verified_encoding();
        if let Ok(enc) = enc {
            let mut real = Vec::new();
            m.content_encode(&mut real);
            assert_ne!(enc, real);
        }
    }

    #[test]
    fn empty_file_manifest_slice() {
        let m = FileManifest::of(b"");
        assert_eq!(m.chunks_root(), leaf_hash(b"sdr/manifest/v2/empty"));
        let slice = m.slice(0, 100);
        assert!(slice.entries.is_empty());
        let mut enc = Vec::new();
        m.content_encode(&mut enc);
        assert_eq!(slice.verified_encoding().unwrap(), enc);
    }

    #[test]
    fn manifest_encoding_binds_chunks_and_length() {
        let a = FileManifest::of(b"some file contents that are short");
        let mut ea = Vec::new();
        a.content_encode(&mut ea);
        let b = FileManifest::of(b"some file contents that are shorT");
        let mut eb = Vec::new();
        b.content_encode(&mut eb);
        assert_ne!(ea, eb);
        // And it is *not* the raw-contents encoding the old store used.
        let mut raw = Vec::new();
        "some file contents that are short"
            .to_string()
            .content_encode(&mut raw);
        assert_ne!(ea, raw);
    }
}
