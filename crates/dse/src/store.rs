//! Content-addressed store for flow-stage outputs.
//!
//! Keys are 128-bit content hashes of a stage's full input closure
//! (spec canon bytes, candidate, upstream stage hashes — see
//! `explore`); values are [`Canonical`] encodings of the stage output,
//! so a hit replays the output bit-identically.
//!
//! ## On-disk format
//!
//! An 8-byte magic header, then append-only records:
//!
//! ```text
//! key[16]  len: u32 LE  payload[len]  fnv1a64(key ‖ len ‖ payload): u64 LE
//! ```
//!
//! The contract is *degrade to recompute, never to wrong answers*:
//! a record whose checksum fails is skipped (counted in
//! [`StoreStats::corrupt`]); a truncated tail record is discarded and
//! the file truncated back to the last good record. Either way the key
//! simply misses and the stage recomputes.
//!
//! ## In memory
//!
//! Records stay encoded exactly as on disk, in *segments*: segment 0
//! is the file as read at open, and every `insert_batch` encodes its
//! fresh records once into one new segment, the same bytes it appends
//! to the file. A hash index maps each key to its segment and payload
//! range, so opening a store copies nothing per record and dropping it
//! frees one buffer per segment. Keys are already SplitMix-finalized
//! content hashes, so the index hashes a key by its first 8 bytes
//! alone; a store file is trusted local input, and a crafted collision
//! could only slow a lookup, never return a wrong record. The on-disk
//! format is the same whichever way the records are held.
//!
//! ## Verification at open
//!
//! Open frames the records serially from their headers, then verifies
//! their checksums on [`noc_par::ParRunner`] in chunks of 1024 records
//! (a smaller store runs serially). FNV-1a is one multiply per byte,
//! each waiting on the last, so one record at a time runs at the
//! multiplier's latency. A chunk therefore sorts its records by length
//! and checksums them four at a time in four independent chains, up to
//! the shortest of the four; each record's remaining tail is finished
//! on its own chain. The results go back to file order before the index
//! is built in file order, so the last valid record of a key wins and
//! every corrupt record is counted, exactly as a serial walk would.
//!
//! ## Reading
//!
//! [`Store::view`] takes the store's read lock once and returns a
//! [`StoreView`] whose `get` borrows the payload in place. A view counts
//! its hits and misses locally and adds them to the store's counters
//! once, when it is dropped, so readers on several threads share no
//! cache line per lookup. [`Store::get`] is a one-lookup view that
//! copies the payload out. A view holds the read lock for as long as it
//! lives: never call [`Store::insert_batch`] with a non-empty batch on a
//! thread that holds a view of the same store, or the write lock waits
//! for that thread forever. An empty batch returns before it takes the
//! lock, so a warm replay, which appends nothing, never contends with
//! its readers. The std `RwLock` makes new readers wait behind a
//! waiting writer, so a reader should not hold a view across long work
//! either: `explore`'s shards hold one view across consecutive lookups
//! and drop it before every recompute, while the calling thread appends
//! each finished shard's records.
//!
//! Every handle appends in append mode under an exclusive file lock,
//! and open reads and repairs the file under the same lock, so several
//! handles — in one process or in several — never overwrite or cut
//! off each other's records.

use noc_par::ParRunner;
use noc_spec::canon::ContentHash;
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Magic header identifying a store file (version 1).
pub const MAGIC: [u8; 8] = *b"NOCDSE1\n";

/// Record bytes before the payload: key(16) + len(4).
const HEADER: usize = 20;
/// Record bytes after the payload: the checksum.
const TRAILER: usize = 8;
/// Records per checksum-verification work item at open.
const VERIFY_CHUNK: usize = 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit continued from state `h` over `bytes`.
fn fnv1a64_from(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a 64-bit, the per-record integrity checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, bytes)
}

/// [`fnv1a64`] of four byte strings at once. The four chains run in
/// lockstep up to the shortest string, so their multiplies overlap
/// instead of each waiting on the last; every tail is then finished on
/// its own chain.
fn fnv1a64_x4(bodies: [&[u8]; 4]) -> [u64; 4] {
    let common = bodies.iter().map(|b| b.len()).min().unwrap_or(0);
    let [b0, b1, b2, b3] = bodies.map(|b| &b[..common]);
    let mut h = [FNV_OFFSET; 4];
    for (((&x0, &x1), &x2), &x3) in b0.iter().zip(b1).zip(b2).zip(b3) {
        h[0] = (h[0] ^ u64::from(x0)).wrapping_mul(FNV_PRIME);
        h[1] = (h[1] ^ u64::from(x1)).wrapping_mul(FNV_PRIME);
        h[2] = (h[2] ^ u64::from(x2)).wrapping_mul(FNV_PRIME);
        h[3] = (h[3] ^ u64::from(x3)).wrapping_mul(FNV_PRIME);
    }
    std::array::from_fn(|lane| fnv1a64_from(h[lane], &bodies[lane][common..]))
}

/// Appends the on-disk encoding of one record to `buf`, returning the
/// payload's range within it.
fn encode_record(buf: &mut Vec<u8>, key: &[u8; 16], payload: &[u8]) -> Range<usize> {
    let start = buf.len();
    buf.extend_from_slice(key);
    let len = u32::try_from(payload.len()).expect("a payload fits the u32 length field");
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = fnv1a64(&buf[start..]);
    buf.extend_from_slice(&sum.to_le_bytes());
    start + HEADER..start + HEADER + payload.len()
}

/// Frames the records of a store file from their headers alone,
/// returning each whole record's byte range; stops at a torn tail.
fn frame_records(bytes: &[u8]) -> Vec<Range<usize>> {
    let mut frames = Vec::new();
    let mut pos = MAGIC.len();
    while pos + HEADER <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 16..pos + HEADER].try_into().expect("4 bytes"));
        let Some(end) = (pos + HEADER + TRAILER)
            .checked_add(len as usize)
            .filter(|&end| end <= bytes.len())
        else {
            break;
        };
        frames.push(pos..end);
        pos = end;
    }
    frames
}

/// The checksummed body (key, length and payload) of the record framed
/// at `frame`, and the checksum stored after it.
fn body_and_sum<'a>(bytes: &'a [u8], frame: &Range<usize>) -> (&'a [u8], u64) {
    let (body, sum) = bytes[frame.clone()].split_at(frame.len() - TRAILER);
    (body, u64::from_le_bytes(sum.try_into().expect("8 bytes")))
}

/// Whether each record framed in `frames` carries a valid checksum, in
/// the order of `frames`. Records are checksummed four at a time in
/// order of length (see the module doc).
fn verify_chunk(bytes: &[u8], frames: &[Range<usize>]) -> Vec<bool> {
    let mut by_len: Vec<usize> = (0..frames.len()).collect();
    by_len.sort_unstable_by_key(|&i| frames[i].len());
    let mut ok = vec![false; frames.len()];
    let mut quads = by_len.chunks_exact(4);
    for quad in &mut quads {
        let records: [(&[u8], u64); 4] =
            std::array::from_fn(|lane| body_and_sum(bytes, &frames[quad[lane]]));
        let sums = fnv1a64_x4(records.map(|(body, _)| body));
        for ((&i, (_, stored)), sum) in quad.iter().zip(records).zip(sums) {
            ok[i] = sum == stored;
        }
    }
    for &i in quads.remainder() {
        let (body, stored) = body_and_sum(bytes, &frames[i]);
        ok[i] = fnv1a64(body) == stored;
    }
    ok
}

/// Runs `f` under an exclusive lock on `file`, which every handle on
/// the file — in this process or another — takes to append or repair.
fn with_file_lock<T>(file: &File, f: impl FnOnce() -> std::io::Result<T>) -> std::io::Result<T> {
    file.lock()?;
    let out = f();
    file.unlock()?;
    out
}

/// Hit/miss/corruption counters of a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// `get` calls that found a valid record.
    pub hits: u64,
    /// `get` calls that missed.
    pub misses: u64,
    /// Records dropped at open time for checksum mismatch.
    pub corrupt: u64,
    /// Bytes of truncated tail discarded at open time.
    pub truncated_bytes: u64,
}

impl StoreStats {
    /// Hits as a fraction of all lookups (1.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A key of the index. Keys are SplitMix-finalized content hashes, so
/// their first 8 bytes are already a well-mixed hash of the whole key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexKey([u8; 16]);

impl Hash for IndexKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from_le_bytes(self.0[..8].try_into().expect("8 bytes")));
    }
}

/// The index's hasher: passes an [`IndexKey`]'s prefix through.
#[derive(Debug, Default)]
struct PrefixHasher(u64);

impl Hasher for PrefixHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only `write_u64` is reached from `IndexKey`; fold anything else.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Key → (segment, payload range within it).
type Index = HashMap<IndexKey, (usize, Range<usize>), BuildHasherDefault<PrefixHasher>>;

/// Encoded records and the index over them.
#[derive(Debug, Default)]
struct Records {
    /// Records in their on-disk encoding: the file as read at open,
    /// then one buffer per `insert_batch`.
    segments: Vec<Vec<u8>>,
    index: Index,
}

/// A content-addressed key→bytes store, in memory or backed by an
/// append-only file. Views and `get` are safe to use from many threads
/// at once (the DSE shard fan-out does); `insert_batch` serializes
/// appends.
#[derive(Debug)]
pub struct Store {
    records: RwLock<Records>,
    file: Option<Mutex<File>>,
    path: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: u64,
    truncated_bytes: u64,
}

impl Store {
    /// An in-memory store (no persistence).
    pub fn in_memory() -> Store {
        Store {
            records: RwLock::new(Records::default()),
            file: None,
            path: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: 0,
            truncated_bytes: 0,
        }
    }

    /// Opens (or creates) a file-backed store, replaying every valid
    /// record; of several valid records of one key, the last wins.
    /// Corrupt records are skipped and counted; a truncated tail is cut
    /// off so subsequent appends extend a clean file.
    ///
    /// # Errors
    ///
    /// I/O errors, or a file that exists but does not start with
    /// [`MAGIC`].
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Store> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let (bytes, frames, truncated_bytes) = with_file_lock(&file, || {
            let mut bytes = Vec::new();
            (&file).read_to_end(&mut bytes)?;
            if bytes.is_empty() {
                (&file).write_all(&MAGIC)?;
                bytes.extend_from_slice(&MAGIC);
            }
            if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{} is not a noc-dse store", path.display()),
                ));
            }
            let frames = frame_records(&bytes);
            let good_end = frames.last().map_or(MAGIC.len(), |f| f.end);
            if good_end < bytes.len() {
                file.set_len(good_end as u64)?;
            }
            let truncated_bytes = (bytes.len() - good_end) as u64;
            Ok((bytes, frames, truncated_bytes))
        })?;
        let chunks: Vec<&[Range<usize>]> = frames.chunks(VERIFY_CHUNK).collect();
        let valid = ParRunner::new()
            .run(0, &chunks, |chunk, _seed| verify_chunk(&bytes, chunk))
            .concat();
        let mut index = Index::with_capacity_and_hasher(frames.len(), Default::default());
        let mut corrupt = 0u64;
        for (frame, ok) in frames.into_iter().zip(valid) {
            if ok {
                let key = bytes[frame.start..frame.start + 16]
                    .try_into()
                    .expect("16 bytes");
                index.insert(
                    IndexKey(key),
                    (0, frame.start + HEADER..frame.end - TRAILER),
                );
            } else {
                corrupt += 1;
            }
        }
        Ok(Store {
            records: RwLock::new(Records {
                segments: vec![bytes],
                index,
            }),
            file: Some(Mutex::new(file)),
            path: Some(path),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt,
            truncated_bytes,
        })
    }

    /// The backing file path, when file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.records.read().expect("store lock").index.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A read view for a run of lookups: takes the read lock once and
    /// adds its hit and miss counts to the store's when dropped. Never
    /// call [`insert_batch`](Store::insert_batch) with a non-empty
    /// batch on a thread that holds a view (see the module doc).
    pub fn view(&self) -> StoreView<'_> {
        StoreView {
            store: self,
            records: self.records.read().expect("store lock"),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Looks up a key, counting the hit or miss.
    pub fn get(&self, key: ContentHash) -> Option<Vec<u8>> {
        self.view().get(key).map(<[u8]>::to_vec)
    }

    /// Inserts a batch of entries, appending each new key to the
    /// backing file (existing keys are not rewritten: content
    /// addressing makes re-insertion a no-op, and of two entries of one
    /// key in a batch the first is kept). An empty batch returns at
    /// once, without taking the write lock.
    ///
    /// # Errors
    ///
    /// I/O errors from the append; the in-memory view is updated
    /// first, so even on error this process keeps the entries.
    pub fn insert_batch(
        &self,
        entries: impl IntoIterator<Item = (ContentHash, Vec<u8>)>,
    ) -> std::io::Result<()> {
        let entries: Vec<(ContentHash, Vec<u8>)> = entries.into_iter().collect();
        if entries.is_empty() {
            return Ok(());
        }
        let mut records = self.records.write().expect("store lock");
        let segment = records.segments.len();
        // Sized up front: a segment grown by doubling keeps up to half
        // its capacity unused for the life of the store.
        let fresh_bytes = entries
            .iter()
            .filter(|(key, _)| !records.index.contains_key(&IndexKey(key.0)))
            .map(|(_, value)| HEADER + value.len() + TRAILER)
            .sum();
        let mut buf = Vec::with_capacity(fresh_bytes);
        for (key, value) in &entries {
            if let Entry::Vacant(slot) = records.index.entry(IndexKey(key.0)) {
                slot.insert((segment, encode_record(&mut buf, &key.0, value)));
            }
        }
        if buf.is_empty() {
            return Ok(());
        }
        records.segments.push(buf);
        if let Some(file) = &self.file {
            let records = RwLockWriteGuard::downgrade(records);
            let file = file.lock().expect("store file lock");
            with_file_lock(&file, || (&*file).write_all(&records.segments[segment]))?;
        }
        Ok(())
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt,
            truncated_bytes: self.truncated_bytes,
        }
    }
}

/// A read view of a [`Store`]: holds the store's read lock and serves
/// payloads in place. See [`Store::view`].
#[derive(Debug)]
pub struct StoreView<'a> {
    store: &'a Store,
    records: RwLockReadGuard<'a, Records>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl StoreView<'_> {
    /// Looks up a key, counting the hit or miss in this view.
    pub fn get(&self, key: ContentHash) -> Option<&[u8]> {
        let got = self
            .records
            .index
            .get(&IndexKey(key.0))
            .map(|(segment, payload)| &self.records.segments[*segment][payload.clone()]);
        let counter = if got.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.set(counter.get() + 1);
        got
    }

    /// Hits served by this view so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Misses seen by this view so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }
}

impl Drop for StoreView<'_> {
    fn drop(&mut self) {
        self.store
            .hits
            .fetch_add(self.hits.get(), Ordering::Relaxed);
        self.store
            .misses
            .fetch_add(self.misses.get(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_spec::canon::content_hash;
    use std::collections::BTreeMap;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("noc_dse_store_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_through_file() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let k1 = content_hash(b"alpha");
        let k2 = content_hash(b"beta");
        {
            let store = Store::open(&path).expect("open");
            store
                .insert_batch([(k1, b"one".to_vec()), (k2, b"two".to_vec())])
                .expect("insert");
        }
        let store = Store::open(&path).expect("reopen");
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(k1).as_deref(), Some(b"one".as_ref()));
        assert_eq!(store.get(k2).as_deref(), Some(b"two".as_ref()));
        assert_eq!(store.stats().hits, 2);
        assert_eq!(store.stats().corrupt, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_record_is_skipped_not_served() {
        let path = tmp("corrupt");
        let _ = std::fs::remove_file(&path);
        let k1 = content_hash(b"alpha");
        let k2 = content_hash(b"beta");
        {
            let store = Store::open(&path).expect("open");
            store
                .insert_batch([(k1, b"payload-one".to_vec()), (k2, b"payload-two".to_vec())])
                .expect("insert");
        }
        // Flip one payload byte of the first record.
        let mut bytes = std::fs::read(&path).expect("read");
        let flip_at = MAGIC.len() + 16 + 4 + 2;
        bytes[flip_at] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        let store = Store::open(&path).expect("reopen");
        assert_eq!(store.stats().corrupt, 1);
        assert_eq!(store.get(k1), None, "corrupt record must miss");
        assert_eq!(store.get(k2).as_deref(), Some(b"payload-two".as_ref()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_is_discarded_and_file_repaired() {
        let path = tmp("truncated");
        let _ = std::fs::remove_file(&path);
        let k1 = content_hash(b"alpha");
        let k2 = content_hash(b"beta");
        {
            let store = Store::open(&path).expect("open");
            store
                .insert_batch([(k1, b"payload-one".to_vec()), (k2, b"payload-two".to_vec())])
                .expect("insert");
        }
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("truncate");
        let store = Store::open(&path).expect("reopen");
        assert_eq!(store.len(), 1);
        assert!(store.stats().truncated_bytes > 0);
        assert_eq!(store.get(k2), None);
        // The repaired file accepts a clean re-append of the lost key.
        store
            .insert_batch([(k2, b"payload-two".to_vec())])
            .expect("re-insert");
        drop(store);
        let store = Store::open(&path).expect("re-reopen");
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().corrupt, 0);
        let _ = std::fs::remove_file(&path);
    }

    /// A process killed mid-append can leave the trailing record cut at
    /// *any* byte boundary — mid-key, mid-length, mid-payload, or
    /// mid-checksum. Every cut point must recover the same way: the
    /// intact prefix survives, the torn tail is dropped and repaired,
    /// and the store accepts a resumed append of the lost entry.
    #[test]
    fn torn_trailing_record_recovers_at_every_cut_point() {
        let k1 = content_hash(b"survivor");
        let k2 = content_hash(b"torn");
        let payload2 = b"the-interrupted-payload".to_vec();
        // Record layout: key(16) + len(4) + payload + checksum(8).
        let record2_len = 16 + 4 + payload2.len() + 8;
        // One cut inside each region of the torn record, plus the
        // region boundaries themselves.
        let cuts = [
            1,                       // mid-key
            15,                      // last key byte
            16,                      // key/len boundary
            18,                      // mid-length
            20,                      // len/payload boundary
            20 + payload2.len() / 2, // mid-payload
            20 + payload2.len(),     // payload/checksum boundary
            record2_len - 1,         // one checksum byte short
        ];
        for (i, &keep) in cuts.iter().enumerate() {
            let path = tmp(&format!("torn_cut_{i}"));
            let _ = std::fs::remove_file(&path);
            {
                let store = Store::open(&path).expect("open");
                store
                    .insert_batch([(k1, b"kept".to_vec()), (k2, payload2.clone())])
                    .expect("insert");
            }
            let bytes = std::fs::read(&path).expect("read");
            let cut_at = bytes.len() - record2_len + keep;
            std::fs::write(&path, &bytes[..cut_at]).expect("simulate kill");

            let store = Store::open(&path).expect("reopen after kill");
            assert_eq!(store.len(), 1, "cut {keep}: only the survivor loads");
            assert_eq!(store.get(k1).as_deref(), Some(b"kept".as_ref()));
            assert_eq!(store.get(k2), None, "cut {keep}: torn record gone");
            assert_eq!(store.stats().corrupt, 0, "a torn tail is not corruption");
            assert_eq!(
                store.stats().truncated_bytes,
                keep as u64,
                "cut {keep}: exactly the torn bytes are discarded"
            );
            // Resume the interrupted append on the repaired file.
            store
                .insert_batch([(k2, payload2.clone())])
                .expect("resumed append");
            drop(store);
            let store = Store::open(&path).expect("final reopen");
            assert_eq!(store.len(), 2);
            assert_eq!(store.get(k2).as_deref(), Some(payload2.as_slice()));
            assert_eq!(store.stats().corrupt, 0);
            assert_eq!(store.stats().truncated_bytes, 0);
            let _ = std::fs::remove_file(&path);
        }
    }

    /// A test-side FNV-1a 64, independent of the store's.
    fn reference_fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// One record in the documented layout, built by hand:
    /// `key ‖ len u32 LE ‖ payload ‖ fnv1a64 LE`.
    fn reference_record(key: &[u8; 16], payload: &[u8]) -> Vec<u8> {
        let mut rec = key.to_vec();
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(payload);
        let sum = reference_fnv1a64(&rec);
        rec.extend_from_slice(&sum.to_le_bytes());
        rec
    }

    #[test]
    fn on_disk_format_matches_the_documented_layout() {
        // Anchor the test's checksum on the published FNV-1a test vector.
        assert_eq!(reference_fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let path = tmp("golden");
        let _ = std::fs::remove_file(&path);
        let k1 = content_hash(b"golden-one");
        let k2 = content_hash(b"golden-two");
        {
            let store = Store::open(&path).expect("open");
            store
                .insert_batch([(k1, b"first".to_vec()), (k2, vec![0, 1, 2, 255])])
                .expect("insert");
        }
        let mut expected = MAGIC.to_vec();
        expected.extend(reference_record(&k1.0, b"first"));
        expected.extend(reference_record(&k2.0, &[0, 1, 2, 255]));
        assert_eq!(std::fs::read(&path).expect("read"), expected);
        // A file written by hand in that layout opens and serves both.
        std::fs::write(&path, &expected).expect("write");
        let store = Store::open(&path).expect("reopen");
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(k1).as_deref(), Some(b"first".as_ref()));
        assert_eq!(store.get(k2).as_deref(), Some([0, 1, 2, 255].as_ref()));
        assert_eq!(store.stats().corrupt, 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Open verifies checksums in chunks on a parallel runner; every
    /// outcome must equal a naive serial parse of the same file.
    #[test]
    fn parallel_verification_equals_a_serial_reference() {
        let key = |i: u32| content_hash(&i.to_le_bytes()).0;
        // Mostly short payloads, with empty ones and some of a few KB
        // among them, so the four checksum lanes of a chunk run over
        // unequal lengths.
        let payload = |i: u32| match i % 10 {
            5 => Vec::new(),
            0 => (0..(i as usize * 37) % 3000)
                .map(|j| (i as usize + j) as u8)
                .collect(),
            _ => format!("payload-{i}")
                .repeat(1 + i as usize % 3)
                .into_bytes(),
        };
        let mut bytes = MAGIC.to_vec();
        let mut starts = Vec::new();
        let push = |bytes: &mut Vec<u8>, starts: &mut Vec<usize>, k: [u8; 16], p: &[u8]| {
            starts.push(bytes.len());
            bytes.extend(reference_record(&k, p));
        };
        for i in 0..5_000 {
            push(&mut bytes, &mut starts, key(i), &payload(i));
        }
        // Key 10 again with a new valid value (the later record wins);
        // key 20 again, to be corrupted (the earlier record stays).
        push(&mut bytes, &mut starts, key(10), b"rewritten");
        push(&mut bytes, &mut starts, key(20), b"doomed");
        // Byte flips in records of different verification chunks: in a
        // key, a payload, a checksum, and the doomed duplicate.
        let flips = [
            starts[7] + 3,
            starts[1500] + 25,
            starts[3101] - 1,
            starts[4999] + 22,
            starts[5001] + 24,
        ];
        for &at in &flips {
            bytes[at] ^= 0x5A;
        }
        // 5 002 records: four full verification chunks and one of 906,
        // which is not a multiple of the four lanes.
        // A torn tail: half of one more record.
        let torn = reference_record(&key(9_999), b"never-finished");
        bytes.extend_from_slice(&torn[..torn.len() / 2]);

        // The serial reference: walk, check, last valid record wins.
        let mut expected: BTreeMap<[u8; 16], Vec<u8>> = BTreeMap::new();
        let (mut pos, mut corrupt) = (MAGIC.len(), 0u64);
        while pos + 20 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[pos + 16..pos + 20].try_into().unwrap()) as usize;
            let end = pos + 20 + len + 8;
            if end > bytes.len() {
                break;
            }
            let sum = u64::from_le_bytes(bytes[end - 8..end].try_into().unwrap());
            if reference_fnv1a64(&bytes[pos..end - 8]) == sum {
                let k: [u8; 16] = bytes[pos..pos + 16].try_into().unwrap();
                expected.insert(k, bytes[pos + 20..end - 8].to_vec());
            } else {
                corrupt += 1;
            }
            pos = end;
        }
        assert_eq!(corrupt, flips.len() as u64, "every flip is caught");
        assert_eq!(expected[&key(10)], b"rewritten");
        assert_eq!(expected[&key(20)], payload(20));

        let path = tmp("parallel_verify");
        std::fs::write(&path, &bytes).expect("write");
        let store = Store::open(&path).expect("open");
        assert_eq!(store.stats().corrupt, corrupt);
        assert_eq!(store.stats().truncated_bytes, (bytes.len() - pos) as u64);
        assert_eq!(store.len(), expected.len());
        for i in 0..5_000 {
            let k = key(i);
            assert_eq!(
                store.get(ContentHash(k)),
                expected.get(&k).cloned(),
                "record {i}"
            );
        }
        drop(store);
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), pos as u64);
        let _ = std::fs::remove_file(&path);
    }

    /// The four-lane kernel against a per-record reference: record
    /// lengths from empty to a few KB in shuffled order, every chunk
    /// size from 1 to 13 (most not a multiple of 4), and each record of
    /// a chunk damaged in turn at its first byte, its last body byte and
    /// its checksum, so every lane and the serial remainder see a bad
    /// record.
    #[test]
    fn interleaved_checksums_equal_a_per_record_reference() {
        let lens: Vec<usize> = (0..=40)
            .chain([
                63, 64, 65, 255, 256, 257, 1000, 1023, 1024, 1025, 2047, 4096,
            ])
            .collect();
        let mut bytes = MAGIC.to_vec();
        for i in 0..lens.len() {
            // A permutation of the lengths, so chunks are not in length
            // order and the kernel's sort moves records between lanes.
            let len = lens[(i * 17) % lens.len()];
            let payload: Vec<u8> = (0..len).map(|j| (i * 31 + j) as u8).collect();
            bytes.extend(reference_record(&content_hash(&[i as u8]).0, &payload));
        }
        let frames = frame_records(&bytes);
        assert_eq!(frames.len(), lens.len());
        let reference = |bytes: &[u8], window: &[Range<usize>]| -> Vec<bool> {
            window
                .iter()
                .map(|f| {
                    let sum = u64::from_le_bytes(bytes[f.end - 8..f.end].try_into().unwrap());
                    reference_fnv1a64(&bytes[f.start..f.end - 8]) == sum
                })
                .collect()
        };
        for size in 1..=13 {
            for start in (0..=frames.len() - size).step_by(3) {
                let window = &frames[start..start + size];
                assert_eq!(verify_chunk(&bytes, window), vec![true; size]);
                for bad in 0..size {
                    let f = &window[bad];
                    for at in [f.start, f.end - TRAILER - 1, f.end - 3] {
                        bytes[at] ^= 0x41;
                        let got = verify_chunk(&bytes, window);
                        assert_eq!(
                            got,
                            reference(&bytes, window),
                            "size {size} bad {bad} at {at}"
                        );
                        assert_eq!(got.iter().filter(|ok| !**ok).count(), 1);
                        bytes[at] ^= 0x41;
                    }
                }
            }
        }
    }

    /// Views on two threads serve the same bytes as `get`, and their
    /// hit and miss counts reach the store's counters exactly.
    #[test]
    fn views_on_two_threads_match_get_and_count_exactly() {
        let store = Store::in_memory();
        let keys: Vec<ContentHash> = (0..400u32)
            .map(|i| content_hash(&i.to_le_bytes()))
            .collect();
        store
            .insert_batch(
                keys.iter()
                    .enumerate()
                    .filter(|(i, _)| i % 3 != 0)
                    .map(|(i, k)| (*k, vec![i as u8; i % 50])),
            )
            .expect("insert");
        let expected: Vec<Option<Vec<u8>>> = keys.iter().map(|&k| store.get(k)).collect();
        let (hits, misses) = (266u64, 134u64);
        let before = store.stats();
        assert_eq!((before.hits, before.misses), (hits, misses));
        let rounds = 5u64;
        std::thread::scope(|scope| {
            for t in 0..2 {
                let (store, keys, expected) = (&store, &keys, &expected);
                scope.spawn(move || {
                    for _ in 0..rounds {
                        let view = store.view();
                        // The two threads walk the keys in opposite orders.
                        for j in 0..keys.len() {
                            let i = if t == 0 { j } else { keys.len() - 1 - j };
                            assert_eq!(view.get(keys[i]), expected[i].as_deref(), "key {i}");
                        }
                        assert_eq!((view.hits(), view.misses()), (hits, misses));
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.hits - before.hits, 2 * rounds * hits);
        assert_eq!(stats.misses - before.misses, 2 * rounds * misses);
    }

    #[test]
    fn four_lane_fnv_equals_four_serial_chains() {
        let long: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let cases: [[&[u8]; 4]; 4] = [
            [b"", b"", b"", b""],
            [b"a", b"", b"abc", b"ab"],
            [&long, &long[..1], &long[..299], b"x"],
            [&long[5..], &long[..64], &long[1..], &long[..65]],
        ];
        for bodies in cases {
            let expected = bodies.map(reference_fnv1a64);
            assert_eq!(
                fnv1a64_x4(bodies),
                expected,
                "lengths {:?}",
                bodies.map(<[u8]>::len)
            );
        }
    }

    #[test]
    fn a_fresh_file_holds_exactly_the_magic() {
        let path = tmp("fresh");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path).expect("open");
        assert!(store.is_empty());
        assert_eq!(store.path(), Some(path.as_path()));
        assert_eq!(store.stats(), StoreStats::default());
        drop(store);
        assert_eq!(std::fs::read(&path).expect("read"), MAGIC);
        // Reopening a store of no records adds nothing.
        let store = Store::open(&path).expect("reopen");
        assert!(store.is_empty());
        drop(store);
        assert_eq!(std::fs::read(&path).expect("read"), MAGIC);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_rejects_a_file_without_the_magic_and_leaves_it_alone() {
        let path = tmp("no_magic");
        let foreign = b"NOCDSE0\nsomething else entirely".to_vec();
        std::fs::write(&path, &foreign).expect("write");
        let err = Store::open(&path).expect_err("a foreign file must not open");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&path).expect("read"), foreign);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_rejects_a_file_shorter_than_the_magic() {
        let path = tmp("short_magic");
        std::fs::write(&path, &MAGIC[..5]).expect("write");
        let err = Store::open(&path).expect_err("a stub must not open");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&path).expect("read"), &MAGIC[..5]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn in_memory_store_has_no_path_and_serves_its_entries() {
        let store = Store::in_memory();
        assert_eq!(store.path(), None);
        assert!(store.is_empty());
        let k = content_hash(b"mem");
        store.insert_batch([(k, b"v".to_vec())]).expect("insert");
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
        assert_eq!(store.get(k).as_deref(), Some(b"v".as_ref()));
        assert_eq!(store.get(content_hash(b"absent")), None);
        assert_eq!((store.stats().hits, store.stats().misses), (1, 1));
    }

    #[test]
    fn reinsertion_keeps_the_first_value_and_appends_nothing() {
        let path = tmp("reinsert");
        let _ = std::fs::remove_file(&path);
        let (k1, k2) = (content_hash(b"one"), content_hash(b"two"));
        let store = Store::open(&path).expect("open");
        // Of two entries of one key in a batch, the first is kept.
        store
            .insert_batch([(k1, b"first".to_vec()), (k1, b"second".to_vec())])
            .expect("insert");
        let after_first = std::fs::metadata(&path).expect("stat").len();
        // A key already held is not rewritten, in memory or on disk.
        store
            .insert_batch([(k1, b"third".to_vec()), (k2, b"two".to_vec())])
            .expect("insert");
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(k1).as_deref(), Some(b"first".as_ref()));
        drop(store);
        let mut expected = MAGIC.to_vec();
        expected.extend(reference_record(&k1.0, b"first"));
        assert_eq!(after_first, expected.len() as u64);
        expected.extend(reference_record(&k2.0, b"two"));
        assert_eq!(std::fs::read(&path).expect("read"), expected);
        // A key loaded from the file is held too.
        let store = Store::open(&path).expect("reopen");
        store
            .insert_batch([(k2, b"changed".to_vec())])
            .expect("insert");
        assert_eq!(store.get(k2).as_deref(), Some(b"two".as_ref()));
        drop(store);
        assert_eq!(std::fs::read(&path).expect("read"), expected);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_empty_batch_appends_nothing() {
        let path = tmp("empty_batch");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path).expect("open");
        store.insert_batch([]).expect("empty batch");
        assert!(store.is_empty());
        assert_eq!(store.records.read().expect("lock").segments.len(), 1);
        drop(store);
        assert_eq!(std::fs::read(&path).expect("read"), MAGIC);
        let _ = std::fs::remove_file(&path);
    }

    /// An empty batch must not take the write lock: on a thread that
    /// holds a view, taking it would wait for that thread forever. The
    /// call runs on its own thread so that a hang fails the test.
    #[test]
    fn an_empty_batch_under_a_view_on_the_same_thread_returns() {
        let store = std::sync::Arc::new(Store::in_memory());
        store
            .insert_batch([(content_hash(b"held"), b"v".to_vec())])
            .expect("insert");
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::sync::Arc::clone(&store);
        let handle = std::thread::spawn(move || {
            let view = worker.view();
            let out = worker.insert_batch([]);
            drop(view);
            let _ = done.send(out.map_err(|e| e.to_string()));
        });
        let out = finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("insert_batch of an empty batch hung under a view");
        handle.join().expect("the worker returned");
        assert_eq!(out, Ok(()));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn an_empty_payload_is_a_hit_not_a_miss() {
        let path = tmp("empty_payload");
        let _ = std::fs::remove_file(&path);
        let k = content_hash(b"nothing");
        {
            let store = Store::open(&path).expect("open");
            store.insert_batch([(k, Vec::new())]).expect("insert");
            assert_eq!(store.get(k), Some(Vec::new()));
        }
        let store = Store::open(&path).expect("reopen");
        assert_eq!(store.get(k), Some(Vec::new()));
        assert_eq!(store.stats().hits, 1);
        assert_eq!(store.stats().misses, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hit_rate_is_hits_over_lookups() {
        let rate = |hits, misses| {
            StoreStats {
                hits,
                misses,
                ..StoreStats::default()
            }
            .hit_rate()
        };
        assert_eq!(rate(0, 0), 1.0);
        assert_eq!(rate(3, 1), 0.75);
        assert_eq!(rate(0, 5), 0.0);
        assert_eq!(rate(7, 0), 1.0);
    }

    #[test]
    fn stats_keep_the_open_time_facts() {
        let path = tmp("stats_keep_facts");
        let _ = std::fs::remove_file(&path);
        let (k1, k2) = (content_hash(b"alpha"), content_hash(b"beta"));
        {
            let store = Store::open(&path).expect("open");
            store
                .insert_batch([(k1, b"payload-one".to_vec()), (k2, b"payload-two".to_vec())])
                .expect("insert");
        }
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[MAGIC.len() + HEADER] ^= 0xFF;
        bytes.extend_from_slice(&[1, 2, 3]);
        std::fs::write(&path, &bytes).expect("write");
        let store = Store::open(&path).expect("reopen");
        let before = store.stats();
        assert_eq!(store.get(k1), None);
        assert!(store.get(k2).is_some());
        assert_eq!(
            store.stats(),
            StoreStats {
                hits: before.hits + 1,
                misses: before.misses + 1,
                corrupt: 1,
                truncated_bytes: 3,
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_view_adds_its_counts_to_the_store_when_dropped() {
        let store = Store::in_memory();
        let k = content_hash(b"here");
        store.insert_batch([(k, b"x".to_vec())]).expect("insert");
        let view = store.view();
        assert_eq!(view.get(k), Some(b"x".as_ref()));
        assert_eq!(view.get(k), Some(b"x".as_ref()));
        assert_eq!(view.get(content_hash(b"gone")), None);
        assert_eq!((view.hits(), view.misses()), (2, 1));
        assert_eq!(store.stats().hits, 0, "counted locally until dropped");
        assert_eq!(store.stats().misses, 0);
        drop(view);
        assert_eq!((store.stats().hits, store.stats().misses), (2, 1));
        // A second view starts from zero and adds on top.
        let view = store.view();
        assert_eq!((view.hits(), view.misses()), (0, 0));
        view.get(k);
        drop(view);
        assert_eq!((store.stats().hits, store.stats().misses), (3, 1));
    }

    #[test]
    fn a_view_serves_every_segment() {
        let path = tmp("segments");
        let _ = std::fs::remove_file(&path);
        let keys: Vec<ContentHash> = (0..9u32).map(|i| content_hash(&i.to_le_bytes())).collect();
        {
            let store = Store::open(&path).expect("open");
            store
                .insert_batch(keys[..3].iter().map(|&k| (k, k.0[..3].to_vec())))
                .expect("segment 1");
        }
        let store = Store::open(&path).expect("reopen");
        for batch in [3..6, 6..9] {
            store
                .insert_batch(keys[batch].iter().map(|&k| (k, k.0[..3].to_vec())))
                .expect("later segment");
        }
        assert_eq!(store.records.read().expect("lock").segments.len(), 3);
        let view = store.view();
        for k in &keys {
            assert_eq!(view.get(*k), Some(&k.0[..3]));
        }
        drop(view);
        drop(store);
        // Every segment reached the file, in insertion order.
        let mut expected = MAGIC.to_vec();
        for k in &keys {
            expected.extend(reference_record(&k.0, &k.0[..3]));
        }
        assert_eq!(std::fs::read(&path).expect("read"), expected);
        let _ = std::fs::remove_file(&path);
    }

    /// The index hashes a key by its first 8 bytes alone, so keys that
    /// share them land in one bucket and must still stay apart.
    #[test]
    fn keys_sharing_an_index_prefix_stay_distinct() {
        let key = |tail: u8| {
            let mut k = [0xAB; 16];
            k[8..].fill(tail);
            ContentHash(k)
        };
        let mut first = PrefixHasher::default();
        IndexKey(key(1).0).hash(&mut first);
        let mut second = PrefixHasher::default();
        IndexKey(key(2).0).hash(&mut second);
        assert_eq!(first.finish(), 0xABAB_ABAB_ABAB_ABAB);
        assert_eq!(first.finish(), second.finish());
        let path = tmp("prefix_collision");
        let _ = std::fs::remove_file(&path);
        {
            let store = Store::open(&path).expect("open");
            store
                .insert_batch((1..=4).map(|t| (key(t), vec![t; t as usize])))
                .expect("insert");
        }
        let store = Store::open(&path).expect("reopen");
        assert_eq!(store.len(), 4);
        for t in 1..=4 {
            assert_eq!(store.get(key(t)), Some(vec![t; t as usize]), "tail {t}");
        }
        assert_eq!(store.get(key(5)), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_last_valid_record_of_a_key_wins_at_open() {
        let path = tmp("last_wins");
        let k = content_hash(b"twice");
        let other = content_hash(b"between");
        let mut bytes = MAGIC.to_vec();
        bytes.extend(reference_record(&k.0, b"old"));
        bytes.extend(reference_record(&other.0, b"o"));
        bytes.extend(reference_record(&k.0, b"new"));
        std::fs::write(&path, &bytes).expect("write");
        let store = Store::open(&path).expect("open");
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(k).as_deref(), Some(b"new".as_ref()));
        assert_eq!(store.get(other).as_deref(), Some(b"o".as_ref()));
        assert_eq!(store.stats().corrupt, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_length_past_the_end_of_the_file_is_a_torn_tail() {
        let path = tmp("huge_len");
        let k = content_hash(b"kept");
        let mut bytes = MAGIC.to_vec();
        bytes.extend(reference_record(&k.0, b"fine"));
        let good = bytes.len();
        bytes.extend_from_slice(&content_hash(b"bogus").0);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(b"a few payload bytes");
        std::fs::write(&path, &bytes).expect("write");
        let store = Store::open(&path).expect("open");
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(k).as_deref(), Some(b"fine".as_ref()));
        assert_eq!(store.stats().corrupt, 0);
        assert_eq!(store.stats().truncated_bytes, (bytes.len() - good) as u64);
        drop(store);
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), good as u64);
        let _ = std::fs::remove_file(&path);
    }

    /// Corrupt records are skipped, not cut: only a torn tail is
    /// removed from the file, so a later valid record stays reachable.
    #[test]
    fn corrupt_records_stay_on_disk_and_valid_ones_after_them_load() {
        let path = tmp("corrupt_kept");
        let keys: Vec<ContentHash> = (0..3u8).map(|i| content_hash(&[i])).collect();
        let mut bytes = MAGIC.to_vec();
        let mut starts = Vec::new();
        for k in &keys {
            starts.push(bytes.len());
            bytes.extend(reference_record(&k.0, b"value"));
        }
        bytes[starts[0] + HEADER] ^= 1;
        bytes[starts[1] + 2] ^= 1;
        std::fs::write(&path, &bytes).expect("write");
        let store = Store::open(&path).expect("open");
        assert_eq!(store.stats().corrupt, 2);
        assert_eq!(store.stats().truncated_bytes, 0);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(keys[2]).as_deref(), Some(b"value".as_ref()));
        drop(store);
        assert_eq!(std::fs::read(&path).expect("read"), bytes);
        let _ = std::fs::remove_file(&path);
    }

    /// Two handles on one file: each appends at the file's real end,
    /// not at the end it saw when it opened.
    #[test]
    fn two_handles_keep_each_others_appends() {
        let path = tmp("two_handles");
        let _ = std::fs::remove_file(&path);
        let a = Store::open(&path).expect("open a");
        let b = Store::open(&path).expect("open b");
        a.insert_batch([(content_hash(b"from-a"), b"a".to_vec())])
            .expect("append a");
        b.insert_batch([(content_hash(b"from-b"), b"b".to_vec())])
            .expect("append b");
        drop((a, b));
        let store = Store::open(&path).expect("reopen");
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().corrupt, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_handles_lose_no_record() {
        let path = tmp("concurrent_handles");
        let _ = std::fs::remove_file(&path);
        // Both handles open the empty file before either appends.
        let opened = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for writer in 0..2u32 {
                let (path, opened) = (&path, &opened);
                scope.spawn(move || {
                    let store = Store::open(path).expect("open");
                    opened.wait();
                    for batch in 0..50u32 {
                        store
                            .insert_batch((0..4u32).map(|j| {
                                let i = [writer, batch * 4 + j];
                                (content_hash(format!("{i:?}").as_bytes()), vec![j as u8; 9])
                            }))
                            .expect("append");
                    }
                });
            }
        });
        let store = Store::open(&path).expect("reopen");
        assert_eq!(store.len(), 400);
        assert_eq!(store.stats().corrupt, 0);
        assert_eq!(store.stats().truncated_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }
}
