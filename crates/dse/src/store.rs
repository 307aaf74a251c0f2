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
//! frees one buffer per segment. Open frames the records serially from
//! their headers, then verifies their checksums on
//! [`noc_par::ParRunner`] in chunks of 1024 records (a
//! smaller store runs serially) and builds the index in file order, so
//! the last valid record of a key wins. The on-disk format is the same
//! whichever way the records are held.
//!
//! Every handle appends in append mode under an exclusive file lock,
//! and open reads and repairs the file under the same lock, so several
//! handles — in one process or in several — never overwrite or cut
//! off each other's records.

use noc_par::ParRunner;
use noc_spec::canon::ContentHash;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock, RwLockWriteGuard};

/// Magic header identifying a store file (version 1).
pub const MAGIC: [u8; 8] = *b"NOCDSE1\n";

/// Record bytes before the payload: key(16) + len(4).
const HEADER: usize = 20;
/// Record bytes after the payload: the checksum.
const TRAILER: usize = 8;
/// Records per checksum-verification work item at open.
const VERIFY_CHUNK: usize = 1024;

/// FNV-1a 64-bit, the per-record integrity checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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

/// Whether the record framed at `frame` carries a valid checksum.
fn checksum_ok(bytes: &[u8], frame: &Range<usize>) -> bool {
    let (body, sum) = bytes[frame.clone()].split_at(frame.len() - TRAILER);
    fnv1a64(body) == u64::from_le_bytes(sum.try_into().expect("8 bytes"))
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

/// Encoded records and the index over them.
#[derive(Debug, Default)]
struct Records {
    /// Records in their on-disk encoding: the file as read at open,
    /// then one buffer per `insert_batch`.
    segments: Vec<Vec<u8>>,
    /// Key → (segment, payload range within it).
    index: HashMap<[u8; 16], (usize, Range<usize>)>,
}

/// A content-addressed key→bytes store, in memory or backed by an
/// append-only file. `get` is safe to call from many threads at once
/// (the DSE shard fan-out does); `insert_batch` serializes appends.
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
            .run(0, &chunks, |chunk, _seed| {
                chunk
                    .iter()
                    .map(|frame| checksum_ok(&bytes, frame))
                    .collect::<Vec<bool>>()
            })
            .concat();
        let mut index = HashMap::with_capacity(frames.len());
        let mut corrupt = 0u64;
        for (frame, ok) in frames.into_iter().zip(valid) {
            if ok {
                let key = bytes[frame.start..frame.start + 16]
                    .try_into()
                    .expect("16 bytes");
                index.insert(key, (0, frame.start + HEADER..frame.end - TRAILER));
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

    /// Looks up a key, counting the hit or miss.
    pub fn get(&self, key: ContentHash) -> Option<Vec<u8>> {
        let records = self.records.read().expect("store lock");
        let got = records
            .index
            .get(&key.0)
            .map(|(segment, payload)| records.segments[*segment][payload.clone()].to_vec());
        if got.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        got
    }

    /// Inserts a batch of entries, appending each new key to the
    /// backing file (existing keys are not rewritten: content
    /// addressing makes re-insertion a no-op, and of two entries of one
    /// key in a batch the first is kept).
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
        let mut records = self.records.write().expect("store lock");
        let segment = records.segments.len();
        // Sized up front: a segment grown by doubling keeps up to half
        // its capacity unused for the life of the store.
        let fresh_bytes = entries
            .iter()
            .filter(|(key, _)| !records.index.contains_key(&key.0))
            .map(|(_, value)| HEADER + value.len() + TRAILER)
            .sum();
        let mut buf = Vec::with_capacity(fresh_bytes);
        for (key, value) in &entries {
            if let Entry::Vacant(slot) = records.index.entry(key.0) {
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

    /// Resets the hit/miss counters (the open-time corruption counters
    /// are immutable facts about the file and stay).
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
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
        let payload = |i: u32| {
            format!("payload-{i}")
                .repeat(1 + i as usize % 3)
                .into_bytes()
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
