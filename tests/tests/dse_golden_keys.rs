//! Golden cache keys of the DSE flow store.
//!
//! A store file is only worth keeping if a later build derives the same
//! keys for the same inputs: change one byte of `content_hash` or of
//! `hash_parts`' framing and every record of every existing store
//! silently misses. These constants are data recorded from a known-good
//! build; a speed-up of the hashing or of the store keeps every one of
//! them, and they must never be edited to make such a change pass.

use noc_dse::{default_grid, explore, DseConfig, Store};
use noc_spec::canon::{content_hash, hash_parts, ContentHash};

const EMPTY: &str = "9be8b5a9e9152af53a5c7e6ce8ba2669";
const ONE_BYTE: &str = "7b79ccb968ca9780d1240b91b8c41505";
const PATTERN_1000: &str = "03e53c368b4dd17cfe3edd91186edf3d";
const FOUR_PARTS: &str = "78405810415cad0072072ea2990d749f";
const FIVE_PARTS: &str = "3c86b6fdf2b1b751ff8358aaa81cf2e8";
const EXPLORED_STORE_FILE: &str = "7d543d0c55799c24c2006779ba9f411e";

/// 1 000 bytes that cover every byte value and no short period.
fn pattern() -> Vec<u8> {
    (0..1000u32).map(|i| (i * 7 + i / 256) as u8).collect()
}

#[test]
fn content_hash_of_fixed_inputs_is_pinned() {
    assert_eq!(content_hash(b"").hex(), EMPTY);
    assert_eq!(content_hash(b"a").hex(), ONE_BYTE);
    assert_eq!(content_hash(&pattern()).hex(), PATTERN_1000);
}

#[test]
fn hash_parts_of_candidate_shaped_keys_is_pinned() {
    let run = content_hash(b"run");
    let spec = content_hash(b"spec");
    let fp = content_hash(b"floorplan");
    let part = content_hash(b"partition");
    let cand = pattern()[..37].to_vec();
    // The two shapes of a candidate-metrics key: mesh (4 parts) and
    // custom (5 parts, with the partition hash).
    let mesh = hash_parts("cand", &[&run.0, &spec.0, &cand, &fp.0]);
    let custom = hash_parts("cand", &[&run.0, &spec.0, &cand, &fp.0, &part.0]);
    assert_eq!(mesh.hex(), FOUR_PARTS);
    assert_eq!(custom.hex(), FIVE_PARTS);
}

/// Every key `explore` derives, and every payload it stores, in the
/// order it appends them: one hash of the whole file covers them all.
#[test]
fn store_file_written_by_explore_is_pinned() {
    let path = std::env::temp_dir().join(format!("noc_dse_golden_keys_{}", std::process::id()));
    let ckpt = format!("{}.ckpt", path.display());
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&ckpt);
    let cfg = DseConfig {
        specs: 2,
        threads: 1,
        ..DseConfig::default()
    };
    {
        let store = Store::open(&path).expect("open");
        let report = explore(&cfg, &default_grid(), &store).expect("explore");
        assert!(report.completed);
        assert_eq!(report.candidates_evaluated, 2 * default_grid().len() as u64);
    }
    let bytes = std::fs::read(&path).expect("read store");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&ckpt);
    let digest: ContentHash = content_hash(&bytes);
    assert_eq!(digest.hex(), EXPLORED_STORE_FILE);
}
