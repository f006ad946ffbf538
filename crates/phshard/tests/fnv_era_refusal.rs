//! Files written before the switch from FNV-1a to `phstore::checksum`
//! carry the previous magic of each format. Every such header must be
//! refused by its format's magic check, with the typed magic-mismatch
//! error, and never reach the checksum comparison that would report it
//! as corrupt.
//!
//! Each case writes a file with the current code, then rewrites it the
//! way the FNV-era code wrote it: the old magic, and the old checksum
//! over the header. The header is then a genuine FNV-era header, valid
//! under its own checksum and invalid under the current one.

use phpack::{CacheMode, PackedTree};
use phshard::{DurableSharded, PackedShards, MANIFEST_FILE, PACKED_MANIFEST};
use phstore::durable::{SNAPSHOT_FILE, WAL_FILE};
use phstore::superblock::PAGE_SIZE;
use phstore::vfs::MemVfs;
use phstore::{Durable, DurableConfig, StoreError};
use phtree::PhTree;
use std::path::Path;
use std::sync::Arc;

/// The checksum every format used before `phstore::checksum`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Rewrites `file`'s first 8 bytes to `magic` and stores the FNV-1a of
/// `file[..sum_at]` at `sum_at`.
fn forge(mem: &MemVfs, file: &Path, magic: &[u8; 8], sum_at: usize) -> Vec<u8> {
    let mut bytes = mem.read_file(file).expect("file to forge exists");
    bytes[..8].copy_from_slice(magic);
    let sum = fnv1a(&bytes[..sum_at]);
    bytes[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
    assert_ne!(sum, phstore::checksum(&bytes[..sum_at]));
    mem.write_file(file, bytes.clone());
    bytes
}

/// Forges an FNV-era superblock (`PHSTORE1`, `PHPACK01`, `PHPACKS1`).
fn forge_superblock(mem: &MemVfs, file: &Path, magic: &[u8; 8]) {
    forge(mem, file, magic, PAGE_SIZE - 8);
}

fn config() -> DurableConfig {
    DurableConfig {
        checkpoint_bytes: u64::MAX,
        sync_writes: false,
        retry: None,
    }
}

fn tree() -> PhTree<u32, 2> {
    let mut t = PhTree::new();
    for i in 0..200u64 {
        t.insert([i * 31, i * 17], i as u32);
    }
    t
}

fn assert_refused_on_magic(err: StoreError, what: &str) {
    match err {
        StoreError::Corrupt(c) => assert_eq!(c.what, what, "{c}"),
        other => panic!("expected the magic-mismatch error, got {other:?}"),
    }
}

#[test]
fn phstore1_snapshot_is_refused_on_magic() {
    let mem = MemVfs::new();
    let path = Path::new("/t.pht");
    phstore::save_with(&mem, &tree(), path, 0).unwrap();
    forge_superblock(&mem, path, b"PHSTORE1");
    let err = phstore::load_with::<u32, 2>(&mem, path).unwrap_err();
    assert_refused_on_magic(err, "bad magic");
}

/// A store directory with an FNV-era snapshot and log: the open fails
/// at the snapshot and leaves the log exactly as it was, so no
/// FNV-era op is discarded as a stale log.
#[test]
fn phwal001_store_is_refused_and_its_log_kept() {
    let mem = MemVfs::new();
    let dir = Path::new("/db");
    {
        let mut d: Durable<u32, 2> =
            Durable::open_with(Arc::new(mem.clone()), dir, config()).expect("fresh store");
        for i in 0..20u64 {
            d.insert([i, i], i as u32).unwrap();
        }
    }
    forge_superblock(&mem, &dir.join(SNAPSHOT_FILE), b"PHSTORE1");
    let wal = forge(&mem, &dir.join(WAL_FILE), b"PHWAL001", 16);

    // On its own, the old log reads as having no header of this
    // format: nothing in it is replayed.
    let rec = phstore::wal::recover::<u32, 2>(&mem, &dir.join(WAL_FILE)).unwrap();
    assert_eq!(rec.generation, None);
    assert!(rec.ops.is_empty());

    let err = Durable::<u32, 2>::open_with(Arc::new(mem.clone()), dir, config())
        .err()
        .expect("an FNV-era store must not open");
    assert_refused_on_magic(err, "bad magic");
    assert_eq!(mem.read_file(&dir.join(WAL_FILE)).unwrap(), wal);
}

#[test]
fn phpack01_artifact_is_refused_on_magic() {
    let mem = MemVfs::new();
    let path = Path::new("/t.phk");
    phpack::pack_tree_in(&tree(), &mem, path).unwrap();
    forge_superblock(&mem, path, b"PHPACK01");
    for mode in [CacheMode::Resident, CacheMode::Lru { pages: 4 }] {
        let err = PackedTree::<u32, 2>::open_in(&mem, path, mode)
            .err()
            .expect("an FNV-era artifact must not open");
        assert_refused_on_magic(err, "bad magic");
    }
}

#[test]
fn phpacks1_checkpoint_is_refused_on_magic() {
    let mem = MemVfs::new();
    let store: DurableSharded<u32, 2> =
        DurableSharded::open_with(Arc::new(mem.clone()), Path::new("/db"), 2, config()).unwrap();
    for i in 0..200u64 {
        store.insert([i << 55, i * 17], i as u32).unwrap();
    }
    let dir = Path::new("/ck");
    store.checkpoint_packed(dir).unwrap();
    forge_superblock(&mem, &dir.join(PACKED_MANIFEST), b"PHPACKS1");
    let err = PackedShards::<u32, 2>::open_in(&mem, dir, CacheMode::Resident)
        .err()
        .expect("an FNV-era checkpoint must not open");
    assert_refused_on_magic(err, "bad magic");
}

#[test]
fn phshard2_manifest_is_refused_on_magic() {
    let mem = MemVfs::new();
    let dir = Path::new("/db");
    {
        let store: DurableSharded<u32, 2> =
            DurableSharded::open_with(Arc::new(mem.clone()), dir, 2, config()).unwrap();
        for i in 0..64u64 {
            store.insert([i << 58, i], i as u32).unwrap();
        }
        store.split_shard(0, 1).unwrap();
    }
    let manifest = dir.join(MANIFEST_FILE);
    let len = mem.read_file(&manifest).unwrap().len();
    forge(&mem, &manifest, b"PHSHARD2", len - 8);
    let err = DurableSharded::<u32, 2>::open_with(Arc::new(mem), dir, 2, config())
        .err()
        .expect("an FNV-era manifest must not open");
    assert_refused_on_magic(err, "sharded manifest magic mismatch");
}
