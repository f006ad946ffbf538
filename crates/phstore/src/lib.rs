//! Paged persistent storage for the PH-tree.
//!
//! The paper argues (Sect. 1 and the outlook) that the PH-tree suits
//! persistent storage: each node's data is one packed bit string that
//! "can be split efficiently to fit into disk-pages", and every update
//! touches at most two nodes — at most two page neighbourhoods. This
//! crate implements that storage layer as a snapshot format:
//!
//! * [`pager`] — a fixed-size-page file substrate (4 KiB pages, a
//!   checksummed header page, sequential allocation).
//! * [`record`] — a slotted-page record heap on top of the pager: many
//!   small node records share a page; records larger than a page spill
//!   into chained overflow pages ("split to fit into disk-pages").
//!   Every record carries a [`checksum`], verified on read.
//! * [`codec`] — compact value (de)serialisation for common types.
//! * [`save`]/[`load`] — persist a [`phtree::PhTree`] node by node
//!   (post-order, children before parents) and rebuild it with full
//!   structural re-validation; corrupt files yield errors, never broken
//!   trees. Saves are atomic: staging file, fsync, rename, directory
//!   fsync.
//! * [`wal`] — a write-ahead log of logical ops (checksummed,
//!   generation-stamped frames) whose recovery scan stops cleanly at
//!   the first torn or corrupt frame.
//! * [`durable`] — [`Durable`], a crash-safe tree: journal every
//!   mutation, checkpoint past a log-size threshold, recover any crash
//!   to a consistent acknowledged-prefix state.
//! * [`vfs`] — the filesystem abstraction ([`vfs::StdVfs`],
//!   [`vfs::MemVfs`]) plus a deterministic fault injector
//!   ([`vfs::FaultVfs`]) that can cut the write stream at any byte,
//!   which is how the crash-recovery guarantees are tested
//!   exhaustively.
//!
//! Because the PH-tree's structure is canonical, the snapshot is
//! byte-for-byte deterministic for a given tree content.
//!
//! ```
//! use phtree::PhTree;
//!
//! let dir = std::env::temp_dir().join("phstore-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("doc.pht");
//!
//! let mut tree: PhTree<u32, 2> = PhTree::new();
//! for i in 0..1000u64 {
//!     tree.insert([i % 37, i / 37], i as u32);
//! }
//! let stats = phstore::save(&tree, &path).unwrap();
//! assert!(stats.pages > 0);
//!
//! let loaded: PhTree<u32, 2> = phstore::load(&path).unwrap();
//! assert_eq!(loaded.len(), tree.len());
//! assert_eq!(loaded.get(&[5, 7]), tree.get(&[5, 7]));
//! # std::fs::remove_file(&path).ok();
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod durable;
mod error;
pub mod metrics;
pub mod pager;
pub mod record;
pub mod retry;
mod store;
pub mod superblock;
pub mod vfs;
pub mod wal;

pub use codec::ValueCodec;
pub use durable::{Durable, DurableConfig, RecoveryStats};
pub use error::{Corruption, StoreError};
pub use metrics::StoreMetrics;
pub use retry::{RetryClock, RetryPolicy, RetryVfs, SystemClock, TestClock};
pub use store::{load, load_with, save, save_with, SaveStats};

/// The one checksum behind every integrity check in the workspace:
/// WAL headers and frames, snapshot records and superblocks, packed
/// pages and their table, sharded manifests and phserve wire frames.
///
/// A portable word-parallel 64-bit sum. Four independent lanes each
/// take every fourth little-endian `u64` word of the input's 32-byte
/// stripes through `(lane ^ word).rotate_left(29) * P`; the lanes are
/// then folded, with the input length, into one state through the same
/// round, followed by the `< 32`-byte tail (whole words, then the last
/// `< 8` bytes zero-padded into one word) and a final avalanche. The
/// four lanes have no data dependence on each other, so a 4 KiB page
/// costs about one multiply latency per 32 bytes instead of one per
/// byte.
///
/// Every round is a bijection of its state for a fixed word and of its
/// word for a fixed state, and so are the fold and the avalanche.
/// Changing any one word of an input of fixed length therefore always
/// changes the sum: every single-bit flip is detected. Public so layers
/// above (phpack, phshard's manifest, phserve's frames) frame their own
/// bytes with the same check.
pub fn checksum(bytes: &[u8]) -> u64 {
    const P: u64 = 0x9e37_79b9_7f4a_7c15;
    #[inline(always)]
    fn round(acc: u64, word: u64) -> u64 {
        (acc ^ word).rotate_left(29).wrapping_mul(P)
    }
    #[inline(always)]
    fn word(b: &[u8]) -> u64 {
        u64::from_le_bytes(b.try_into().expect("8-byte word"))
    }

    let mut lanes = [
        0x243f_6a88_85a3_08d3u64,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let mut stripes = bytes.chunks_exact(32);
    for s in &mut stripes {
        lanes[0] = round(lanes[0], word(&s[0..8]));
        lanes[1] = round(lanes[1], word(&s[8..16]));
        lanes[2] = round(lanes[2], word(&s[16..24]));
        lanes[3] = round(lanes[3], word(&s[24..32]));
    }
    let mut h = round(0x4528_21e6_38d0_1377, bytes.len() as u64);
    for lane in lanes {
        h = round(h, lane);
    }
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = round(h, word(w));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = round(h, u64::from_le_bytes(last));
    }
    // Avalanche (MurmurHash3's 64-bit finaliser): every output bit
    // depends on every state bit.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Former name of [`checksum`], kept for callers outside this
/// workspace (the `phbench` package). It is the same function, not
/// FNV-1a.
#[doc(hidden)]
pub use checksum as fnv1a;
