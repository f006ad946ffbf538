//! Checked superblock codec shared by every paged file format in the
//! workspace.
//!
//! Both the record store's [`crate::pager::Pager`] (`PHSTORE2`) and the
//! packed read-only tree format (`PHPACK02`, crate `phpack`) start with
//! the same page-0 shape; this module is the single implementation of
//! its encoding, parsing and integrity checks so the two formats cannot
//! drift apart on magic/CRC handling:
//!
//! ```text
//! offset  size  field
//! 0       8     magic (format tag, caller-supplied)
//! 8       8     n_pages, u64 LE (total pages incl. this one)
//! 16      4     meta_len, u32 LE
//! 20      m     meta (format-specific blob, m = meta_len <= MAX_META)
//! 20+m    ...   zero padding
//! 4088    8     crate::checksum over bytes 0..4088, u64 LE
//! ```
//!
//! Decode checks the magic before the checksum, so a file of an older
//! version of a format (such as the FNV-1a-era `PHSTORE1`, `PHPACK01`
//! and `PHPACKS1`) is refused as `bad magic`, not reported as corrupt.
//! Decode rejects structurally invalid pages with a typed
//! [`Corruption`] anchored at page 0 — callers get "where and what"
//! without re-deriving offsets.

use crate::error::{Corruption, StoreError};

/// Page size in bytes. 4 KiB, the common disk/OS page granularity the
/// paper's outlook refers to.
pub const PAGE_SIZE: usize = 4096;

/// Magic of the record store's paged files.
pub const STORE_MAGIC: &[u8; 8] = b"PHSTORE2";

/// Magic of packed read-only tree artifacts (crate `phpack`).
pub const PACK_MAGIC: &[u8; 8] = b"PHPACK02";

/// Maximum user metadata bytes storable in a superblock
/// (page minus magic, page count, meta length and checksum).
pub const MAX_META: usize = PAGE_SIZE - 8 - 8 - 4 - 8;

/// Encodes a superblock page: magic, page count, metadata, checksum.
///
/// # Panics
///
/// Panics if `meta` exceeds [`MAX_META`] (a caller bug, not an I/O
/// condition).
pub fn encode(magic: &[u8; 8], n_pages: u64, meta: &[u8]) -> Vec<u8> {
    assert!(meta.len() <= MAX_META, "metadata too large");
    let mut page = vec![0u8; PAGE_SIZE];
    page[..8].copy_from_slice(magic);
    page[8..16].copy_from_slice(&n_pages.to_le_bytes());
    page[16..20].copy_from_slice(&(meta.len() as u32).to_le_bytes());
    page[20..20 + meta.len()].copy_from_slice(meta);
    let sum = crate::checksum(&page[..PAGE_SIZE - 8]);
    page[PAGE_SIZE - 8..].copy_from_slice(&sum.to_le_bytes());
    page
}

/// Decodes and verifies a superblock page, returning the stored page
/// count and the metadata blob.
///
/// Callers must still check the returned `n_pages` against the actual
/// file length — the codec can only vouch for internal consistency.
pub fn decode(magic: &[u8; 8], page: &[u8]) -> Result<(u64, Vec<u8>), StoreError> {
    if page.len() != PAGE_SIZE {
        return Err(Corruption::new("superblock is not a full page")
            .at_page(0)
            .at_offset(page.len() as u64)
            .into());
    }
    if &page[..8] != magic {
        return Err(Corruption::new("bad magic").at_page(0).into());
    }
    let stored_sum = u64::from_le_bytes(page[PAGE_SIZE - 8..].try_into().unwrap());
    if stored_sum != crate::checksum(&page[..PAGE_SIZE - 8]) {
        return Err(Corruption::new("header checksum mismatch")
            .at_page(0)
            .into());
    }
    let n_pages = u64::from_le_bytes(page[8..16].try_into().unwrap());
    let meta_len = u32::from_le_bytes(page[16..20].try_into().unwrap()) as usize;
    if meta_len > MAX_META {
        return Err(Corruption::new("oversized metadata").at_page(0).into());
    }
    Ok((n_pages, page[20..20 + meta_len].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let page = encode(STORE_MAGIC, 7, b"meta blob");
        let (n, meta) = decode(STORE_MAGIC, &page).unwrap();
        assert_eq!(n, 7);
        assert_eq!(meta, b"meta blob");
    }

    #[test]
    fn wrong_magic_rejected() {
        let page = encode(STORE_MAGIC, 1, b"");
        let err = decode(PACK_MAGIC, &page).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn every_byte_flip_is_caught() {
        // The codec's whole job: no single corrupted byte may decode
        // cleanly. (Bytes past meta_len are covered by the checksum
        // too.)
        let good = encode(PACK_MAGIC, 3, b"hello");
        assert!(decode(PACK_MAGIC, &good).is_ok());
        for off in 0..PAGE_SIZE {
            let mut page = good.clone();
            page[off] ^= 0x40;
            let err = match decode(PACK_MAGIC, &page) {
                Err(StoreError::Corrupt(c)) => c,
                other => panic!("flip at {off} not rejected as corruption: {other:?}"),
            };
            assert_eq!(err.page, Some(0), "flip at {off} lost page context");
        }
    }

    #[test]
    fn short_page_rejected() {
        let err = decode(STORE_MAGIC, &[0u8; 100]).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(c) if c.page == Some(0)));
    }

    #[test]
    fn max_meta_fits_exactly() {
        let meta = vec![0xAB; MAX_META];
        let page = encode(STORE_MAGIC, 1, &meta);
        let (_, back) = decode(STORE_MAGIC, &page).unwrap();
        assert_eq!(back, meta);
    }
}
