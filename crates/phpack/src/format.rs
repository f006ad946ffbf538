//! Byte-exact definition of the packed artifact format (`PHPACK02`).
//!
//! A packed file is a sequence of [`PAGE_SIZE`] pages:
//!
//! ```text
//! page 0              superblock (shared phstore codec, PACK_MAGIC)
//! pages 1 ..= D       data pages: node records in descent order
//! pages D+1 ..        checksum table: one phstore::checksum u64 LE per
//!                     data page, zero-padded to whole pages
//! ```
//!
//! `PHPACK01` artifacts carried the same layout with FNV-1a sums; they
//! are refused by the superblock's magic check.
//!
//! The superblock metadata blob ([`Meta`]) is a fixed 42-byte record;
//! its integrity is covered by the superblock checksum. Each data
//! page's checksum lives *out of line* in the table so record payloads
//! stay contiguous across page boundaries (zero-copy walks need
//! unbroken byte runs); the table region — padding included — is
//! covered by `table_crc` in the metadata. Every byte of the file is
//! therefore pinned by exactly one checksum.
//!
//! A node record is addressed by a [`PackedRef`] (absolute page index +
//! in-page byte offset) and laid out as:
//!
//! ```text
//! offset  size        field
//! 0       1           post_len
//! 1       1           infix_len
//! 2       1           flags (bit 0 = HC repr, bit 1 = uniform values)
//! 3       1           reserved, 0
//! 4       4           n_subs, u32 LE
//! 8       4           n_values, u32 LE
//! 12      4           bits_len, u32 LE (bit-string length in bits)
//! 16      4           values_len, u32 LE (encoded value bytes)
//! 20      4           reserved, 0
//! 24      ...         bit string, ceil(bits_len/8) bytes (BitBuf words
//!                     little-endian, truncated — phbits::bytes order)
//! ...     values_len  values, ValueCodec, hypercube-address order
//! ...     6*n_subs    child refs (page u32 LE + off u16 LE), addr order
//! ```
//!
//! Placement rule: a record either fits entirely within one page or
//! starts at in-page offset 0 and occupies a run of consecutive pages
//! (an *extent*). Headers therefore never straddle a page boundary, and
//! a reader can size the extent after one single-page fetch.

use phstore::{Corruption, StoreError};

pub use phstore::superblock::{PACK_MAGIC, PAGE_SIZE};

/// Format version stored in the superblock metadata.
pub const VERSION: u16 = 1;

/// Node record header size in bytes.
pub const REC_HDR: usize = 24;

/// Serialised size of a child reference.
pub const REF_BYTES: usize = 6;

/// Serialised size of the superblock metadata blob.
pub const META_LEN: usize = 42;

/// Record flag: node is in HC (full hypercube) representation.
pub const FLAG_HC: u8 = 1 << 0;

/// Record flag: all encoded values have the same byte length, so value
/// `pr` starts at `pr * (values_len / n_values)` — O(1) indexing.
pub const FLAG_UNIFORM: u8 = 1 << 1;

/// Address of a node record: absolute page index (page 1 is the first
/// data page; 0 is the superblock and never holds a record) plus the
/// byte offset of the record header within that page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedRef {
    /// Absolute page index of the record's first (or only) page.
    pub page: u32,
    /// Byte offset of the record header within the page.
    pub off: u16,
}

impl PackedRef {
    /// Serialises the reference (page u32 LE, off u16 LE).
    pub fn encode(&self) -> [u8; REF_BYTES] {
        let mut out = [0u8; REF_BYTES];
        out[..4].copy_from_slice(&self.page.to_le_bytes());
        out[4..].copy_from_slice(&self.off.to_le_bytes());
        out
    }

    /// Deserialises a reference from exactly [`REF_BYTES`] bytes.
    pub fn decode(buf: &[u8; REF_BYTES]) -> PackedRef {
        PackedRef {
            page: u32::from_le_bytes(buf[..4].try_into().unwrap()),
            off: u16::from_le_bytes(buf[4..].try_into().unwrap()),
        }
    }
}

/// Superblock metadata of a packed artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    /// Dimension count the artifact was packed with.
    pub k: u16,
    /// Number of entries in the tree.
    pub len: u64,
    /// Number of data pages `D`.
    pub data_pages: u64,
    /// Bytes of the data region actually holding records
    /// (`<= D * PAGE_SIZE`; the remainder of the last page is zero).
    pub data_bytes: u64,
    /// Root record, absent iff `len == 0` (encoded as page 0).
    pub root: Option<PackedRef>,
    /// [`phstore::checksum`] over the *whole* checksum-table region,
    /// padding included.
    pub table_crc: u64,
}

impl Meta {
    /// Serialises the metadata blob (fixed [`META_LEN`] bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(META_LEN);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.data_pages.to_le_bytes());
        out.extend_from_slice(&self.data_bytes.to_le_bytes());
        let root = self.root.unwrap_or(PackedRef { page: 0, off: 0 });
        out.extend_from_slice(&root.encode());
        out.extend_from_slice(&self.table_crc.to_le_bytes());
        debug_assert_eq!(out.len(), META_LEN);
        out
    }

    /// Parses and sanity-checks a metadata blob. The caller still
    /// checks `k` against its compile-time `K` and the page accounting
    /// against the real file length.
    pub fn decode(buf: &[u8]) -> Result<Meta, StoreError> {
        if buf.len() != META_LEN {
            return Err(Corruption::new("packed metadata has wrong length")
                .at_page(0)
                .at_offset(buf.len() as u64)
                .into());
        }
        let version = u16::from_le_bytes(buf[0..2].try_into().unwrap());
        if version != VERSION {
            return Err(Corruption::new("unsupported packed format version")
                .at_page(0)
                .into());
        }
        let k = u16::from_le_bytes(buf[2..4].try_into().unwrap());
        let len = u64::from_le_bytes(buf[4..12].try_into().unwrap());
        let data_pages = u64::from_le_bytes(buf[12..20].try_into().unwrap());
        let data_bytes = u64::from_le_bytes(buf[20..28].try_into().unwrap());
        let root = PackedRef::decode(buf[28..34].try_into().unwrap());
        let table_crc = u64::from_le_bytes(buf[34..42].try_into().unwrap());
        let root = if root.page == 0 { None } else { Some(root) };
        // Internal consistency; file-level accounting is the caller's.
        if data_bytes > data_pages.saturating_mul(PAGE_SIZE as u64) {
            return Err(Corruption::new("data bytes exceed data pages")
                .at_page(0)
                .into());
        }
        match (len, root) {
            (0, Some(_)) => {
                return Err(Corruption::new("empty artifact with a root record")
                    .at_page(0)
                    .into())
            }
            (n, None) if n > 0 => {
                return Err(Corruption::new("non-empty artifact without a root record")
                    .at_page(0)
                    .into())
            }
            _ => {}
        }
        if let Some(r) = root {
            if (r.page as u64) > data_pages || (r.off as usize) >= PAGE_SIZE {
                return Err(Corruption::new("root record reference out of range")
                    .at_page(r.page as u64)
                    .into());
            }
        }
        Ok(Meta {
            k,
            len,
            data_pages,
            data_bytes,
            root,
            table_crc,
        })
    }
}

/// Parsed node record header (the fixed [`REC_HDR`] bytes).
#[derive(Debug, Clone, Copy)]
pub struct RecordHdr {
    /// Bits per dimension below this node's split.
    pub post_len: u8,
    /// Bits per dimension of the node's infix.
    pub infix_len: u8,
    /// Whether the node uses HC (full hypercube) representation.
    pub hc: bool,
    /// Whether all encoded values share one byte length.
    pub uniform: bool,
    /// Number of sub-node children.
    pub n_subs: u32,
    /// Number of postfix entries (values).
    pub n_values: u32,
    /// Bit-string length in bits.
    pub bits_len: u32,
    /// Encoded value bytes.
    pub values_len: u32,
}

impl RecordHdr {
    /// Serialises the header into `out[..REC_HDR]`.
    pub fn write(&self, out: &mut [u8]) {
        out[0] = self.post_len;
        out[1] = self.infix_len;
        out[2] = ((self.hc as u8) * FLAG_HC) | ((self.uniform as u8) * FLAG_UNIFORM);
        out[3] = 0;
        out[4..8].copy_from_slice(&self.n_subs.to_le_bytes());
        out[8..12].copy_from_slice(&self.n_values.to_le_bytes());
        out[12..16].copy_from_slice(&self.bits_len.to_le_bytes());
        out[16..20].copy_from_slice(&self.values_len.to_le_bytes());
        out[20..24].fill(0);
    }

    /// Parses a header from exactly [`REC_HDR`] bytes. Only field-level
    /// checks happen here; structural validation (bit-length formula,
    /// depth chaining) is the node view's job, where `K` is known.
    pub fn parse(buf: &[u8; REC_HDR]) -> Result<RecordHdr, Corruption> {
        let flags = buf[2];
        if flags & !(FLAG_HC | FLAG_UNIFORM) != 0 || buf[3] != 0 || buf[20..24] != [0u8; 4] {
            return Err(Corruption::new("unknown record flags"));
        }
        Ok(RecordHdr {
            post_len: buf[0],
            infix_len: buf[1],
            hc: flags & FLAG_HC != 0,
            uniform: flags & FLAG_UNIFORM != 0,
            n_subs: u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            n_values: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            bits_len: u32::from_le_bytes(buf[12..16].try_into().unwrap()),
            values_len: u32::from_le_bytes(buf[16..20].try_into().unwrap()),
        })
    }

    /// Total record length in bytes (header + bit string + values +
    /// child references). `u64` so hostile headers cannot overflow.
    pub fn rec_len(&self) -> u64 {
        REC_HDR as u64
            + (self.bits_len as u64).div_ceil(8)
            + self.values_len as u64
            + self.n_subs as u64 * REF_BYTES as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrip() {
        let m = Meta {
            k: 8,
            len: 12345,
            data_pages: 77,
            data_bytes: 77 * 4096 - 100,
            root: Some(PackedRef { page: 1, off: 0 }),
            table_crc: 0xDEAD_BEEF,
        };
        let enc = m.encode();
        assert_eq!(enc.len(), META_LEN);
        assert_eq!(Meta::decode(&enc).unwrap(), m);
    }

    #[test]
    fn empty_meta_roundtrip() {
        let m = Meta {
            k: 3,
            len: 0,
            data_pages: 0,
            data_bytes: 0,
            root: None,
            table_crc: 7,
        };
        assert_eq!(Meta::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn inconsistent_meta_rejected() {
        // Non-empty without a root.
        let mut m = Meta {
            k: 2,
            len: 5,
            data_pages: 1,
            data_bytes: 100,
            root: Some(PackedRef { page: 1, off: 0 }),
            table_crc: 0,
        };
        let mut enc = m.encode();
        enc[28..34].fill(0); // root -> none
        assert!(Meta::decode(&enc).is_err());
        // Empty with a root.
        m.len = 0;
        assert!(Meta::decode(&m.encode()).is_err());
        // Data bytes overflow the page count.
        m.len = 5;
        m.data_bytes = 2 * 4096;
        assert!(Meta::decode(&m.encode()).is_err());
    }

    #[test]
    fn record_header_roundtrip() {
        let h = RecordHdr {
            post_len: 17,
            infix_len: 3,
            hc: true,
            uniform: true,
            n_subs: 9,
            n_values: 1000,
            bits_len: 65537,
            values_len: 8000,
        };
        let mut buf = [0u8; REC_HDR];
        h.write(&mut buf);
        let back = RecordHdr::parse(&buf).unwrap();
        assert_eq!(back.post_len, 17);
        assert_eq!(back.infix_len, 3);
        assert!(back.hc && back.uniform);
        assert_eq!(back.n_subs, 9);
        assert_eq!(back.n_values, 1000);
        assert_eq!(back.bits_len, 65537);
        assert_eq!(back.values_len, 8000);
        assert_eq!(back.rec_len(), 24 + 65537u64.div_ceil(8) + 8000 + 9 * 6);
    }

    #[test]
    fn unknown_flags_rejected() {
        let h = RecordHdr {
            post_len: 0,
            infix_len: 0,
            hc: false,
            uniform: false,
            n_subs: 0,
            n_values: 0,
            bits_len: 0,
            values_len: 0,
        };
        let mut buf = [0u8; REC_HDR];
        h.write(&mut buf);
        buf[2] = 0x80;
        assert!(RecordHdr::parse(&buf).is_err());
        buf[2] = 0;
        buf[21] = 1;
        assert!(RecordHdr::parse(&buf).is_err());
    }
}
