//! Slotted-page record heap.
//!
//! Records (serialised PH-tree nodes) are packed many-per-page; a
//! record that does not fit the remaining space of the current page
//! starts on a fresh page, and a record larger than one page spills
//! into chained *overflow* pages — the paper's "split efficiently to
//! fit into disk-pages". Every record is prefixed with its length and
//! a [`crate::checksum`] that is verified on read.
//!
//! Page layout (data pages): records grow upward from the page start,
//! the slot directory grows downward from the page end:
//!
//! ```text
//! [n_slots: u16][records …→]   …   [←… slot offsets: u16 × n_slots]
//! ```
//!
//! Record layout at its slot offset:
//!
//! ```text
//! [total_len: u32][checksum: u64][overflow_page: u64 or 0][payload head]
//! ```
//!
//! `payload head` is as much of the payload as fits in this page; the
//! rest continues in overflow pages of the form `[next: u64][data]`.

use crate::error::{Corruption, StoreError};
use crate::pager::{Pager, PAGE_SIZE};

/// Address of a record: page id + slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordId {
    /// Data page holding the record head.
    pub page: u64,
    /// Slot index within the page.
    pub slot: u16,
}

impl RecordId {
    /// Byte encoding used inside other records (10 bytes).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.page.to_le_bytes());
        out.extend_from_slice(&self.slot.to_le_bytes());
    }

    /// Inverse of [`RecordId::encode`].
    pub fn decode(buf: &[u8]) -> Option<(RecordId, usize)> {
        if buf.len() < 10 {
            return None;
        }
        Some((
            RecordId {
                page: u64::from_le_bytes(buf[..8].try_into().unwrap()),
                slot: u16::from_le_bytes(buf[8..10].try_into().unwrap()),
            },
            10,
        ))
    }
}

const REC_HEADER: usize = 4 + 8 + 8;
const PAGE_HEADER: usize = 2;
const SLOT_BYTES: usize = 2;
const OVERFLOW_HEADER: usize = 8;

/// Append-only record writer over a [`Pager`].
pub struct RecordWriter<'p> {
    pager: &'p mut Pager,
    /// Current open page and its buffered contents.
    page_id: u64,
    page: Vec<u8>,
    n_slots: u16,
    /// First free byte (records grow upward from the slot directory).
    free: usize,
    /// Records written so far.
    pub records: u64,
    /// Payload bytes written so far.
    pub bytes: u64,
}

impl<'p> RecordWriter<'p> {
    /// Starts writing records into fresh pages of `pager`.
    pub fn new(pager: &'p mut Pager) -> Result<Self, StoreError> {
        let page_id = pager.alloc_page()?;
        Ok(RecordWriter {
            pager,
            page_id,
            page: vec![0u8; PAGE_SIZE],
            n_slots: 0,
            free: PAGE_HEADER,
            records: 0,
            bytes: 0,
        })
    }

    /// First byte used by the slot directory given `n_slots` slots.
    fn dir_start(n_slots: u16) -> usize {
        PAGE_SIZE - n_slots as usize * SLOT_BYTES
    }

    fn flush_page(&mut self) -> Result<(), StoreError> {
        self.page[..2].copy_from_slice(&self.n_slots.to_le_bytes());
        self.pager.write_page(self.page_id, &self.page)
    }

    fn fresh_page(&mut self) -> Result<(), StoreError> {
        self.flush_page()?;
        self.page_id = self.pager.alloc_page()?;
        self.page.fill(0);
        self.n_slots = 0;
        self.free = PAGE_HEADER;
        Ok(())
    }

    /// Appends one record, returning its address.
    pub fn append(&mut self, payload: &[u8]) -> Result<RecordId, StoreError> {
        // Usable space: records grow up from `free`, the directory
        // (including the new slot) grows down from the page end.
        let limit = Self::dir_start(self.n_slots + 1);
        if limit < self.free + REC_HEADER {
            self.fresh_page()?;
            return self.append(payload);
        }
        let head_room = limit - self.free - REC_HEADER;
        if head_room == 0 && !payload.is_empty() {
            self.fresh_page()?;
            return self.append(payload);
        }
        let head_take = payload.len().min(head_room);
        // Heuristic: if less than a quarter of the payload fits and the
        // page already has records, start a fresh page instead of
        // fragmenting.
        if self.n_slots > 0 && payload.len() > head_room && head_take < payload.len() / 4 {
            self.fresh_page()?;
            return self.append(payload);
        }

        // Write overflow chain first (back to front) so each page can
        // point at the next.
        let mut overflow_first = 0u64;
        let rest = &payload[head_take..];
        if !rest.is_empty() {
            let per_page = PAGE_SIZE - OVERFLOW_HEADER;
            let n_over = rest.len().div_ceil(per_page);
            let mut next = 0u64;
            for i in (0..n_over).rev() {
                let chunk = &rest[i * per_page..(rest.len()).min((i + 1) * per_page)];
                let id = self.pager.alloc_page()?;
                let mut buf = vec![0u8; PAGE_SIZE];
                buf[..8].copy_from_slice(&next.to_le_bytes());
                buf[8..8 + chunk.len()].copy_from_slice(chunk);
                self.pager.write_page(id, &buf)?;
                next = id;
            }
            overflow_first = next;
        }

        // Slot directory entry (from the page end, downward).
        let off = self.free;
        let slot = self.n_slots;
        let dir_pos = Self::dir_start(slot + 1);
        self.page[dir_pos..dir_pos + 2].copy_from_slice(&(off as u16).to_le_bytes());
        self.n_slots += 1;

        // Record header + payload head.
        let sum = crate::checksum(payload);
        self.page[off..off + 4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        self.page[off + 4..off + 12].copy_from_slice(&sum.to_le_bytes());
        self.page[off + 12..off + 20].copy_from_slice(&overflow_first.to_le_bytes());
        self.page[off + 20..off + 20 + head_take].copy_from_slice(&payload[..head_take]);
        self.free = off + REC_HEADER + head_take;
        self.records += 1;
        self.bytes += payload.len() as u64;
        Ok(RecordId {
            page: self.page_id,
            slot,
        })
    }

    /// Flushes the open page; must be called once at the end.
    pub fn finish(mut self) -> Result<(), StoreError> {
        self.flush_page()
    }
}

/// Reads one record from a [`Pager`], verifying its checksum.
pub fn read_record(pager: &mut Pager, id: RecordId) -> Result<Vec<u8>, StoreError> {
    let page = pager.read_page(id.page)?;
    let n_slots = u16::from_le_bytes(page[..2].try_into().unwrap());
    if id.slot >= n_slots {
        return Err(Corruption::new("slot out of range").at_record(id).into());
    }
    let dir_pos = PAGE_SIZE - (id.slot as usize + 1) * SLOT_BYTES;
    let off = u16::from_le_bytes(page[dir_pos..dir_pos + 2].try_into().unwrap()) as usize;
    if off + REC_HEADER > PAGE_SIZE - (n_slots as usize) * SLOT_BYTES {
        return Err(Corruption::new("record offset out of range")
            .at_record(id)
            .at_offset(off as u64)
            .into());
    }
    let total = u32::from_le_bytes(page[off..off + 4].try_into().unwrap()) as usize;
    let sum = u64::from_le_bytes(page[off + 4..off + 12].try_into().unwrap());
    let mut overflow = u64::from_le_bytes(page[off + 12..off + 20].try_into().unwrap());
    let head_take = total.min(PAGE_SIZE - (n_slots as usize) * SLOT_BYTES - off - REC_HEADER);
    let mut payload = Vec::with_capacity(total);
    payload.extend_from_slice(&page[off + 20..off + 20 + head_take]);
    while payload.len() < total {
        if overflow == 0 {
            return Err(Corruption::new("record truncated (missing overflow)")
                .at_record(id)
                .into());
        }
        let buf = pager.read_page(overflow)?;
        let next = u64::from_le_bytes(buf[..8].try_into().unwrap());
        let want = (total - payload.len()).min(PAGE_SIZE - OVERFLOW_HEADER);
        payload.extend_from_slice(&buf[8..8 + want]);
        overflow = next;
    }
    if crate::checksum(&payload) != sum {
        return Err(Corruption::new("record checksum mismatch")
            .at_record(id)
            .into());
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("phstore-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn many_small_records_share_pages() {
        let path = tmp("rec_small.pht");
        let mut p = Pager::create(&path, b"").unwrap();
        let mut ids = Vec::new();
        {
            let mut w = RecordWriter::new(&mut p).unwrap();
            for i in 0..500u32 {
                ids.push((i, w.append(&i.to_le_bytes()).unwrap()));
            }
            w.finish().unwrap();
        }
        // 500 × (4-byte payload + 20-byte header + 2-byte slot) ≈ 13 KiB
        // → a handful of pages, not 500.
        assert!(p.n_pages() < 10, "pages: {}", p.n_pages());
        for (i, id) in ids {
            assert_eq!(read_record(&mut p, id).unwrap(), i.to_le_bytes());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn large_record_spills_into_overflow_chain() {
        let path = tmp("rec_large.pht");
        let mut p = Pager::create(&path, b"").unwrap();
        let big: Vec<u8> = (0..3 * PAGE_SIZE + 123).map(|i| (i * 7) as u8).collect();
        let small = b"tiny".to_vec();
        let (id_small, id_big, id_small2);
        {
            let mut w = RecordWriter::new(&mut p).unwrap();
            id_small = w.append(&small).unwrap();
            id_big = w.append(&big).unwrap();
            id_small2 = w.append(&small).unwrap();
            w.finish().unwrap();
        }
        assert_eq!(read_record(&mut p, id_small).unwrap(), small);
        assert_eq!(read_record(&mut p, id_big).unwrap(), big);
        assert_eq!(read_record(&mut p, id_small2).unwrap(), small);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn random_sizes_roundtrip() {
        let path = tmp("rec_rand.pht");
        let mut p = Pager::create(&path, b"").unwrap();
        let mut x = 7u64;
        let mut recs = Vec::new();
        {
            let mut w = RecordWriter::new(&mut p).unwrap();
            for _ in 0..200 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let len = (x % 9000) as usize;
                let data: Vec<u8> = (0..len).map(|i| (i as u64 ^ x) as u8).collect();
                let id = w.append(&data).unwrap();
                recs.push((data, id));
            }
            w.finish().unwrap();
        }
        for (data, id) in recs {
            assert_eq!(read_record(&mut p, id).unwrap(), data, "record {id:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_record() {
        let path = tmp("rec_empty.pht");
        let mut p = Pager::create(&path, b"").unwrap();
        let id;
        {
            let mut w = RecordWriter::new(&mut p).unwrap();
            id = w.append(&[]).unwrap();
            w.finish().unwrap();
        }
        assert_eq!(read_record(&mut p, id).unwrap(), Vec::<u8>::new());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_byte_is_detected() {
        use std::io::{Seek, SeekFrom, Write};
        let path = tmp("rec_flip.pht");
        let mut p = Pager::create(&path, b"").unwrap();
        let id;
        {
            let mut w = RecordWriter::new(&mut p).unwrap();
            id = w.append(&[42u8; 100]).unwrap();
            w.finish().unwrap();
        }
        p.write_header(b"").unwrap();
        drop(p);
        {
            let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            // Flip a payload byte in the first data page (page 1).
            f.seek(SeekFrom::Start(PAGE_SIZE as u64 + 60)).unwrap();
            f.write_all(&[0xFF]).unwrap();
        }
        // Reopen bypassing the header check is impossible, so rebuild a
        // pager around the file by recreating the header checksum? No —
        // the header page is untouched, only a data page changed.
        let (mut p, _) = Pager::open(&path).unwrap();
        assert!(read_record(&mut p, id).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_id_encoding_roundtrip() {
        let id = RecordId {
            page: 0xDEAD_BEEF,
            slot: 513,
        };
        let mut buf = Vec::new();
        id.encode(&mut buf);
        assert_eq!(buf.len(), 10);
        let (back, used) = RecordId::decode(&buf).unwrap();
        assert_eq!(back, id);
        assert_eq!(used, 10);
        assert!(RecordId::decode(&buf[..9]).is_none());
    }
}
