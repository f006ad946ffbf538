//! Properties and pinned values of `phstore::checksum`, the one
//! checksum behind every on-disk format and wire frame.

use phstore::checksum;
use std::collections::HashSet;

/// A fixed 4 KiB page of distinct pseudo-random words (splitmix64).
fn page() -> Vec<u8> {
    let mut x = 0x1234_5678_9abc_def0u64;
    let mut out = Vec::with_capacity(4096);
    for _ in 0..512 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out
}

#[test]
fn every_single_bit_flip_of_a_page_changes_the_sum() {
    let mut p = page();
    let good = checksum(&p);
    for bit in 0..p.len() * 8 {
        p[bit / 8] ^= 1 << (bit % 8);
        assert_ne!(checksum(&p), good, "flip of bit {bit} undetected");
        p[bit / 8] ^= 1 << (bit % 8);
    }
}

#[test]
fn zero_inputs_of_each_length_have_distinct_sums() {
    let sums: HashSet<u64> = (0..=64).map(|n| checksum(&vec![0u8; n])).collect();
    assert_eq!(sums.len(), 65);
}

#[test]
fn swapping_two_aligned_words_changes_the_sum() {
    let mut p = page();
    let good = checksum(&p);
    let words = p.len() / 8;
    let swap = |p: &mut [u8], i: usize, j: usize| {
        let (a, b) = p.split_at_mut(j * 8);
        a[i * 8..i * 8 + 8].swap_with_slice(&mut b[..8]);
    };
    for i in 0..words {
        for j in i + 1..words {
            assert_ne!(
                p[i * 8..i * 8 + 8],
                p[j * 8..j * 8 + 8],
                "words must differ"
            );
            swap(&mut p, i, j);
            assert_ne!(checksum(&p), good, "swap of words {i} and {j} undetected");
            swap(&mut p, i, j);
        }
    }
}

/// Every file format and wire frame stores these sums: a change here
/// is a format change and must bump every magic that carries them.
#[test]
fn known_answers() {
    assert_eq!(checksum(b""), 0x5e69_2846_03f5_284c);
    let forty: Vec<u8> = (0..40u8).collect();
    assert_eq!(checksum(&forty), 0x799e_b546_1334_2cce);
    assert_eq!(checksum(&page()), 0x0259_5347_0a1a_fcf8);
}
