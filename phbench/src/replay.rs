//! Replays of a workload's own op stream against single layers, with
//! the server stopped (so nothing else runs): the wire codec
//! (`phserve::proto`), a pinned read view (`phshard` Snapshot or the
//! packed shards), a single `PhTree` (`phtree`) and a single
//! `PackedTree` (`phpack`).

use measure::alloc_track;
use phpack::{CacheMode, PackedTree};
use phserve::backend::ReadView;
use phserve::proto::{self, Request, Response};
use phtree::PhTree;
use std::hint::black_box;
use std::io::{self, Cursor};
use std::path::Path;
use std::time::Instant;

use crate::layers::ratio;
use crate::workload::{Key, K, KNN_N};

/// Minimum time one timed loop runs, repeating its input.
const MIN_LOOP_S: f64 = 0.05;

/// Mean ns per item of `f` over `items`, repeated until `MIN_LOOP_S`.
fn ns_per<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut n = 0usize;
    while n == 0 || t0.elapsed().as_secs_f64() < MIN_LOOP_S {
        for it in items {
            f(it);
        }
        n += items.len();
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Codec cost per op: request plus reply, both directions.
#[derive(Clone, Copy, Debug, Default)]
pub struct Codec {
    /// Encode + frame (FNV-1a) of request and reply, ns per op.
    pub encode_ns: f64,
    /// Frame check (FNV-1a) + decode of request and reply, ns per op.
    pub decode_ns: f64,
    /// Mean framed reply size, bytes.
    pub reply_bytes: f64,
    /// Server side only (request decode + reply encode), ns per op.
    pub server_ns: f64,
}

/// The reply the server would send to `req`, from `view`.
fn reply(req: &Request<K>, view: &ReadView<K>) -> Response<K> {
    match req {
        Request::Get { key } => Response::Value(view.get(key).ok().flatten()),
        Request::Query { min, max } => Response::Entries(view.query(min, max).unwrap_or_default()),
        Request::Knn { center, n } => {
            Response::Neighbors(view.knn(center, *n as usize).unwrap_or_default())
        }
        Request::Remove { .. } => Response::Value(None),
        _ => Response::Ack,
    }
}

fn read_body(framed: &[u8]) -> Vec<u8> {
    proto::read_frame(&mut Cursor::new(framed))
        .expect("replayed frame decodes")
        .expect("replayed frame is whole")
}

pub fn codec(ops: &[Request<K>], view: &ReadView<K>) -> Codec {
    let replies: Vec<Response<K>> = ops.iter().map(|r| reply(r, view)).collect();
    let req_frames: Vec<Vec<u8>> = ops
        .iter()
        .enumerate()
        .map(|(i, r)| proto::frame(&proto::encode_request(i as u64, r)))
        .collect();
    let rep_frames: Vec<Vec<u8>> = replies
        .iter()
        .enumerate()
        .map(|(i, r)| proto::frame(&proto::encode_response(i as u64, r)))
        .collect();
    let idx: Vec<usize> = (0..ops.len()).collect();
    let enc_req = ns_per(&idx, |&i| {
        black_box(proto::frame(&proto::encode_request(i as u64, &ops[i])));
    });
    let enc_rep = ns_per(&idx, |&i| {
        black_box(proto::frame(&proto::encode_response(i as u64, &replies[i])));
    });
    let dec_req = ns_per(&req_frames, |f| {
        black_box(proto::decode_request::<K>(&read_body(f)).expect("request decodes"));
    });
    let dec_rep = ns_per(&rep_frames, |f| {
        black_box(proto::decode_response::<K>(&read_body(f)).expect("reply decodes"));
    });
    let reply_bytes = rep_frames.iter().map(|f| f.len()).sum::<usize>() as f64;
    Codec {
        encode_ns: enc_req + enc_rep,
        decode_ns: dec_req + dec_rep,
        reply_bytes: ratio(reply_bytes, rep_frames.len() as f64),
        server_ns: dec_req + enc_rep,
    }
}

/// Read-path cost of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reads {
    pub get_ns: f64,
    pub query_ns_per_hit: f64,
    pub knn_us: f64,
}

struct Split {
    gets: Vec<Key>,
    windows: Vec<(Key, Key)>,
    knn: Vec<Key>,
    inserts: Vec<(Key, u64)>,
}

fn split(ops: &[Request<K>]) -> Split {
    let mut s = Split {
        gets: Vec::new(),
        windows: Vec::new(),
        knn: Vec::new(),
        inserts: Vec::new(),
    };
    for op in ops {
        match op {
            Request::Get { key } => s.gets.push(*key),
            Request::Query { min, max } => s.windows.push((*min, *max)),
            Request::Knn { center, .. } => s.knn.push(*center),
            Request::Insert { key, value } => s.inserts.push((*key, *value)),
            _ => {}
        }
    }
    s
}

/// Window cost per hit: total time over total hits.
fn per_hit(windows: &[(Key, Key)], mut q: impl FnMut(&Key, &Key) -> usize) -> f64 {
    if windows.is_empty() {
        return 0.0;
    }
    let hits: usize = windows.iter().map(|(a, b)| q(a, b)).sum();
    let ns = ns_per(windows, |(a, b)| {
        black_box(q(a, b));
    });
    ratio(ns * windows.len() as f64, hits as f64)
}

/// The stream's reads against a pinned view (the shard layer, or for a
/// packed backend the packed shards).
pub fn view_reads(ops: &[Request<K>], view: &ReadView<K>) -> Reads {
    let s = split(ops);
    Reads {
        get_ns: ns_per(&s.gets, |k| {
            black_box(view.get(k).expect("view get"));
        }),
        query_ns_per_hit: per_hit(&s.windows, |a, b| view.query(a, b).map_or(0, |v| v.len())),
        knn_us: ns_per(&s.knn, |c| {
            black_box(view.knn(c, KNN_N).expect("view knn"));
        }) / 1e3,
    }
}

/// The tree layer: reads and inserts against one `PhTree`.
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeCost {
    pub reads: Reads,
    pub insert_ns: f64,
    pub allocs_per_insert: f64,
}

/// Replays the stream against `tree` (inserts last; they stay in it).
pub fn tree(ops: &[Request<K>], tree: &mut PhTree<u64, K>) -> TreeCost {
    let s = split(ops);
    let reads = Reads {
        get_ns: ns_per(&s.gets, |k| {
            black_box(tree.get(k));
        }),
        query_ns_per_hit: per_hit(&s.windows, |a, b| tree.query(a, b).count()),
        knn_us: ns_per(&s.knn, |c| {
            black_box(tree.knn(c, KNN_N));
        }) / 1e3,
    };
    let (mut insert_ns, mut allocs_per_insert) = (0.0, 0.0);
    if !s.inserts.is_empty() {
        let a0 = alloc_track::snapshot().allocs;
        let t0 = Instant::now();
        for &(k, v) in &s.inserts {
            black_box(tree.insert(k, v));
        }
        insert_ns = t0.elapsed().as_nanos() as f64 / s.inserts.len() as f64;
        allocs_per_insert = (alloc_track::snapshot().allocs - a0) as f64 / s.inserts.len() as f64;
    }
    TreeCost {
        reads,
        insert_ns,
        allocs_per_insert,
    }
}

/// The packed layer alone: `tree` packed into one PHPACK01 file on an
/// in-memory VFS and opened behind an LRU page cache holding
/// `cache_share` of its data pages, as the packed backend opens each of
/// its shards; returns the stream's gets against it, ns per get.
pub fn packed_gets(ops: &[Request<K>], tree: &PhTree<u64, K>, cache_share: f64) -> io::Result<f64> {
    let err = |e: phstore::StoreError| io::Error::other(e.to_string());
    let vfs = phstore::vfs::MemVfs::new();
    let path = Path::new("/phbench/single.phk");
    let stats = phpack::pack_tree_in(tree, &vfs, path).map_err(err)?;
    let pages = ((stats.data_pages as f64 * cache_share).ceil() as usize).max(1);
    let packed: PackedTree<u64, K> =
        PackedTree::open_in(&vfs, path, CacheMode::Lru { pages }).map_err(err)?;
    let s = split(ops);
    Ok(ns_per(&s.gets, |k| {
        black_box(packed.get(k).expect("packed get"));
    }))
}
