//! The four workloads: their fixed parameters, seed-derived datasets,
//! per-connection op streams and the model every reply is checked
//! against.
//!
//! Every input the server sees is generated here from `--seed`. Writes
//! are partitioned by connection (fresh keys carry the connection's tag
//! in the low bits of the second coordinate), so each connection can
//! keep an exact model of the keys it owns while the preloaded dataset
//! stays stable for everyone: gets are answered from the dataset plus
//! the connection's acked writes, and windows / kNN are answered from
//! precomputed pools whose expected results no concurrent write can
//! change (the window_cluster inserts land outside every window and
//! far from every kNN centre, by construction).

use phserve::proto::{ErrorCode, Request, Response};
use phtree::PhTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// phserve is compiled for three dimensions.
pub const K: usize = phserve::SERVE_DIMS;
pub type Key = [u64; K];

/// Windows in each connection's window pool.
const WINDOW_POOL: usize = 2048;
/// kNN centres in each connection's kNN pool.
const KNN_POOL: usize = 1024;
/// Neighbours per kNN request.
pub const KNN_N: usize = 10;
/// Target hits per `packed_cold` window.
const PACKED_WINDOW_HITS: f64 = 8.0;
/// Pool entries cross-checked against a brute-force scan per run.
const BRUTE_SAMPLE: usize = 24;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointUniform,
    WindowCluster,
    DurableIngest,
    PackedCold,
}

/// Fixed per-workload parameters. They are constants of the benchmark
/// and never move with the code under test.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Preloaded dataset entries.
    pub entries: usize,
    /// Open-loop offered rate, ops/s summed over both connections.
    pub offered_rate: f64,
    /// Closed-loop requests in flight per connection.
    pub pipeline: usize,
    /// Set-ups timed per run; the median is `setup_s`.
    pub setups: usize,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointUniform,
        Workload::WindowCluster,
        Workload::DurableIngest,
        Workload::PackedCold,
    ];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointUniform => "point_uniform",
            Workload::WindowCluster => "window_cluster",
            Workload::DurableIngest => "durable_ingest",
            Workload::PackedCold => "packed_cold",
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::PointUniform => Spec {
                entries: 1_000_000,
                offered_rate: 12_000.0,
                pipeline: 32,
                setups: 3,
            },
            Workload::WindowCluster => Spec {
                entries: 1_000_000,
                offered_rate: 6_000.0,
                pipeline: 16,
                setups: 3,
            },
            Workload::DurableIngest => Spec {
                entries: 100_000,
                offered_rate: 1_500.0,
                pipeline: 32,
                setups: 3,
            },
            Workload::PackedCold => Spec {
                entries: 1_000_000,
                offered_rate: 6_000.0,
                pipeline: 32,
                setups: 21,
            },
        }
    }

    fn is_cluster(self) -> bool {
        self == Workload::WindowCluster
    }

    /// Whether the default rebalancer runs. It does wherever `phserve`
    /// would run it and it can settle. On CLUSTER(0.4) it cannot: the
    /// data is a line along x, so two of every three single-bit splits
    /// leave one child empty and the skew (max over mean, empty shards
    /// included) never falls below the policy's 2.0 — it would split
    /// until the 65536-shard ceiling.
    pub fn rebalances(self) -> bool {
        matches!(self, Workload::PointUniform | Workload::DurableIngest)
    }
}

/// Maps a point of the unit cube onto the full key range. Uniform data
/// then spreads uniformly over the Z-prefix shards (the order-preserving
/// float encoding would put every unit-cube key under one top-bit
/// prefix, i.e. into one shard).
pub fn to_key(p: &[f64; K]) -> Key {
    std::array::from_fn(|d| (p[d].clamp(0.0, 1.0) * 18_446_744_073_709_551_616.0) as u64)
}

/// The preloaded entries, as a list (load order) and as a map.
pub struct Dataset {
    pub items: Vec<(Key, u64)>,
    pub map: HashMap<Key, u64>,
}

fn mix_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
}

impl Dataset {
    /// CUBE for the uniform workloads, CLUSTER(0.4) for window_cluster.
    pub fn generate(w: Workload, seed: u64) -> Dataset {
        let n = w.spec().entries;
        let pts: Vec<[f64; K]> = if w.is_cluster() {
            datasets::cluster::<K>(n, 0.4, seed)
        } else {
            datasets::cube::<K>(n, seed)
        };
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0x7661_6C75)); // "valu"
        let mut map = HashMap::with_capacity(n);
        let mut items = Vec::with_capacity(n);
        for p in &pts {
            let key = to_key(p);
            let v = rng.gen::<u64>();
            if map.insert(key, v).is_none() {
                items.push((key, v));
            }
        }
        Dataset { items, map }
    }

    pub fn empty() -> Dataset {
        Dataset {
            items: Vec::new(),
            map: HashMap::new(),
        }
    }

    /// A single live tree holding the dataset: the oracle for windows
    /// and kNN, and the `phtree` layer's replay subject.
    pub fn tree(&self) -> PhTree<u64, K> {
        PhTree::bulk_load(self.items.clone())
    }
}

/// Order-independent digest of a result set.
fn digest(entries: impl Iterator<Item = (Key, u64)>) -> (u32, u64) {
    let mut n = 0u32;
    let mut h = 0u64;
    for (k, v) in entries {
        n += 1;
        let mut x = v ^ 0x51_7CC1_B727_220A;
        for c in k {
            x = (x ^ c).wrapping_mul(0x100_0000_01B3).rotate_left(29);
        }
        h = h.wrapping_add(x ^ (x >> 31));
    }
    (n, h)
}

/// A window with its expected result digest.
pub struct PoolWindow {
    pub min: Key,
    pub max: Key,
    count: u32,
    digest: u64,
}

/// A kNN centre with its expected neighbours (sorted by key).
pub struct PoolKnn {
    pub center: Key,
    expect: Vec<(Key, u64)>,
    /// The oracle saw a distance tie at the n-th neighbour, so only the
    /// result size and distance order are checked.
    tie: bool,
}

/// Read-request pools with precomputed expected answers.
pub struct Pools {
    pub windows: Vec<PoolWindow>,
    pub knn: Vec<PoolKnn>,
}

fn dist(a: &Key, b: &Key) -> f64 {
    (0..K)
        .map(|d| {
            let x = a[d].abs_diff(b[d]) as f64;
            x * x
        })
        .sum::<f64>()
        .sqrt()
}

impl Pools {
    /// Builds the pools for `w` and their answers from `oracle` (a live
    /// tree of the dataset); a deterministic sample of them is then
    /// cross-checked against a brute-force scan of the dataset.
    pub fn build(w: Workload, seed: u64, data: &Dataset, oracle: &PhTree<u64, K>) -> Pools {
        let boxes: Vec<([f64; K], [f64; K])> = match w {
            Workload::WindowCluster => {
                datasets::cluster_range_queries::<K>(WINDOW_POOL, mix_seed(seed, 1))
            }
            Workload::PackedCold => {
                // Small cubes: equal edges sized for the target hits.
                let edge = (PACKED_WINDOW_HITS / w.spec().entries as f64).cbrt();
                let mut rng = StdRng::seed_from_u64(mix_seed(seed, 2));
                (0..WINDOW_POOL)
                    .map(|_| {
                        let lo: [f64; K] = std::array::from_fn(|_| rng.gen::<f64>() * (1.0 - edge));
                        (lo, lo.map(|x| x + edge))
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        let windows: Vec<PoolWindow> = boxes
            .iter()
            .map(|(lo, hi)| {
                let (min, max) = (to_key(lo), to_key(hi));
                let (count, digest) = digest(oracle.query(&min, &max).map(|(k, v)| (k, *v)));
                PoolWindow {
                    min,
                    max,
                    count,
                    digest,
                }
            })
            .collect();
        let mut knn = Vec::new();
        if w.is_cluster() {
            // Centres are dataset points with x < 0.15; every insert of
            // this workload lands at x >= 0.2, so no insert can become
            // one of a centre's nearest neighbours.
            let near = data.items.len() * 15 / 100;
            let mut rng = StdRng::seed_from_u64(mix_seed(seed, 3));
            for _ in 0..KNN_POOL {
                let center = data.items[rng.gen_range(0..near)].0;
                let got: Vec<(Key, u64, f64)> = oracle
                    .knn(&center, KNN_N + 1)
                    .iter()
                    .map(|n| (n.key, *n.value, n.dist))
                    .collect();
                let tie = got.len() > KNN_N && got[KNN_N - 1].2 == got[KNN_N].2;
                let mut expect: Vec<(Key, u64)> =
                    got.iter().take(KNN_N).map(|&(k, v, _)| (k, v)).collect();
                expect.sort_unstable();
                knn.push(PoolKnn {
                    center,
                    expect,
                    tie,
                });
            }
        }
        let pools = Pools { windows, knn };
        pools.brute_force_check(data);
        pools
    }

    /// Checks a deterministic sample of pool answers against a scan of
    /// the whole dataset, so the tree oracle is itself verified.
    fn brute_force_check(&self, data: &Dataset) {
        let stride = |n: usize| (n / BRUTE_SAMPLE).max(1);
        for w in self.windows.iter().step_by(stride(self.windows.len())) {
            let hits = data
                .items
                .iter()
                .filter(|(k, _)| (0..K).all(|d| w.min[d] <= k[d] && k[d] <= w.max[d]))
                .copied();
            assert_eq!(
                digest(hits),
                (w.count, w.digest),
                "window oracle disagrees with a brute-force scan"
            );
        }
        for q in self.knn.iter().step_by(stride(self.knn.len())) {
            let mut all: Vec<(f64, Key, u64)> = data
                .items
                .iter()
                .map(|&(k, v)| (dist(&q.center, &k), k, v))
                .collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0));
            if q.tie {
                continue;
            }
            let mut top: Vec<(Key, u64)> = all[..KNN_N].iter().map(|&(_, k, v)| (k, v)).collect();
            top.sort_unstable();
            assert_eq!(
                top, q.expect,
                "kNN oracle disagrees with a brute-force scan"
            );
        }
    }
}

/// Which pool entry a read request came from (for checking).
#[derive(Clone, Copy, Debug)]
pub enum Tag {
    None,
    Window(u32),
    Knn(u32),
}

/// One connection's deterministic op stream.
pub struct OpGen {
    w: Workload,
    rng: StdRng,
    conn: u64,
    data: Arc<Dataset>,
    pools: Arc<Pools>,
    /// Keys this connection inserted and has not removed (as sent),
    /// oldest first.
    own: VecDeque<Key>,
}

impl OpGen {
    /// `stream` separates the phases of one run so each gets its own
    /// deterministic sequence.
    pub fn new(
        w: Workload,
        seed: u64,
        stream: u64,
        conn: u64,
        data: Arc<Dataset>,
        pools: Arc<Pools>,
    ) -> OpGen {
        OpGen {
            w,
            rng: StdRng::seed_from_u64(mix_seed(seed, (stream << 8) | conn)),
            conn,
            data,
            pools,
            own: VecDeque::new(),
        }
    }

    /// A key absent from the dataset whose low bits of the second
    /// coordinate carry `tag` (0/1: insert by connection 0/1; 3: a miss).
    fn fresh(&mut self, tag: u64) -> Key {
        loop {
            let p: [f64; K] = if self.w.is_cluster() {
                // Inside an existing cluster with x >= 0.2.
                let c = self.rng.gen_range(2000..datasets::CLUSTER_COUNT);
                let cx = c as f64 / datasets::CLUSTER_COUNT as f64;
                std::array::from_fn(|d| {
                    let base = if d == 0 { cx } else { 0.4 };
                    base + (self.rng.gen::<f64>() - 0.5) * datasets::CLUSTER_EXTENT
                })
            } else {
                std::array::from_fn(|_| self.rng.gen::<f64>())
            };
            let mut k = to_key(&p);
            k[1] = (k[1] & !3) | tag;
            if !self.data.map.contains_key(&k) {
                return k;
            }
        }
    }

    fn insert(&mut self) -> Request<K> {
        let key = self.fresh(self.conn);
        self.own.push_back(key);
        Request::Insert {
            key,
            value: self.rng.gen::<u64>(),
        }
    }

    fn hit(&mut self) -> Key {
        self.data.items[self.rng.gen_range(0..self.data.items.len())].0
    }

    fn own_key(&mut self) -> Option<Key> {
        (!self.own.is_empty()).then(|| self.own[self.rng.gen_range(0..self.own.len())])
    }

    fn window(&mut self) -> (Request<K>, Tag) {
        let i = self.rng.gen_range(0..self.pools.windows.len());
        let w = &self.pools.windows[i];
        (
            Request::Query {
                min: w.min,
                max: w.max,
            },
            Tag::Window(i as u32),
        )
    }

    pub fn next(&mut self) -> (Request<K>, Tag) {
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        match self.w {
            Workload::PointUniform => {
                if roll < 0.85 {
                    // 50% hits (a tenth of them on own acked writes).
                    let key = if self.rng.gen_bool(0.5) {
                        match self.own_key() {
                            Some(k) if self.rng.gen_bool(0.1) => k,
                            _ => self.hit(),
                        }
                    } else {
                        self.fresh(3)
                    };
                    (Request::Get { key }, Tag::None)
                } else if roll < 0.95 || self.own.is_empty() {
                    (self.insert(), Tag::None)
                } else {
                    let i = self.rng.gen_range(0..self.own.len());
                    let key = self.own.swap_remove_back(i).expect("index in range");
                    (Request::Remove { key }, Tag::None)
                }
            }
            Workload::WindowCluster => {
                if roll < 0.70 {
                    self.window()
                } else if roll < 0.90 {
                    let i = self.rng.gen_range(0..self.pools.knn.len());
                    let center = self.pools.knn[i].center;
                    (
                        Request::Knn {
                            center,
                            n: KNN_N as u32,
                        },
                        Tag::Knn(i as u32),
                    )
                } else {
                    (self.insert(), Tag::None)
                }
            }
            Workload::DurableIngest => {
                // Ingest with expiry: each fresh insert is matched by the
                // removal of the connection's oldest live key, so the
                // store — and with it the cost of every checkpoint —
                // stays the same size through the run.
                if roll < 0.45 || (roll < 0.90 && self.own.is_empty()) {
                    (self.insert(), Tag::None)
                } else if roll < 0.90 {
                    let key = self.own.pop_front().expect("checked non-empty");
                    (Request::Remove { key }, Tag::None)
                } else {
                    let r: f64 = self.rng.gen_range(0.0..1.0);
                    let key = if r < 0.5 {
                        self.hit()
                    } else if r < 0.8 {
                        self.own_key().unwrap_or_else(|| self.hit())
                    } else {
                        self.fresh(3)
                    };
                    (Request::Get { key }, Tag::None)
                }
            }
            Workload::PackedCold => {
                if roll < 0.80 {
                    let key = if self.rng.gen_bool(0.5) {
                        self.hit()
                    } else {
                        self.fresh(3)
                    };
                    (Request::Get { key }, Tag::None)
                } else {
                    self.window()
                }
            }
        }
    }
}

/// How one reply turned out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Shed,
    Error,
    Wrong,
}

/// Reply counts of one connection.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub ok: u64,
    pub shed: u64,
    pub errors: u64,
    pub wrong: u64,
    pub timed_out: u64,
}

impl Tally {
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed()
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.wrong + self.timed_out
    }

    pub fn add(&mut self, o: &Tally) {
        self.ok += o.ok;
        self.shed += o.shed;
        self.errors += o.errors;
        self.wrong += o.wrong;
        self.timed_out += o.timed_out;
    }

    pub fn count(&mut self, v: Verdict) {
        match v {
            Verdict::Ok => self.ok += 1,
            Verdict::Shed => self.shed += 1,
            Verdict::Error => self.errors += 1,
            Verdict::Wrong => self.wrong += 1,
        }
    }
}

/// One connection's acked-write model plus the shared expectations.
pub struct Checker {
    data: Arc<Dataset>,
    pools: Arc<Pools>,
    /// Keys this connection inserted, as acked (removes delete).
    pub model: HashMap<Key, u64>,
    /// First few wrong results, for the log.
    pub wrong_samples: Vec<String>,
}

impl Checker {
    pub fn new(data: Arc<Dataset>, pools: Arc<Pools>) -> Checker {
        Checker {
            data,
            pools,
            model: HashMap::new(),
            wrong_samples: Vec::new(),
        }
    }

    fn expect_get(&self, key: &Key) -> Option<u64> {
        self.model
            .get(key)
            .or_else(|| self.data.map.get(key))
            .copied()
    }

    /// Checks `resp` to `req` and advances the model. The server runs
    /// one worker, so replies on one connection arrive in request order
    /// — except admission sheds, which answer at once but change
    /// nothing — and the model at each reply equals the server's state
    /// for this connection's keys.
    pub fn check(&mut self, req: &Request<K>, tag: Tag, resp: &Response<K>) -> Verdict {
        if let Response::Error { code, .. } = resp {
            return if *code == ErrorCode::Overloaded {
                Verdict::Shed
            } else {
                Verdict::Error
            };
        }
        let ok = match (req, resp) {
            (Request::Insert { key, value }, Response::Ack) => {
                self.model.insert(*key, *value);
                true
            }
            (Request::Get { key }, Response::Value(v)) => *v == self.expect_get(key),
            (Request::Remove { key }, Response::Value(v)) => *v == self.model.remove(key),
            (Request::Query { .. }, Response::Entries(e)) => match tag {
                Tag::Window(i) => {
                    let w = &self.pools.windows[i as usize];
                    digest(e.iter().copied()) == (w.count, w.digest)
                }
                _ => false,
            },
            (Request::Knn { center, .. }, Response::Neighbors(h)) => match tag {
                Tag::Knn(i) => {
                    let q = &self.pools.knn[i as usize];
                    let ordered = h.windows(2).all(|p| p[0].2 <= p[1].2)
                        && h.iter()
                            .all(|n| (n.2 - dist(center, &n.0)).abs() <= 1e-9 * n.2);
                    let mut got: Vec<(Key, u64)> = h.iter().map(|n| (n.0, n.1)).collect();
                    got.sort_unstable();
                    ordered && h.len() == KNN_N && (q.tie || got == q.expect)
                }
                _ => false,
            },
            (Request::BulkLoad { items }, Response::Loaded { new }) => *new as usize <= items.len(),
            _ => false,
        };
        if ok {
            Verdict::Ok
        } else {
            if self.wrong_samples.len() < 4 {
                self.wrong_samples
                    .push(format!("{} -> {:?}", req.label(), short(resp)));
            }
            Verdict::Wrong
        }
    }
}

fn short<const N: usize>(r: &Response<N>) -> String {
    let s = format!("{r:?}");
    s.chars().take(160).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let w = Workload::PointUniform;
        let data = Arc::new(Dataset::generate(w, 7));
        let pools = Arc::new(Pools {
            windows: Vec::new(),
            knn: Vec::new(),
        });
        let ops = |seed| {
            let mut g = OpGen::new(w, seed, 1, 0, data.clone(), pools.clone());
            (0..200)
                .map(|_| format!("{:?}", g.next().0))
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(5), ops(5));
        assert_ne!(ops(5), ops(6));
    }

    #[test]
    fn digest_is_order_independent() {
        let a = [([1, 2, 3], 4), ([5, 6, 7], 8)];
        let b = [a[1], a[0]];
        assert_eq!(digest(a.into_iter()), digest(b.into_iter()));
        assert_ne!(digest(a.into_iter()), digest(a[..1].iter().copied()));
    }
}
