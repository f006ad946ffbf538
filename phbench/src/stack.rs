//! Brings up the serving stack for a workload the way `phserve` does:
//! eight shards, the default rebalancer, one worker, default admission
//! queue — hosted in process through `phserve::server::spawn`.

use phmetrics::Registry;
use phpack::CacheMode;
use phserve::backend::{Backend, PackedBackend, ReadView};
use phserve::server::{spawn, ServerConfig, ServerHandle};
use phshard::{
    DurableSharded, PackedShards, RebalancePolicy, Rebalancer, ShardStats, ShardedTree, SkewReport,
};
use phstore::vfs::{MemVfs, Vfs};
use phstore::DurableConfig;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use crate::drive;
use crate::layers::{now_ns, BackendStats, CountingVfs, IoStats, Timed};
use crate::workload::{Checker, Dataset, Pools, Workload, K};

/// Shards, as `phserve` starts by default.
pub const SHARDS: usize = 8;
/// Entries per BulkLoad frame when preloading over the wire.
pub const PRELOAD_CHUNK: usize = 20_000;
/// The packed page cache holds this share of the data pages.
pub const PACKED_CACHE_SHARE: f64 = 0.10;
/// Longest a set-up may wait for the rebalancer to settle.
const SETTLE_LIMIT: Duration = Duration::from_secs(60);

/// The durability policy as shipped: fsync on every ack, checkpoint
/// when a shard's WAL passes 1 MiB (about twice per shard in a
/// 14-second run).
pub fn durable_config() -> DurableConfig {
    DurableConfig::default()
}

/// The durable store's flush policy, for the run's metadata.
pub fn flush_policy() -> String {
    let c = durable_config();
    let per_ack = if c.sync_writes {
        "fsync per ack"
    } else {
        "no fsync per ack"
    };
    format!(
        "{per_ack}; checkpoint at {} WAL bytes per shard; in-memory VFS",
        c.checkpoint_bytes
    )
}

/// The backend behind the server.
pub enum Store {
    Mem(Arc<ShardedTree<u64, K>>),
    Dur(Arc<DurableSharded<u64, K>>),
    Pack(Arc<PackedBackend<K>>),
}

impl Store {
    pub fn stats(&self) -> ShardStats {
        match self {
            Store::Mem(b) => b.stats(),
            Store::Dur(b) => b.stats(),
            Store::Pack(b) => b.stats(),
        }
    }

    pub fn read_view(&self) -> ReadView<K> {
        match self {
            Store::Mem(b) => b.read_view(),
            Store::Dur(b) => b.read_view(),
            Store::Pack(b) => b.read_view(),
        }
    }
}

/// A running server over one backend.
pub struct Stack {
    pub store: Store,
    pub server: Option<ServerHandle>,
    pub addr: SocketAddr,
    pub registry: Registry,
    rebalancer: Option<Rebalancer>,
    /// Backend call statistics (traced runs only).
    pub calls: Option<Arc<BackendStats>>,
    /// Recovery replayed ops at open (durable).
    pub replayed_ops: u64,
}

fn serve<B: Backend<K>>(
    b: Arc<B>,
    traced: bool,
    registry: &Registry,
    cfg: ServerConfig,
) -> io::Result<(ServerHandle, Option<Arc<BackendStats>>)> {
    if traced {
        let t = Timed::new(b);
        let stats = Arc::clone(&t.stats);
        let h = spawn(Arc::new(t), "127.0.0.1:0", None, registry.clone(), cfg)?;
        Ok((h, Some(stats)))
    } else {
        Ok((spawn(b, "127.0.0.1:0", None, registry.clone(), cfg)?, None))
    }
}

impl Stack {
    /// Starts serving `store`, with the default rebalancer if
    /// `rebalance` (writable backends only).
    pub fn start(
        store: Store,
        registry: Registry,
        traced: bool,
        cfg: ServerConfig,
        rebalance: bool,
    ) -> io::Result<Stack> {
        let policy = RebalancePolicy::default();
        let (server, calls, rebalancer) = match &store {
            Store::Mem(b) => {
                let r = rebalance.then(|| Rebalancer::spawn(Arc::clone(b), policy));
                let (h, c) = serve(Arc::clone(b), traced, &registry, cfg)?;
                (h, c, r)
            }
            Store::Dur(b) => {
                let r = rebalance.then(|| Rebalancer::spawn(Arc::clone(b), policy));
                let (h, c) = serve(Arc::clone(b), traced, &registry, cfg)?;
                (h, c, r)
            }
            Store::Pack(b) => {
                let (h, c) = serve(Arc::clone(b), traced, &registry, cfg)?;
                (h, c, None)
            }
        };
        Ok(Stack {
            addr: server.addr(),
            store,
            server: Some(server),
            registry,
            rebalancer,
            calls,
            replayed_ops: 0,
        })
    }

    /// Waits until the rebalancer's policy would split nothing more.
    pub fn settle(&self) -> io::Result<()> {
        if self.rebalancer.is_none() {
            return Ok(());
        }
        let policy = RebalancePolicy::default();
        let t0 = std::time::Instant::now();
        while policy
            .pick(&SkewReport::from(&self.store.stats()))
            .is_some()
        {
            if t0.elapsed() > SETTLE_LIMIT {
                return Err(io::Error::other("rebalancer did not settle"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }

    /// Stops the server and the rebalancer; returns splits committed.
    pub fn stop(&mut self) -> usize {
        if let Some(s) = self.server.take() {
            s.stop();
        }
        self.rebalancer.take().map_or(0, |r| r.stop().len())
    }
}

/// Untimed preparation a workload needs before its set-ups: the
/// durable store to recover, or the packed checkpoint to open.
///
/// Both live on an in-memory VFS. On a shared host the device latency
/// swings several-fold within a minute (fsync p90 from ~0.1 to ~2 ms),
/// which no run length steadies; phstore and phpack still run their
/// whole code path — every write, fsync, rename and page read is
/// issued and counted — and only the device is left out.
pub struct Prepared {
    pub vfs: MemVfs,
    pub dir: PathBuf,
    /// Pages per shard for the packed LRU cache.
    pub lru_pages: usize,
}

impl Prepared {
    /// Bytes of every file of the store.
    pub fn file_bytes(&self) -> u64 {
        self.vfs
            .paths()
            .iter()
            .filter_map(|p| self.vfs.read_file(p))
            .map(|f| f.len() as u64)
            .sum()
    }
}

pub fn prepare(w: Workload, data: &Dataset) -> io::Result<Prepared> {
    let err = |e: phshard::ShardError| io::Error::other(e.to_string());
    let vfs = MemVfs::new();
    let dir = PathBuf::from("/phbench").join(w.name());
    let mut lru_pages = 0;
    match w {
        Workload::DurableIngest => {
            let store = DurableSharded::<u64, K>::open_with(
                Arc::new(vfs.clone()),
                &dir,
                SHARDS,
                durable_config(),
            )
            .map_err(|e| io::Error::other(e.to_string()))?;
            for c in data.items.chunks(PRELOAD_CHUNK) {
                store.bulk_load(c.to_vec()).map_err(err)?;
            }
        }
        Workload::PackedCold => {
            let tree: ShardedTree<u64, K> = ShardedTree::with_threads(SHARDS, 1);
            tree.bulk_load(data.items.clone());
            let ck = phshard::write_packed_checkpoint(&tree.snapshot(), &vfs, &dir).map_err(err)?;
            let data_pages = ck.file_bytes as f64 / phstore::superblock::PAGE_SIZE as f64;
            lru_pages = ((data_pages * PACKED_CACHE_SHARE) / ck.shards as f64).ceil() as usize;
        }
        _ => {}
    }
    Ok(Prepared {
        vfs,
        dir,
        lru_pages,
    })
}

/// Host parallelism, which sizes the in-memory fan-out pool as
/// `phserve` does.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One set-up: from nothing to a serving-ready backend (preloaded or
/// recovered or opened, rebalancer settled). `io` is the counting VFS
/// handed to the durable store / packed cache.
pub fn setup(
    w: Workload,
    data: &Dataset,
    pools: &Arc<Pools>,
    prep: &Prepared,
    io: &Arc<IoStats>,
    traced: bool,
    cfg: ServerConfig,
) -> io::Result<Stack> {
    let registry = Registry::new();
    let counting = |layer: &str| -> Arc<dyn Vfs> {
        Arc::new(CountingVfs::new(
            Arc::new(prep.vfs.clone()),
            layer,
            Arc::clone(io),
        ))
    };
    let (store, replayed) = match w {
        Workload::PointUniform | Workload::WindowCluster => (
            Store::Mem(Arc::new(ShardedTree::with_metrics(
                SHARDS,
                host_cores(),
                &registry,
            ))),
            0,
        ),
        Workload::DurableIngest => {
            let b = DurableSharded::open_observed(
                counting("store"),
                &prep.dir,
                SHARDS,
                durable_config(),
                &registry,
            )
            .map_err(|e| io::Error::other(e.to_string()))?;
            let replayed = b
                .recovery_stats()
                .iter()
                .map(|r| r.replayed_ops as u64)
                .sum();
            (Store::Dur(Arc::new(b)), replayed)
        }
        Workload::PackedCold => {
            let vfs = counting("pack");
            let p = PackedShards::open_in(
                vfs.as_ref(),
                &prep.dir,
                CacheMode::Lru {
                    pages: prep.lru_pages.max(1),
                },
            )
            .map_err(|e| io::Error::other(e.to_string()))?;
            (Store::Pack(Arc::new(PackedBackend(Arc::new(p)))), 0)
        }
    };
    let mut stack = Stack::start(store, registry, traced, cfg, w.rebalances())?;
    stack.replayed_ops = replayed;
    if matches!(w, Workload::PointUniform | Workload::WindowCluster) {
        let mut chk = Checker::new(Arc::new(Dataset::empty()), Arc::clone(pools));
        let (acked, tally) = drive::preload(stack.addr, &data.items, PRELOAD_CHUNK, &mut chk)?;
        if acked != data.items.len() || tally.failed() > 0 {
            return Err(io::Error::other(format!(
                "preload acked {acked} of {} entries",
                data.items.len()
            )));
        }
    }
    stack.settle()?;
    Ok(stack)
}

/// Sets up `spec.setups` times, tearing down all but the last; returns
/// the serving stack and each set-up's wall time, s. `before` runs
/// untimed before each set-up.
#[allow(clippy::too_many_arguments)]
pub fn setups(
    w: Workload,
    data: &Dataset,
    pools: &Arc<Pools>,
    prep: &Prepared,
    io: &Arc<IoStats>,
    traced: bool,
    mut before: impl FnMut() -> io::Result<()>,
) -> io::Result<(Stack, Vec<f64>)> {
    let n = w.spec().setups.max(1);
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for i in 0..n {
        before()?;
        let t0 = now_ns();
        let mut stack = setup(w, data, pools, prep, io, traced, ServerConfig::default())?;
        times.push((now_ns() - t0) as f64 / 1e9);
        if i + 1 < n {
            stack.stop();
            drop(stack);
        } else {
            last = Some(stack);
        }
    }
    Ok((last.expect("at least one set-up"), times))
}
