//! phbench — the end-to-end serving benchmark with a per-layer ledger.
//!
//! ```text
//! phbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir> [--commit <id>]
//! ```
//!
//! One process hosts `phserve` in process over the workload's backend,
//! drives it from at most two connections, checks every reply, and
//! prints one JSON object as its last line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` is a separate run that times every
//! layer from the benchmark's own wrappers and replays and reports the
//! per-layer metrics. See README.md in this directory.

mod drive;
mod host;
mod layers;
mod replay;
mod stack;
mod workload;

use phmetrics::{HistSnapshot, Registry};
use phserve::server::{spawn, ServerConfig};
use phshard::ShardedTree;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use drive::{quantile_us, PhaseResult};
use layers::{ratio, set_tracing, take_spans, Calls, IoStats};
use stack::{Stack, Store};
use workload::{Checker, Dataset, OpGen, Pools, Tally, Workload, K};

#[global_allocator]
static ALLOC: measure::alloc_track::CountingAlloc = measure::alloc_track::CountingAlloc;

/// Ops per replayed stream.
const REPLAY_OPS: usize = 20_000;
/// Interleaved slices of the untraced run's phases.
const SLICES: usize = 7;
/// Times a slice may be measured again after the host was not quiet.
const REPEATS: u64 = 2;
/// Waiting for a quiet host and repeated slices may add this much to an
/// untraced run.
const GUARD_BUDGET: Duration = Duration::from_secs(45);
/// Unmeasured warm-up at the start of each depth-1 / open-loop /
/// closed-loop phase, s: every phase opens fresh connections, and the
/// server's per-connection threads start inside this window.
const WARM_S: [f64; 3] = [0.05, 0.2, 0.1];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    commit: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: phbench --workload <point_uniform|window_cluster|durable_ingest|packed_cold> \
         --seed <n> --seconds <s> --trace <0|1> --out <dir> [--commit <id>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: Workload::PointUniform,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".phbench_out"),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = Workload::parse(&val).unwrap_or_else(|| usage()),
            "--seed" => a.seed = val.parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = val.parse().unwrap_or_else(|_| usage()),
            "--trace" => a.trace = val == "1",
            "--out" => a.out = PathBuf::from(val),
            "--commit" => a.commit = val,
            _ => usage(),
        }
    }
    if a.seconds <= 0.0 {
        usage();
    }
    a
}

/// Metrics by name, in emission order.
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name, (v, unit));
    }
}

/// What a run found.
struct Outcome {
    tally: Tally,
    metrics: Metrics,
    /// Failed correctness checks beyond per-reply verdicts.
    problems: Vec<String>,
    meta: Vec<(&'static str, String)>,
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A histogram's counts accumulated between two registry snapshots.
fn hist_delta(
    after: &phmetrics::Snapshot,
    before: &phmetrics::Snapshot,
    prefix: &str,
) -> HistSnapshot {
    let mut out = HistSnapshot {
        counts: [0; phmetrics::NUM_BUCKETS],
    };
    for (name, h) in &after.hists {
        if !name.starts_with(prefix) {
            continue;
        }
        let prev = before.histogram(name);
        for (i, c) in h.counts.iter().enumerate() {
            out.counts[i] += c - prev.map_or(0, |p| p.counts[i]);
        }
    }
    out
}

/// Median of a log₂-bucketed histogram, interpolated linearly inside
/// the bucket holding it.
fn hist_median(h: &HistSnapshot) -> f64 {
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    let target = total as f64 / 2.0;
    let mut cum = 0.0;
    for (i, &c) in h.counts.iter().enumerate() {
        if c > 0 && cum + c as f64 >= target {
            let hi = phmetrics::bucket_upper_bound(i) as f64;
            let lo = if i == 0 {
                0.0
            } else {
                phmetrics::bucket_upper_bound(i - 1) as f64 + 1.0
            };
            return lo + (target - cum) / c as f64 * (hi - lo);
        }
        cum += c as f64;
    }
    0.0
}

fn counter(s: &phmetrics::Snapshot, name: &str) -> f64 {
    s.counter(name).unwrap_or(0) as f64
}

fn counter_delta(a: &phmetrics::Snapshot, b: &phmetrics::Snapshot, name: &str) -> f64 {
    counter(a, name) - counter(b, name)
}

fn requests(s: &phmetrics::Snapshot, op: &str) -> f64 {
    counter(s, &format!("phserve_requests_total{{op=\"{op}\"}}"))
}

fn all_requests(s: &phmetrics::Snapshot) -> f64 {
    ["insert", "get", "remove", "query", "knn", "bulk_load"]
        .iter()
        .map(|op| requests(s, op))
        .sum()
}

/// A run's shared inputs.
struct Ctx {
    w: Workload,
    seed: u64,
    data: Arc<Dataset>,
    pools: Arc<Pools>,
}

impl Ctx {
    fn gens(&self, stream: u64, conns: u64) -> (Vec<OpGen>, Vec<Checker>) {
        (0..conns)
            .map(|c| {
                (
                    OpGen::new(
                        self.w,
                        self.seed,
                        stream,
                        c,
                        self.data.clone(),
                        self.pools.clone(),
                    ),
                    Checker::new(self.data.clone(), self.pools.clone()),
                )
            })
            .unzip()
    }

    /// A deterministic sample of the workload's op stream.
    fn replay_ops(&self) -> Vec<phserve::Request<K>> {
        let (mut g, _) = self.gens(99, 1);
        (0..REPLAY_OPS).map(|_| g[0].next().0).collect()
    }
}

/// Collects phase results and the checkers whose models must hold at
/// the end of the run.
#[derive(Default)]
struct Runs {
    tally: Tally,
    models: Vec<Checker>,
    wrong: Vec<String>,
}

impl Runs {
    fn add(&mut self, r: &mut PhaseResult, chks: Vec<Checker>) {
        self.tally.add(&r.tally);
        self.wrong.append(&mut r.wrong_samples);
        for n in r.notes.drain(..) {
            println!("note: {n}");
        }
        self.models.extend(chks);
    }
}

fn depth1(
    ctx: &Ctx,
    runs: &mut Runs,
    addr: std::net::SocketAddr,
    stream: u64,
    dur: f64,
    traced: bool,
) -> std::io::Result<PhaseResult> {
    let (mut g, mut c) = ctx.gens(stream, 1);
    let mut r = drive::depth1(addr, &mut g[0], &mut c[0], WARM_S[0], dur, traced)?;
    runs.add(&mut r, c);
    Ok(r)
}

fn open_loop(
    ctx: &Ctx,
    runs: &mut Runs,
    addr: std::net::SocketAddr,
    stream: u64,
    dur: f64,
) -> std::io::Result<PhaseResult> {
    let (mut g, mut c) = ctx.gens(stream, 2);
    let rate = ctx.w.spec().offered_rate;
    let mut r = drive::open_loop(addr, &mut g, &mut c, rate, WARM_S[1], dur)?;
    runs.add(&mut r, c);
    Ok(r)
}

fn closed_loop(
    ctx: &Ctx,
    runs: &mut Runs,
    addr: std::net::SocketAddr,
    stream: u64,
    dur: f64,
) -> std::io::Result<PhaseResult> {
    let (mut g, mut c) = ctx.gens(stream, 2);
    let mut r = drive::closed_loop(addr, &mut g, &mut c, ctx.w.spec().pipeline, WARM_S[2], dur)?;
    runs.add(&mut r, c);
    Ok(r)
}

/// End-of-run checks on the stopped stack: entry accounting for every
/// writable backend, and for the durable store a reopen in which every
/// acked write must be present.
fn final_checks(
    ctx: &Ctx,
    have: usize,
    runs: &Runs,
    prep: &stack::Prepared,
    problems: &mut Vec<String>,
) {
    let model_entries: usize = runs.models.iter().map(|c| c.model.len()).sum();
    let want = ctx.data.items.len() + model_entries;
    if have != want {
        problems.push(format!(
            "backend holds {have} entries, the models expect {want}"
        ));
    }
    if ctx.w != Workload::DurableIngest {
        return;
    }
    let reopened = match phshard::DurableSharded::<u64, K>::open_with(
        Arc::new(prep.vfs.clone()),
        &prep.dir,
        stack::SHARDS,
        stack::durable_config(),
    ) {
        Ok(s) => s,
        Err(e) => {
            problems.push(format!("reopening the durable store failed: {e}"));
            return;
        }
    };
    let expected = ctx.data.items.iter().copied().chain(
        runs.models
            .iter()
            .flat_map(|c| c.model.iter().map(|(k, v)| (*k, *v))),
    );
    let missing = expected
        .filter(|(k, v)| reopened.get_with(k, |x| *x) != Some(*v))
        .count();
    if missing > 0 {
        problems.push(format!(
            "{missing} acked writes missing after reopening the durable store"
        ));
    }
    if reopened.len() != want {
        problems.push(format!(
            "reopened store holds {} entries, expected {want}",
            reopened.len()
        ));
    }
}

/// Live heap the stack's backend owned: the heap freed by dropping it.
fn drop_heap(st: Stack) -> f64 {
    let before = measure::alloc_track::snapshot().live_bytes as f64;
    drop(st);
    before - measure::alloc_track::snapshot().live_bytes as f64
}

fn run(a: &Args) -> std::io::Result<Outcome> {
    let w = a.workload;
    let spec = w.spec();
    let t_start = layers::now_ns();
    let data = Arc::new(Dataset::generate(w, a.seed));
    let mut oracle = data.tree();
    let pools = Arc::new(Pools::build(w, a.seed, &data, &oracle));
    let ctx = Ctx {
        w,
        seed: a.seed,
        data: Arc::clone(&data),
        pools: Arc::clone(&pools),
    };
    let prep = stack::prepare(w, &data)?;
    let io = Arc::new(IoStats::default());
    let t_inputs = layers::now_ns();
    // Untraced runs measure only while the host is quiet (see host.rs):
    // the guard waits for it before each set-up and each slice, within
    // one budget for the run.
    let mut guard = if a.trace {
        None
    } else {
        Some(host::HostGuard::start(GUARD_BUDGET)?)
    };
    let (mut st, setup_times) = stack::setups(w, &data, &pools, &prep, &io, a.trace, || {
        guard.as_mut().map_or(Ok(()), |g| g.wait_quiet())
    })?;
    let t_setups = layers::now_ns();
    let io_after_setup = io.load();
    let addr = st.addr;
    let s = a.seconds;
    let mut runs = Runs::default();
    let mut m = Metrics::default();
    let mut problems = Vec::new();
    let mut meta: Vec<(&'static str, String)> = vec![
        ("workload", w.name().into()),
        ("seed", a.seed.to_string()),
        ("trace", (a.trace as u8).to_string()),
        ("commit", a.commit.clone()),
        ("host_cores", stack::host_cores().to_string()),
        ("dataset_entries", data.items.len().to_string()),
        ("shards", stack::SHARDS.to_string()),
        ("offered_rate_ops_s", spec.offered_rate.to_string()),
        ("pipeline_depth", spec.pipeline.to_string()),
        ("connections", "2".into()),
        ("setups", spec.setups.to_string()),
        ("flush_policy", stack::flush_policy()),
        ("seconds", s.to_string()),
    ];
    if w == Workload::PackedCold {
        meta.push(("lru_pages_per_shard", prep.lru_pages.to_string()));
    }

    if !a.trace {
        // The three phases run in interleaved slices and each metric is
        // the median over slices, so a slow spell of the shared host (or
        // a checkpoint stall) that spans a slice or two does not move it.
        // A stall longer than that is caught by the host guard, which
        // probes the host with the server idle before and after every
        // slice: it waits for a quiet host before a slice and measures a
        // slice again when the host was not quiet after it.
        let mut guard = guard.take().expect("untraced runs have a host guard");
        let (mut lat, mut slices) = (Vec::new(), [(); 4].map(|_| Vec::new()));
        let f = s / SLICES as f64;
        for i in 0..SLICES as u64 {
            for attempt in 0..=REPEATS {
                guard.wait_quiet()?;
                let t0 = layers::now_ns();
                let stream = i + 100 * attempt;
                let mut d1 = depth1(&ctx, &mut runs, addr, 10 + stream, 0.25 * f, false)?;
                let mut ol = open_loop(&ctx, &mut runs, addr, 20 + stream, 0.4 * f)?;
                let cl = closed_loop(&ctx, &mut runs, addr, 30 + stream, 0.35 * f)?;
                let took = (layers::now_ns() - t0) as f64 / 1e9;
                if guard.repeat_slice(took, attempt < REPEATS)? {
                    println!("slice {i} measured again: host not quiet after it");
                    continue;
                }
                slices[0].push(cl.throughput());
                slices[1].push(quantile_us(&mut ol.lat_ns, 0.50));
                slices[2].push(quantile_us(&mut ol.lat_ns, 0.90));
                slices[3].push(quantile_us(&mut d1.lat_ns, 0.50));
                lat.append(&mut ol.lat_ns);
                break;
            }
        }
        meta.extend(guard.meta());
        drop(guard);
        // p90 is printed, not gated: inside a stall of the shared host it
        // rose 5-50x, so two stalled runs of ten would break any bound.
        let names = ["throughput_ops_s", "p50_us", "p90_us", "rtt_us"];
        for (name, v) in names.into_iter().zip(&slices) {
            let unit = if name == "throughput_ops_s" {
                "1/s"
            } else {
                "us"
            };
            if name != "p90_us" {
                m.put(name, median(v), unit);
            }
            let shown: Vec<String> = v.iter().map(|x| format!("{x:.1}")).collect();
            println!(
                "{name} by slice: {} (median {:.1})",
                shown.join(" "),
                median(v)
            );
        }
        m.put("setup_s", median(&setup_times), "s");
        let n = lat.len();
        println!(
            "open loop at {} op/s: p99 {:.1} us, p99.9 {:.1} us over {n} samples ({} beyond p99, {} beyond p99.9; not gated)",
            spec.offered_rate,
            quantile_us(&mut lat, 0.99),
            quantile_us(&mut lat, 0.999),
            n / 100,
            n / 1000,
        );
        st.stop();
        let entries = st.store.stats().entries;
        m.put(
            "heap_bytes_per_entry",
            ratio(drop_heap(st), entries as f64),
            "bytes",
        );
        final_checks(&ctx, entries, &runs, &prep, &mut problems);
    } else {
        let spans = traced_run(
            &ctx,
            &mut st,
            &mut runs,
            &mut m,
            &mut problems,
            &io,
            s,
            &a.out,
        )?;
        let layer_io = io.load().since(io_after_setup);
        m.put("store.replayed_ops", st.replayed_ops as f64, "count");
        m.put(
            "store.checkpoints",
            if w == Workload::DurableIngest {
                layer_io.checkpoints as f64
            } else {
                0.0
            },
            "count",
        );
        let splits = st.stop() as f64;
        m.put("shard.splits", splits, "count");
        m.put("shard.skew", st.store.stats().skew(), "ratio");
        let entries = st.store.stats().entries;
        let server_codec_ns = layer_replays(&ctx, &st, &mut oracle, &mut m)?;
        ledger(&spans, server_codec_ns, &mut m, &mut problems);
        drop(st);
        final_checks(&ctx, entries, &runs, &prep, &mut problems);
        let disk = ratio(prep.file_bytes() as f64, entries as f64);
        m.put(
            "store.disk_bytes_per_entry",
            if w == Workload::DurableIngest {
                disk
            } else {
                0.0
            },
            "bytes",
        );
        m.put(
            "pack.disk_bytes_per_entry",
            if w == Workload::PackedCold { disk } else { 0.0 },
            "bytes",
        );
        let tree_entries = oracle.len() as f64;
        let before = measure::alloc_track::snapshot().live_bytes as f64;
        drop(oracle);
        let tree_heap = before - measure::alloc_track::snapshot().live_bytes as f64;
        m.put(
            "tree.heap_bytes_per_entry",
            ratio(tree_heap, tree_entries),
            "bytes",
        );
        m.put(
            "error_frac",
            ratio(runs.tally.failed() as f64, runs.tally.attempted() as f64),
            "frac",
        );
        if let Err(e) = co_selftest(&ctx) {
            problems.push(format!("coordinated-omission self-test: {e}"));
        }
    }
    problems.extend(runs.wrong.iter().map(|s| format!("wrong result: {s}")));
    let secs = |a: u64, b: u64| (b - a) as f64 / 1e9;
    println!(
        "wall: inputs {:.1} s, set-ups {:.1} s, measurement and checks {:.1} s",
        secs(t_start, t_inputs),
        secs(t_inputs, t_setups),
        secs(t_setups, layers::now_ns())
    );
    Ok(Outcome {
        tally: runs.tally,
        metrics: m,
        problems,
        meta,
    })
}

/// The traced run's live phases: depth-1 untraced then traced (the
/// ledger), a short open loop (generator lateness), and closed-loop
/// rounds alternating untraced and traced (tracing overhead and the
/// server / shard / store / pack counters).
#[allow(clippy::too_many_arguments)]
fn traced_run(
    ctx: &Ctx,
    st: &mut Stack,
    runs: &mut Runs,
    m: &mut Metrics,
    problems: &mut Vec<String>,
    io: &IoStats,
    s: f64,
    out: &Path,
) -> std::io::Result<Vec<layers::Span>> {
    let addr = st.addr;
    let reg: Registry = st.registry.clone();
    let calls = st.calls.clone().expect("traced stacks carry call stats");
    let w = ctx.w;

    // Depth 1, untraced: rtt and the server's own admission-to-reply time.
    set_tracing(false);
    let r0 = reg.snapshot();
    let mut d1 = depth1(ctx, runs, addr, 11, 0.15 * s, false)?;
    let r1 = reg.snapshot();
    let rtt_us = quantile_us(&mut d1.lat_ns, 0.5);
    let server_us = hist_median(&hist_delta(&r1, &r0, "phserve_request_latency_ns")) / 1e3;
    m.put("server.latency_us", server_us, "us");
    m.put("server.transport_us", rtt_us - server_us, "us");

    // Depth 1, traced: one request in flight, so every span belongs to it.
    take_spans();
    set_tracing(true);
    let _ = depth1(ctx, runs, addr, 12, 0.15 * s, true)?;
    set_tracing(false);
    let spans = take_spans();
    std::fs::create_dir_all(out)?;
    std::fs::write(
        out.join(format!("spans-{}-seed{}.jsonl", w.name(), ctx.seed)),
        layers::spans_jsonl(&spans),
    )?;
    if let Err(e) = layers::check_nesting(&spans) {
        problems.push(format!("span nesting: {e}"));
    }

    // Open loop, untraced: the generator's own lateness.
    let mut ol = open_loop(ctx, runs, addr, 13, 0.2 * s)?;
    m.put("gen_late_p99_us", quantile_us(&mut ol.late_ns, 0.99), "us");

    // Closed loop, alternating untraced / traced rounds.
    let (i0, r0) = (io.load(), reg.snapshot());
    let stats0 = st.store.stats();
    let mut overhead = Vec::new();
    for round in 0..3u64 {
        set_tracing(false);
        let u = closed_loop(ctx, runs, addr, 20 + 2 * round, 0.1 * s)?;
        set_tracing(true);
        let t = closed_loop(ctx, runs, addr, 21 + 2 * round, 0.1 * s)?;
        set_tracing(false);
        overhead.push(ratio(u.throughput() - t.throughput(), u.throughput()));
    }
    let (i1, r1) = (io.load(), reg.snapshot());
    let stats1 = st.store.stats();

    let ov = median(&overhead);
    let lo = overhead.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = overhead.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if lo <= 0.0 && hi >= 0.0 {
        println!(
            "tracing overhead: below noise floor (±{:.1}%) over {} rounds",
            100.0 * lo.abs().max(hi.abs()),
            overhead.len()
        );
    } else {
        println!(
            "tracing overhead: {:.1}% of closed-loop throughput (rounds {:.1}%..{:.1}%)",
            100.0 * ov,
            100.0 * lo,
            100.0 * hi
        );
    }
    m.put("trace.overhead_frac", ov, "frac");

    // Server counters over the closed-loop rounds.
    let reqs = all_requests(&r1) - all_requests(&r0);
    let inserts = requests(&r1, "insert") - requests(&r0, "insert");
    let writes = inserts + requests(&r1, "remove") - requests(&r0, "remove");
    let queries = requests(&r1, "query") - requests(&r0, "query");
    m.put(
        "server.batch_size",
        ratio(reqs, counter_delta(&r1, &r0, "phserve_batches_total")),
        "count",
    );
    m.put(
        "server.coalesced_frac",
        ratio(
            counter_delta(&r1, &r0, "phserve_coalesced_inserts_total"),
            inserts,
        ),
        "frac",
    );
    m.put(
        "server.queue_depth_peak",
        r1.gauge("phserve_queue_depth")
            .map_or(0.0, |g| g.high_water as f64),
        "count",
    );
    m.put("server.shed", counter(&r1, "phserve_shed_total"), "count");

    // Shard layer: the backend wrapper's calls (traced phases).
    let c = CallsView::of(&calls);
    m.put("shard.insert_us", c.insert.ns_per_call() / 1e3, "us");
    m.put(
        "shard.bulk_load_us_per_item",
        c.bulk_load.ns_per_item() / 1e3,
        "us",
    );
    m.put(
        "shard.items_per_bulk_load",
        ratio(c.bulk_load.items as f64, c.bulk_load.calls as f64),
        "count",
    );
    m.put("shard.read_view_us", c.read_view.ns_per_call() / 1e3, "us");
    m.put(
        "shard.scanned_per_query",
        ratio(
            (stats1.shards_scanned - stats0.shards_scanned) as f64,
            queries,
        ),
        "count",
    );

    // Storage layers: the counting VFS over the closed-loop rounds. The
    // files live on the in-memory VFS, whose fsync returns at once, so
    // fsyncs are counted but not timed: their time is not the device's.
    let io = i1.since(i0);
    let durable = w == Workload::DurableIngest;
    let packed = w == Workload::PackedCold;
    let only = |on: bool, v: f64| if on { v } else { 0.0 };
    m.put(
        "store.fsyncs_per_write",
        only(durable, ratio(io.syncs.calls as f64, writes)),
        "count",
    );
    m.put(
        "store.write_amp",
        only(durable, ratio(io.writes.items as f64, 32.0 * writes)),
        "ratio",
    );
    m.put(
        "pack.page_reads_per_op",
        only(packed, ratio(io.reads.calls as f64, reqs)),
        "count",
    );
    m.put(
        "pack.read_bytes_per_op",
        only(packed, ratio(io.reads.items as f64, reqs)),
        "bytes",
    );
    m.put(
        "pack.read_us",
        only(packed, io.reads.ns_per_call() / 1e3),
        "us",
    );

    // The ledger: the traced depth-1 requests, split by span.
    Ok(spans)
}

/// A copy of every backend call statistic.
struct CallsView {
    insert: Calls,
    bulk_load: Calls,
    read_view: Calls,
}

impl CallsView {
    fn of(c: &layers::BackendStats) -> CallsView {
        CallsView {
            insert: c.insert.load(),
            bulk_load: c.bulk_load.load(),
            read_view: c.read_view.load(),
        }
    }
}

/// The depth-1 ledger: each traced request's round trip split into the
/// parts measured by spans — client codec (client spans) plus server
/// codec (replay), shard (backend-call self time), store and pack
/// (VFS calls inside backend calls) — and the residual (transport,
/// admission queue and thread hand-offs), as means per request.
/// `server_codec_ns` is the server side's codec cost per op (request
/// decode + reply encode) from the codec replay. The residual is what
/// the parts leave of the round trip, so the ledger adds up only if no
/// part is negative or larger than the round trip and the parts
/// together leave a residual of at least zero; anything else, and any
/// span it cannot attribute, is a failed check.
fn ledger(
    spans: &[layers::Span],
    server_codec_ns: f64,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) {
    let selfs = layers::self_times(spans);
    let (mut rtt, mut client, mut shard, mut store, mut pack) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut roots = 0u64;
    for (sp, &own) in spans.iter().zip(&selfs) {
        match sp.name.split('.').next() {
            _ if sp.parent == 0 => {
                roots += 1;
                rtt += sp.dur();
            }
            Some("client") => client += sp.dur(),
            Some("shard") => shard += own,
            Some("store") => store += sp.dur(),
            Some("pack") => pack += sp.dur(),
            _ => problems.push(format!("unattributed span {}", sp.name)),
        }
    }
    let per = |ns: u64| ratio(ns as f64, roots as f64) / 1e3;
    let rtt_us = per(rtt);
    let proto_us = per(client) + server_codec_ns / 1e3;
    let parts = [
        ("ledger.proto_us", proto_us),
        ("ledger.shard_us", per(shard)),
        ("ledger.store_us", per(store)),
        ("ledger.pack_us", per(pack)),
    ];
    let sum = parts.iter().map(|p| p.1).sum::<f64>();
    let residual = rtt_us - sum;
    if roots == 0 {
        problems.push("ledger: no traced depth-1 request".into());
    }
    for (name, v) in parts {
        if !(0.0..=rtt_us).contains(&v) {
            problems.push(format!(
                "ledger: {name} = {v} us is outside [0, rtt {rtt_us} us]"
            ));
        }
        m.put(name, v, "us");
    }
    if residual < 0.0 {
        problems.push(format!(
            "ledger does not add up: parts {sum} us exceed rtt {rtt_us} us"
        ));
    }
    m.put("ledger.rtt_us", rtt_us, "us");
    m.put("residual_us", residual, "us");
    println!(
        "ledger (depth 1, mean per request over {roots}): rtt {rtt_us:.2} us = proto {proto_us:.2} + shard {:.2} + store {:.2} + pack {:.2} + residual {residual:.2}",
        per(shard),
        per(store),
        per(pack)
    );
}

/// Replays the workload's op stream against the codec, the pinned read
/// view and a single tree (the server is stopped; nothing else runs).
/// Returns the server side's codec cost per op, ns.
fn layer_replays(
    ctx: &Ctx,
    st: &Stack,
    oracle: &mut phtree::PhTree<u64, K>,
    m: &mut Metrics,
) -> std::io::Result<f64> {
    let ops = ctx.replay_ops();
    let view = st.store.read_view();
    let codec = replay::codec(&ops, &view);
    m.put("proto.encode_ns", codec.encode_ns, "ns");
    m.put("proto.decode_ns", codec.decode_ns, "ns");
    m.put("proto.reply_bytes", codec.reply_bytes, "bytes");

    let v = replay::view_reads(&ops, &view);
    m.put("shard.get_ns", v.get_ns, "ns");
    m.put("shard.query_ns_per_hit", v.query_ns_per_hit, "ns");
    m.put("shard.knn_us", v.knn_us, "us");
    drop(view);
    // For the packed backend the view above is the packed shards (the
    // shard layer's routing over phpack); the pack layer alone is one
    // PackedTree of the same entries behind the same share of cache.
    let pack_get_ns = match st.store {
        Store::Pack(_) => replay::packed_gets(&ops, oracle, stack::PACKED_CACHE_SHARE)?,
        _ => 0.0,
    };
    m.put("pack.get_ns", pack_get_ns, "ns");

    let t = replay::tree(&ops, oracle);
    m.put("tree.get_ns", t.reads.get_ns, "ns");
    m.put("tree.query_ns_per_hit", t.reads.query_ns_per_hit, "ns");
    m.put("tree.knn_us", t.reads.knn_us, "us");
    m.put("tree.insert_ns", t.insert_ns, "ns");
    m.put("tree.allocs_per_insert", t.allocs_per_insert, "count");
    let ts = oracle.stats();
    m.put("tree.entries_per_node", ts.entries_per_node(), "ratio");
    m.put(
        "tree.lhc_frac",
        ratio(ts.lhc_nodes as f64, ts.nodes as f64),
        "frac",
    );
    Ok(codec.server_ns)
}

/// Open-loop honesty: a server stalled by `op_delay` must show the
/// stall in the latency of every request due during it. Every planned
/// request must be sent and measured (a generator that waited for
/// replies would omit them), and because requests keep arriving while
/// each batch sleeps, the median latency must exceed the delay by a
/// clear margin (timing from the actual send after each reply would
/// report about one delay).
fn co_selftest(ctx: &Ctx) -> Result<(), String> {
    let delay = Duration::from_millis(20);
    let (rate, dur) = (500.0, 0.2);
    let cfg = ServerConfig {
        op_delay: Some(delay),
        ..ServerConfig::default()
    };
    let tree = Arc::new(ShardedTree::<u64, K>::with_threads(1, 1));
    let h =
        spawn(tree, "127.0.0.1:0", None, Registry::disabled(), cfg).map_err(|e| e.to_string())?;
    let (mut g, mut c) = ctx.gens(90, 1);
    let r =
        drive::open_loop(h.addr(), &mut g, &mut c, rate, 0.0, dur).map_err(|e| e.to_string())?;
    h.stop();
    let planned = (rate * dur) as usize;
    let mut lat = r.lat_ns.clone();
    let min_ms = lat.iter().copied().min().unwrap_or(0) as f64 / 1e6;
    let p50_ms = quantile_us(&mut lat, 0.5) / 1e3;
    let d_ms = delay.as_secs_f64() * 1e3;
    if r.tally.timed_out > 0 || lat.len() + 1 < planned {
        return Err(format!(
            "measured {} of {planned} planned requests",
            lat.len()
        ));
    }
    if min_ms < d_ms || p50_ms < 1.25 * d_ms {
        return Err(format!(
            "stall hidden: min {min_ms:.1} ms, p50 {p50_ms:.1} ms against a {d_ms} ms stall"
        ));
    }
    println!(
        "coordinated-omission self-test: {} requests, min {min_ms:.1} ms, p50 {p50_ms:.1} ms under a {d_ms} ms stall per batch",
        lat.len()
    );
    Ok(())
}

fn main() {
    let a = parse_args();
    match run(&a) {
        Ok(o) => {
            let meta: Vec<String> = o
                .meta
                .iter()
                .map(|(k, v)| format!("\"{k}\": \"{v}\""))
                .collect();
            println!("meta {{{}}}", meta.join(", "));
            let t = &o.tally;
            println!(
                "replies: {} ok, {} shed, {} error, {} wrong, {} timed out",
                t.ok, t.shed, t.errors, t.wrong, t.timed_out
            );
            for p in &o.problems {
                println!("CHECK FAILED: {p}");
            }
            let correct = o.problems.is_empty() && o.tally.wrong == 0;
            let metrics: Vec<String> = o
                .metrics
                .0
                .iter()
                .map(|(n, (v, u))| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
                .collect();
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                o.tally.attempted().max(1),
                o.tally.failed(),
                metrics.join(", ")
            );
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("phbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layers::Span;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 7,
            name,
            start,
            end,
        }
    }

    #[test]
    fn ledger_parts_and_residual_add_up_to_the_round_trip() {
        let spans = [
            span(2, 1, "client.encode", 0, 5_000),
            span(4, 3, "store.sync", 30_000, 50_000),
            span(3, 1, "shard.insert", 20_000, 60_000),
            span(5, 1, "client.decode", 90_000, 95_000),
            span(1, 0, "client.request", 0, 100_000),
        ];
        assert!(layers::check_nesting(&spans).is_ok());
        let mut m = Metrics::default();
        let mut problems = Vec::new();
        ledger(&spans, 1_000.0, &mut m, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        let get = |n: &str| m.0[n].0;
        assert_eq!(get("ledger.rtt_us"), 100.0);
        assert_eq!(get("ledger.proto_us"), 11.0);
        assert_eq!(get("ledger.shard_us"), 20.0);
        assert_eq!(get("ledger.store_us"), 20.0);
        assert_eq!(get("ledger.pack_us"), 0.0);
        assert_eq!(get("residual_us"), 49.0);
    }

    #[test]
    fn ledger_flags_parts_that_exceed_the_round_trip() {
        // A 10 µs round trip whose client codec (2 µs), shard self time
        // (5 µs) and replayed server codec (5 µs) add up to 12 µs.
        let spans = [
            span(1, 0, "client.request", 0, 10_000),
            span(2, 1, "client.encode", 0, 2_000),
            span(3, 1, "shard.get", 3_000, 8_000),
        ];
        let mut m = Metrics::default();
        let mut problems = Vec::new();
        ledger(&spans, 5_000.0, &mut m, &mut problems);
        assert_eq!(m.0["residual_us"].0, -2.0);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("does not add up"), "{problems:?}");

        // One part alone larger than the round trip.
        let mut problems = Vec::new();
        ledger(&spans[..1], 20_000.0, &mut m, &mut problems);
        assert!(
            problems.iter().any(|p| p.contains("ledger.proto_us")),
            "{problems:?}"
        );

        // No traced request at all.
        let mut problems = Vec::new();
        ledger(&[], 0.0, &mut m, &mut problems);
        assert!(!problems.is_empty());
    }

    #[test]
    fn ledger_flags_spans_it_cannot_attribute() {
        let spans = [
            span(1, 0, "client.request", 0, 10_000),
            span(2, 1, "mystery.phase", 1_000, 2_000),
        ];
        let mut problems = Vec::new();
        ledger(&spans, 0.0, &mut Metrics::default(), &mut problems);
        assert_eq!(problems.len(), 1);
    }

    #[test]
    fn a_stalled_server_shows_in_open_loop_latency() {
        let w = Workload::DurableIngest;
        let ctx = Ctx {
            w,
            seed: 3,
            data: Arc::new(Dataset::generate(w, 3)),
            pools: Arc::new(Pools {
                windows: Vec::new(),
                knn: Vec::new(),
            }),
        };
        co_selftest(&ctx).unwrap();
    }

    #[test]
    fn log2_histogram_median_interpolates_inside_its_bucket() {
        let mut h = HistSnapshot {
            counts: [0; phmetrics::NUM_BUCKETS],
        };
        // 100 samples in [1024, 2047].
        h.counts[phmetrics::bucket_index(1500)] = 100;
        let med = hist_median(&h);
        assert!((1024.0..=2047.0).contains(&med), "{med}");
        assert!((med - 1535.5).abs() < 1.0, "{med}");
    }
}
