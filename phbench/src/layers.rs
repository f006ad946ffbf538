//! Per-layer instrumentation, all of it outside the code under test:
//!
//! * [`Timed`] — a [`phserve::Backend`] wrapper timing every call the
//!   server makes into the backend (the `phshard` layer);
//! * [`CountingVfs`] — a [`phstore::vfs::Vfs`] wrapper counting and
//!   timing every read, write, fsync and checkpoint rename the durable
//!   store and the packed page cache issue (the `phstore` / `phpack`
//!   layers);
//! * request-scoped spans: name, start, end, parent and request id,
//!   kept in memory while tracing is on and written out at the end.
//!
//! Both wrappers record only while [`set_tracing`] is on; off, each
//! call costs one relaxed load on top of the wrapped one.

use phserve::backend::{Backend, ReadView};
use phshard::{ShardError, ShardStats};
use phstore::vfs::{Vfs, VfsFile};
use std::cell::RefCell;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::workload::{Key, K};

static TRACING: AtomicBool = AtomicBool::new(false);
/// Request id and root span id of the one request in flight during a
/// traced depth-1 phase (0 = none): server-side spans opened while it
/// is in flight belong to it.
static CUR_REQ: AtomicU64 = AtomicU64::new(0);
static CUR_ROOT: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Nanoseconds on one process-wide monotonic clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_tracing(on: bool) {
    TRACING.store(on, Relaxed);
}

fn tracing() -> bool {
    TRACING.load(Relaxed)
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// An open span; records itself when dropped.
pub struct SpanGuard {
    span: Option<Span>,
}

impl SpanGuard {
    const OFF: SpanGuard = SpanGuard { span: None };
}

/// Opens a span named `name` under the innermost open span of this
/// thread, or under the in-flight request's root. Records nothing
/// unless tracing is on and a traced request is in flight, or — for
/// `nested_only` spans (storage I/O, which background work also
/// issues) — unless a span is already open on this thread.
fn enter(name: &'static str, nested_only: bool) -> SpanGuard {
    if !tracing() {
        return SpanGuard::OFF;
    }
    let inner = STACK.with(|s| s.borrow().last().copied());
    let parent = match inner {
        Some(p) => p,
        None if nested_only => return SpanGuard::OFF,
        None => CUR_ROOT.load(Relaxed),
    };
    if parent == 0 {
        return SpanGuard::OFF;
    }
    let id = NEXT_SPAN.fetch_add(1, Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard {
        span: Some(Span {
            id,
            parent,
            req: CUR_REQ.load(Relaxed),
            name,
            start: now_ns(),
            end: 0,
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut s) = self.span.take() {
            s.end = now_ns();
            STACK.with(|st| st.borrow_mut().pop());
            // A poisoned store loses this span rather than panicking in
            // drop; the nesting check then reports the orphans.
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(s);
            }
        }
    }
}

/// A client-side request root span: opened before the request is
/// encoded, closed when its reply has been decoded.
pub struct Root {
    id: u64,
    req: u64,
    start: u64,
}

impl Root {
    pub fn open(req: u64) -> Root {
        let id = NEXT_SPAN.fetch_add(1, Relaxed);
        CUR_REQ.store(req, Relaxed);
        CUR_ROOT.store(id, Relaxed);
        STACK.with(|s| s.borrow_mut().push(id));
        Root {
            id,
            req,
            start: now_ns(),
        }
    }

    /// A child span on the client thread.
    pub fn child(&self, name: &'static str) -> SpanGuard {
        enter(name, true)
    }

    pub fn close(self) {
        let end = now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        CUR_ROOT.store(0, Relaxed);
        CUR_REQ.store(0, Relaxed);
        SPANS.lock().expect("span store poisoned").push(Span {
            id: self.id,
            parent: 0,
            req: self.req,
            name: "client.request",
            start: self.start,
            end,
        });
    }
}

/// Takes every span recorded so far.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Count, time and items of one kind of call.
#[derive(Default)]
pub struct CallStat {
    pub calls: AtomicU64,
    pub ns: AtomicU64,
    pub items: AtomicU64,
}

/// A plain copy of a [`CallStat`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Calls {
    pub calls: u64,
    pub ns: u64,
    pub items: u64,
}

impl CallStat {
    fn record(&self, t0: u64, items: u64) {
        self.calls.fetch_add(1, Relaxed);
        self.ns.fetch_add(now_ns() - t0, Relaxed);
        self.items.fetch_add(items, Relaxed);
    }

    pub fn load(&self) -> Calls {
        Calls {
            calls: self.calls.load(Relaxed),
            ns: self.ns.load(Relaxed),
            items: self.items.load(Relaxed),
        }
    }
}

impl Calls {
    pub fn since(self, before: Calls) -> Calls {
        Calls {
            calls: self.calls - before.calls,
            ns: self.ns - before.ns,
            items: self.items - before.items,
        }
    }

    /// Mean ns per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        ratio(self.ns as f64, self.calls as f64)
    }

    /// Mean ns per item (0 without items).
    pub fn ns_per_item(&self) -> f64 {
        ratio(self.ns as f64, self.items as f64)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Call statistics of a [`Timed`] backend, for the calls the per-layer
/// metrics read (reads are timed by the read-view replay instead).
#[derive(Default)]
pub struct BackendStats {
    pub insert: CallStat,
    pub bulk_load: CallStat,
    pub read_view: CallStat,
}

/// A [`Backend`] that forwards to `inner` and, while tracing, opens a
/// span for each call and times the calls [`BackendStats`] keeps.
pub struct Timed<B> {
    inner: Arc<B>,
    pub stats: Arc<BackendStats>,
}

impl<B> Timed<B> {
    pub fn new(inner: Arc<B>) -> Timed<B> {
        Timed {
            inner,
            stats: Arc::default(),
        }
    }
}

/// Runs `f` inside a span named `name` while tracing.
fn spanned<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !tracing() {
        return f();
    }
    let _span = enter(name, false);
    f()
}

/// Runs `f` as a timed, spanned call recorded into `stat`; `items`
/// counts what the call handled (entries loaded).
fn timed<T>(
    stat: &CallStat,
    name: &'static str,
    f: impl FnOnce() -> T,
    items: impl FnOnce(&T) -> u64,
) -> T {
    if !tracing() {
        return f();
    }
    let _span = enter(name, false);
    let t0 = now_ns();
    let out = f();
    stat.record(t0, items(&out));
    out
}

impl<B: Backend<K>> Backend<K> for Timed<B> {
    fn insert(&self, key: Key, value: u64) -> Result<(), ShardError> {
        timed(
            &self.stats.insert,
            "shard.insert",
            || self.inner.insert(key, value),
            |_| 1,
        )
    }

    fn get(&self, key: &Key) -> Result<Option<u64>, ShardError> {
        spanned("shard.get", || self.inner.get(key))
    }

    fn remove(&self, key: &Key) -> Result<Option<u64>, ShardError> {
        spanned("shard.remove", || self.inner.remove(key))
    }

    fn query(&self, min: &Key, max: &Key) -> Result<Vec<(Key, u64)>, ShardError> {
        spanned("shard.query", || self.inner.query(min, max))
    }

    fn knn(&self, center: &Key, n: usize) -> Result<Vec<(Key, u64, f64)>, ShardError> {
        spanned("shard.knn", || self.inner.knn(center, n))
    }

    fn bulk_load(&self, items: Vec<(Key, u64)>) -> Result<usize, ShardError> {
        let n = items.len() as u64;
        timed(
            &self.stats.bulk_load,
            "shard.bulk_load",
            || self.inner.bulk_load(items),
            |_| n,
        )
    }

    fn stats(&self) -> ShardStats {
        self.inner.stats()
    }

    fn read_view(&self) -> ReadView<K> {
        timed(
            &self.stats.read_view,
            "shard.read_view",
            || self.inner.read_view(),
            |_| 1,
        )
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn writable(&self) -> bool {
        self.inner.writable()
    }
}

/// Storage I/O counters of a [`CountingVfs`]. Unlike the backend
/// wrapper these count whether or not tracing is on (they are a few
/// relaxed adds per I/O call); only the spans depend on tracing.
#[derive(Default)]
pub struct IoStats {
    pub reads: CallStat,
    pub writes: CallStat,
    pub syncs: CallStat,
    /// Renames onto a store snapshot file: one per WAL checkpoint.
    pub checkpoints: AtomicU64,
}

/// A plain copy of [`IoStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Io {
    pub reads: Calls,
    pub writes: Calls,
    pub syncs: Calls,
    pub checkpoints: u64,
}

impl IoStats {
    pub fn load(&self) -> Io {
        Io {
            reads: self.reads.load(),
            writes: self.writes.load(),
            syncs: self.syncs.load(),
            checkpoints: self.checkpoints.load(Relaxed),
        }
    }
}

impl Io {
    pub fn since(self, b: Io) -> Io {
        Io {
            reads: self.reads.since(b.reads),
            writes: self.writes.since(b.writes),
            syncs: self.syncs.since(b.syncs),
            checkpoints: self.checkpoints - b.checkpoints,
        }
    }
}

/// A [`Vfs`] that forwards to `inner` and counts every file operation.
pub struct CountingVfs {
    inner: Arc<dyn Vfs>,
    stats: Arc<IoStats>,
    /// Span names for this store's reads, writes and syncs.
    names: [&'static str; 3],
}

impl CountingVfs {
    /// Counts into `stats`; `layer` prefixes the span names (`store` or
    /// `pack`).
    pub fn new(inner: Arc<dyn Vfs>, layer: &str, stats: Arc<IoStats>) -> CountingVfs {
        let names = match layer {
            "pack" => ["pack.read", "pack.write", "pack.sync"],
            _ => ["store.read", "store.write", "store.sync"],
        };
        CountingVfs {
            inner,
            stats,
            names,
        }
    }

    fn wrap(&self, f: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(CountingFile {
            inner: f,
            stats: Arc::clone(&self.stats),
            names: self.names,
        })
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    stats: Arc<IoStats>,
    names: [&'static str; 3],
}

fn io_call<T>(stat: &CallStat, name: &'static str, items: u64, f: impl FnOnce() -> T) -> T {
    let _span = enter(name, true);
    let t0 = now_ns();
    let out = f();
    stat.record(t0, items);
    out
}

impl VfsFile for CountingFile {
    fn read_exact_at(&mut self, buf: &mut [u8], off: u64) -> io::Result<()> {
        let n = buf.len() as u64;
        io_call(&self.stats.reads, self.names[0], n, || {
            self.inner.read_exact_at(buf, off)
        })
    }

    fn write_all_at(&mut self, buf: &[u8], off: u64) -> io::Result<()> {
        io_call(&self.stats.writes, self.names[1], buf.len() as u64, || {
            self.inner.write_all_at(buf, off)
        })
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        io_call(&self.stats.syncs, self.names[2], 0, || {
            self.inner.sync_all()
        })
    }
}

impl Vfs for CountingVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.create(path).map(|f| self.wrap(f))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.open(path).map(|f| self.wrap(f))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if to
            .file_name()
            .is_some_and(|n| n == phstore::durable::SNAPSHOT_FILE)
        {
            self.stats.checkpoints.fetch_add(1, Relaxed);
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        io_call(&self.stats.syncs, self.names[2], 0, || {
            self.inner.sync_dir(path)
        })
    }
}

/// What the nesting check found wrong, if anything.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: std::collections::HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if s.end < s.start {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        if s.parent == 0 {
            continue;
        }
        let Some(p) = by_id.get(&s.parent) else {
            return Err(format!("span {} ({}) has no recorded parent", s.id, s.name));
        };
        if s.start < p.start || s.end > p.end || s.req != p.req {
            return Err(format!(
                "span {} ({}) [{}, {}] escapes its parent {} ({}) [{}, {}]",
                s.id, s.name, s.start, s.end, p.id, p.name, p.start, p.end
            ));
        }
    }
    Ok(())
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            child_ns[p] += s.dur();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur().saturating_sub(c))
        .collect()
}

/// Spans as JSON lines.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.parent, s.req, s.name, s.start, s.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "t",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let s = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 2, 20, 30)];
        assert_eq!(self_times(&s), vec![70, 20, 10]);
        assert!(check_nesting(&s).is_ok());
    }

    #[test]
    fn nesting_check_catches_escapes() {
        let s = [span(1, 0, 0, 100), span(2, 1, 90, 110)];
        assert!(check_nesting(&s).is_err());
        let orphan = [span(2, 7, 0, 1)];
        assert!(check_nesting(&orphan).is_err());
    }
}
