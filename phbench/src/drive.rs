//! The load generator: an unloaded depth-1 phase, an open-loop phase at
//! a fixed offered rate, and a closed-loop phase at a fixed pipeline
//! depth — at most two connections, each with one generator thread (the
//! open-loop phase adds one blocking reply reader per connection).
//!
//! Open-loop latency is timed from each request's *intended* send time
//! (`start + i / rate`), so a stall anywhere — server, kernel or the
//! generator itself — shows in the latency of every request that was
//! due during it (no coordinated omission). The generator's own
//! lateness is recorded separately.

use phserve::proto::{self, ProtoError, Request, Response};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use crate::layers::{now_ns, Root};
use crate::workload::{Checker, OpGen, Tag, Tally, K};

/// A reply not seen within this long counts as timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// One protocol connection, split into its two halves.
pub struct Wire {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
    next_id: u64,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> io::Result<Wire> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Wire {
            w: BufWriter::with_capacity(64 << 10, s.try_clone()?),
            r: BufReader::with_capacity(64 << 10, s),
            next_id: 1,
        })
    }

    /// Buffers `req`; returns its id.
    pub fn send(&mut self, req: &Request<K>) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.w
            .write_all(&proto::frame(&proto::encode_request(id, req)))?;
        Ok(id)
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }

    /// Reads the next reply frame's checksum and body (unverified).
    fn read_raw(r: &mut impl Read) -> Result<(u64, Vec<u8>), ProtoError> {
        let mut header = [0u8; proto::HEADER_LEN];
        r.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4-byte field")) as usize;
        if len == 0 || len > proto::MAX_FRAME {
            return Err(ProtoError::Malformed("reply frame length"));
        }
        let crc = u64::from_le_bytes(header[4..12].try_into().expect("8-byte field"));
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        Ok((crc, body))
    }

    /// Verifies and decodes a raw reply frame.
    fn decode(crc: u64, body: &[u8]) -> Result<(u64, Response<K>), ProtoError> {
        let got = phstore::fnv1a(body);
        if got != crc {
            return Err(ProtoError::BadCrc { expect: crc, got });
        }
        proto::decode_response::<K>(body)
    }

    /// The next reply and the id of the request it answers.
    pub fn recv(&mut self) -> Result<(u64, Response<K>), ProtoError> {
        let (crc, body) = Self::read_raw(&mut self.r)?;
        Self::decode(crc, &body)
    }

    /// Whether further replies are already buffered.
    fn buffered(&self) -> bool {
        !self.r.buffer().is_empty()
    }
}

/// What one phase measured.
#[derive(Default)]
pub struct PhaseResult {
    pub tally: Tally,
    /// Per-request latency, ns (measured window only).
    pub lat_ns: Vec<u64>,
    /// Open loop: how late the generator sent each request, ns.
    pub late_ns: Vec<u64>,
    /// Verified ops completed in the measured window.
    pub ok_in_window: u64,
    /// Length of the measured window, s.
    pub window_s: f64,
    pub wrong_samples: Vec<String>,
    /// Transport failures, for the log.
    pub notes: Vec<String>,
}

impl PhaseResult {
    fn merge(&mut self, o: PhaseResult) {
        self.tally.add(&o.tally);
        self.lat_ns.extend(o.lat_ns);
        self.late_ns.extend(o.late_ns);
        self.ok_in_window += o.ok_in_window;
        self.window_s = self.window_s.max(o.window_s);
        self.wrong_samples.extend(o.wrong_samples);
        self.notes.extend(o.notes);
    }

    pub fn throughput(&self) -> f64 {
        crate::layers::ratio(self.ok_in_window as f64, self.window_s)
    }
}

/// Exact quantile of `v` (sorted in place), in µs.
pub fn quantile_us(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let i = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[i] as f64 / 1e3
}

fn seconds_ns(s: f64) -> u64 {
    (s * 1e9) as u64
}

/// Depth 1: send one request, wait for its reply, repeat, for `warm_s`
/// unmeasured then `dur_s` measured seconds. With `traced`, each
/// request gets a root span plus encode/decode child spans.
pub fn depth1(
    addr: SocketAddr,
    gen: &mut OpGen,
    chk: &mut Checker,
    warm_s: f64,
    dur_s: f64,
    traced: bool,
) -> io::Result<PhaseResult> {
    let mut wire = Wire::connect(addr)?;
    let mut res = PhaseResult::default();
    let t0 = now_ns();
    let measure_from = t0 + seconds_ns(warm_s);
    let end = measure_from + seconds_ns(dur_s);
    loop {
        let now = now_ns();
        if now >= end {
            break;
        }
        let (req, tag) = gen.next();
        let root = traced.then(|| Root::open(wire.next_id));
        let start = now_ns();
        {
            let _enc = root.as_ref().map(|r| r.child("client.encode"));
            wire.send(&req)?;
        }
        wire.flush()?;
        let reply = match Wire::read_raw(&mut wire.r) {
            Ok((crc, body)) => {
                let _dec = root.as_ref().map(|r| r.child("client.decode"));
                Wire::decode(crc, &body)
            }
            Err(e) => Err(e),
        };
        let done = now_ns();
        if let Some(r) = root {
            r.close();
        }
        match reply {
            Ok((_, resp)) => {
                let v = chk.check(&req, tag, &resp);
                res.tally.count(v);
                if start >= measure_from {
                    res.lat_ns.push(done - start);
                    if v == crate::workload::Verdict::Ok {
                        res.ok_in_window += 1;
                    }
                }
            }
            Err(e) => {
                res.tally.timed_out += 1;
                res.notes.push(format!("depth-1 reply lost: {e}"));
                break;
            }
        }
    }
    res.window_s = (now_ns().min(end) - measure_from) as f64 / 1e9;
    res.wrong_samples = std::mem::take(&mut chk.wrong_samples);
    Ok(res)
}

/// What the open-loop sender tells the reader about each request.
enum Sent {
    Req {
        intended: u64,
        req: Request<K>,
        tag: Tag,
    },
    Done,
}

/// Open loop: each connection sends at `rate / conns` per second on a
/// fixed schedule, regardless of replies; a reader thread per
/// connection times each reply against its request's intended send
/// time. Latencies of requests due in the first `warm_s` are dropped.
pub fn open_loop(
    addr: SocketAddr,
    gens: &mut [OpGen],
    chks: &mut [Checker],
    rate: f64,
    warm_s: f64,
    dur_s: f64,
) -> io::Result<PhaseResult> {
    let conns = gens.len();
    let interval = 1e9 * conns as f64 / rate;
    let t0 = now_ns() + 1_000_000;
    let measure_from = t0 + seconds_ns(warm_s);
    let end = measure_from + seconds_ns(dur_s);
    let mut res = PhaseResult::default();
    std::thread::scope(|s| -> io::Result<()> {
        let mut handles = Vec::new();
        for (c, (gen, chk)) in gens.iter_mut().zip(chks.iter_mut()).enumerate() {
            let wire = Wire::connect(addr)?;
            let Wire { r, mut w, .. } = wire;
            let (tx, rx) = mpsc::channel::<Sent>();
            // Connections interleave: conn c starts c/conns of an interval late.
            let first = t0 + (interval * c as f64 / conns as f64) as u64;
            let sender = s.spawn(move || -> io::Result<Vec<u64>> {
                let mut late = Vec::new();
                // Request ids count from 1, one per scheduled send.
                for id in 1u64.. {
                    let intended = first + ((id - 1) as f64 * interval) as u64;
                    if intended >= end {
                        break;
                    }
                    let now = now_ns();
                    if intended > now {
                        std::thread::sleep(Duration::from_nanos(intended - now));
                    }
                    let sent = now_ns();
                    if intended >= measure_from {
                        late.push(sent.saturating_sub(intended));
                    }
                    let (req, tag) = gen.next();
                    w.write_all(&proto::frame(&proto::encode_request(id, &req)))?;
                    let _ = tx.send(Sent::Req { intended, req, tag });
                    w.flush()?;
                }
                let _ = tx.send(Sent::Done);
                Ok(late)
            });
            let reader = s.spawn(move || -> PhaseResult {
                let mut r = r;
                let mut out = PhaseResult::default();
                // Sent, not yet answered, by request id (sent ids are
                // consecutive from 1).
                let mut pending = HashMap::new();
                let mut next_id = 1u64;
                let mut sender_done = false;
                loop {
                    // Learn about everything sent so far; block only
                    // when nothing is outstanding.
                    loop {
                        let msg = if pending.is_empty() && !sender_done {
                            rx.recv().ok()
                        } else {
                            rx.try_recv().ok()
                        };
                        match msg {
                            Some(Sent::Req { intended, req, tag }) => {
                                pending.insert(next_id, (intended, req, tag));
                                next_id += 1;
                            }
                            Some(Sent::Done) | None if pending.is_empty() => {
                                sender_done = true;
                                break;
                            }
                            Some(Sent::Done) => sender_done = true,
                            None => break,
                        }
                    }
                    if pending.is_empty() {
                        break;
                    }
                    match Wire::read_raw(&mut r).and_then(|(crc, b)| Wire::decode(crc, &b)) {
                        Ok((id, resp)) => {
                            let done = now_ns();
                            // A reply may overtake one whose request was
                            // sent first (an admission shed answers at
                            // once), so wait until its request is known.
                            while !pending.contains_key(&id) && !sender_done {
                                match rx.recv() {
                                    Ok(Sent::Req { intended, req, tag }) => {
                                        pending.insert(next_id, (intended, req, tag));
                                        next_id += 1;
                                    }
                                    _ => sender_done = true,
                                }
                            }
                            let Some((intended, req, tag)) = pending.remove(&id) else {
                                out.tally.errors += 1;
                                out.notes
                                    .push(format!("open loop: reply to unknown request {id}"));
                                break;
                            };
                            let v = chk.check(&req, tag, &resp);
                            out.tally.count(v);
                            if intended >= measure_from {
                                out.lat_ns.push(done.saturating_sub(intended));
                                if v == crate::workload::Verdict::Ok {
                                    out.ok_in_window += 1;
                                }
                            }
                        }
                        Err(e) => {
                            let unsent =
                                rx.iter().filter(|m| matches!(m, Sent::Req { .. })).count();
                            out.tally.timed_out += (pending.len() + unsent) as u64;
                            out.notes.push(format!("open-loop replies lost: {e}"));
                            break;
                        }
                    }
                }
                out.wrong_samples = std::mem::take(&mut chk.wrong_samples);
                out
            });
            handles.push((sender, reader));
        }
        for (sender, reader) in handles {
            let late = sender.join().expect("open-loop sender panicked");
            let mut part = reader.join().expect("open-loop reader panicked");
            part.late_ns = late?;
            res.merge(part);
        }
        Ok(())
    })?;
    res.window_s = dur_s;
    Ok(res)
}

/// Closed loop: each connection keeps `depth` requests in flight,
/// sending the next as each reply arrives, for `warm_s` unmeasured and
/// `dur_s` measured seconds; in-flight requests are drained at the end.
pub fn closed_loop(
    addr: SocketAddr,
    gens: &mut [OpGen],
    chks: &mut [Checker],
    depth: usize,
    warm_s: f64,
    dur_s: f64,
) -> io::Result<PhaseResult> {
    let t0 = now_ns();
    let measure_from = t0 + seconds_ns(warm_s);
    let end = measure_from + seconds_ns(dur_s);
    let mut res = PhaseResult::default();
    std::thread::scope(|s| -> io::Result<()> {
        let mut handles = Vec::new();
        for (gen, chk) in gens.iter_mut().zip(chks.iter_mut()) {
            let mut wire = Wire::connect(addr)?;
            handles.push(s.spawn(move || -> io::Result<PhaseResult> {
                let mut out = PhaseResult::default();
                // In flight by request id: an admission shed answers at
                // once, overtaking replies to earlier requests.
                let mut inflight = HashMap::with_capacity(depth);
                for _ in 0..depth {
                    let (req, tag) = gen.next();
                    inflight.insert(wire.send(&req)?, (req, tag));
                }
                while !inflight.is_empty() {
                    // Send what is queued before blocking on a reply:
                    // batches form while replies are already buffered.
                    if !wire.buffered() {
                        wire.flush()?;
                    }
                    let (req, tag, resp) = match wire.recv() {
                        Ok((id, resp)) => match inflight.remove(&id) {
                            Some((req, tag)) => (req, tag, resp),
                            None => {
                                out.tally.errors += 1;
                                out.notes
                                    .push(format!("closed loop: reply to unknown request {id}"));
                                break;
                            }
                        },
                        Err(e) => {
                            out.tally.timed_out += inflight.len() as u64;
                            out.notes.push(format!("closed-loop replies lost: {e}"));
                            break;
                        }
                    };
                    let now = now_ns();
                    let v = chk.check(&req, tag, &resp);
                    out.tally.count(v);
                    if now >= measure_from && now < end && v == crate::workload::Verdict::Ok {
                        out.ok_in_window += 1;
                    }
                    if now < end {
                        let (req, tag) = gen.next();
                        inflight.insert(wire.send(&req)?, (req, tag));
                    }
                }
                out.wrong_samples = std::mem::take(&mut chk.wrong_samples);
                Ok(out)
            }));
        }
        for h in handles {
            res.merge(h.join().expect("closed-loop connection panicked")?);
        }
        Ok(())
    })?;
    res.window_s = dur_s;
    Ok(res)
}

/// Sends `items` as BulkLoad frames of `chunk` entries over one
/// connection, two frames in flight; returns entries acked.
pub fn preload(
    addr: SocketAddr,
    items: &[([u64; K], u64)],
    chunk: usize,
    chk: &mut Checker,
) -> io::Result<(usize, Tally)> {
    let mut wire = Wire::connect(addr)?;
    let mut tally = Tally::default();
    let mut acked = 0usize;
    let mut inflight = std::collections::VecDeque::new();
    let mut chunks = items.chunks(chunk);
    loop {
        while inflight.len() < 2 {
            let Some(c) = chunks.next() else { break };
            let req = Request::BulkLoad { items: c.to_vec() };
            wire.send(&req)?;
            inflight.push_back(req);
        }
        wire.flush()?;
        let Some(req) = inflight.pop_front() else {
            break;
        };
        let (_, resp) = wire.recv().map_err(io::Error::other)?;
        let v = chk.check(&req, Tag::None, &resp);
        tally.count(v);
        if let Request::BulkLoad { items } = &req {
            if v == crate::workload::Verdict::Ok {
                acked += items.len();
            }
        }
    }
    Ok((acked, tally))
}
