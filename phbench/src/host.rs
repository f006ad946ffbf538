//! The host-quiet guard: probes of the host itself, taken before each
//! set-up and around each slice while the server is idle, so that a
//! slice measured while the shared host was stalled (CPU taken by other
//! tenants, wake-ups delayed) can be told apart from the program and
//! measured again.
//!
//! A probe times three things the program under test does not touch:
//! a fixed integer loop (CPU speed), 1-byte ping-pongs with an echo
//! thread over loopback TCP (the wake-up path every request takes), and
//! a run of 1 ms sleeps (scheduling stalls). The CPU loop is judged
//! against the run's own baseline, its best time so far. The slowest
//! ping-pong and the worst oversleep are judged against a fixed
//! ceiling, so a run that starts inside a stall still sees it. (The
//! ping-pong median is no use as a baseline: it is bimodal, about 8 µs
//! when both threads share a CPU and 20–35 µs when they do not.)
//!
//! Stalls come in episodes that last from seconds to minutes, with
//! quiet probes scattered through them, so after an unquiet probe the
//! host counts as quiet again only after a streak of quiet probes.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A probe is unquiet when its CPU loop is this much slower than the
/// run's best...
const CPU_SLACK: f64 = 1.2;
/// ...or a ping-pong or a 1 ms sleep was late by more than this.
const STALL_CEILING: Duration = Duration::from_millis(2);
/// Probes taken when the guard starts, to set the baseline.
const CALIBRATION_PROBES: usize = 7;
/// Pause between probes while waiting for the host to quieten.
const WAIT_STEP: Duration = Duration::from_millis(100);
/// Quiet probes in a row that end a wait.
const QUIET_STREAK: u32 = 5;
/// Ping-pongs and 1 ms sleeps per probe.
const PINGPONGS: usize = 300;
const SLEEPS: usize = 30;

/// What one probe measured.
#[derive(Clone, Copy, Debug)]
struct Probe {
    /// Best of three runs of the fixed integer loop, ns.
    cpu_ns: u64,
    /// Slowest loopback ping-pong round trip, ns.
    pingpong_ns: u64,
    /// Worst oversleep of the 1 ms sleeps, ns.
    oversleep_ns: u64,
}

impl std::fmt::Display for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cpu {:.0} us, slowest ping-pong {:.2} ms, worst oversleep {:.2} ms",
            self.cpu_ns as f64 / 1e3,
            self.pingpong_ns as f64 / 1e6,
            self.oversleep_ns as f64 / 1e6
        )
    }
}

fn cpu_loop() -> u64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..200_000u64 {
                x = (x ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(17);
            }
            std::hint::black_box(x);
            t.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(0)
}

fn oversleep() -> u64 {
    let step = Duration::from_millis(1);
    (0..SLEEPS)
        .map(|_| {
            let t = Instant::now();
            std::thread::sleep(step);
            t.elapsed().saturating_sub(step).as_nanos() as u64
        })
        .max()
        .unwrap_or(0)
}

/// Probes the host and decides whether it is quiet enough to measure,
/// within a budget of time a run may spend waiting and repeating.
pub struct HostGuard {
    echo: TcpStream,
    echo_thread: Option<JoinHandle<()>>,
    /// The CPU loop's best time so far, ns.
    best_cpu_ns: u64,
    /// Budget left, s.
    budget_s: f64,
    /// Slices measured again because the host was not quiet after them.
    repeated: u32,
    /// Probes found unquiet.
    unquiet: u32,
    /// Time spent waiting for the host to quieten, s.
    waited_s: f64,
}

impl HostGuard {
    /// Starts the echo thread and takes the calibration probes.
    pub fn start(budget: Duration) -> io::Result<HostGuard> {
        let l = TcpListener::bind("127.0.0.1:0")?;
        let echo = TcpStream::connect(l.local_addr()?)?;
        echo.set_nodelay(true)?;
        let (mut peer, _) = l.accept()?;
        peer.set_nodelay(true)?;
        let echo_thread = std::thread::spawn(move || {
            let mut b = [0u8; 1];
            while peer.read_exact(&mut b).is_ok() && peer.write_all(&b).is_ok() {}
        });
        let mut g = HostGuard {
            echo,
            echo_thread: Some(echo_thread),
            best_cpu_ns: u64::MAX,
            budget_s: budget.as_secs_f64(),
            repeated: 0,
            unquiet: 0,
            waited_s: 0.0,
        };
        for _ in 0..CALIBRATION_PROBES {
            g.probe()?;
        }
        Ok(g)
    }

    fn pingpong(&mut self) -> io::Result<u64> {
        let mut v = Vec::with_capacity(PINGPONGS);
        let mut b = [7u8; 1];
        for _ in 0..PINGPONGS {
            let t = Instant::now();
            self.echo.write_all(&b)?;
            self.echo.read_exact(&mut b)?;
            v.push(t.elapsed().as_nanos() as u64);
        }
        Ok(v.into_iter().max().unwrap_or(0))
    }

    /// Takes one probe, folds its CPU time into the baseline and
    /// returns whether the host is quiet.
    fn probe(&mut self) -> io::Result<bool> {
        let p = Probe {
            cpu_ns: cpu_loop(),
            pingpong_ns: self.pingpong()?,
            oversleep_ns: oversleep(),
        };
        self.best_cpu_ns = self.best_cpu_ns.min(p.cpu_ns);
        let ceiling = STALL_CEILING.as_nanos() as u64;
        let quiet = (p.cpu_ns as f64) <= CPU_SLACK * self.best_cpu_ns as f64
            && p.pingpong_ns <= ceiling
            && p.oversleep_ns <= ceiling;
        if !quiet {
            self.unquiet += 1;
            println!("host not quiet: {p}");
        }
        Ok(quiet)
    }

    /// Returns at once if a probe finds the host quiet. Otherwise waits
    /// until `QUIET_STREAK` probes in a row are quiet or the budget is
    /// spent.
    pub fn wait_quiet(&mut self) -> io::Result<()> {
        if self.probe()? {
            return Ok(());
        }
        let t0 = Instant::now();
        let mut streak = 0;
        while streak < QUIET_STREAK && t0.elapsed().as_secs_f64() < self.budget_s {
            std::thread::sleep(WAIT_STEP);
            streak = if self.probe()? { streak + 1 } else { 0 };
        }
        let waited = t0.elapsed().as_secs_f64();
        self.waited_s += waited;
        self.budget_s -= waited;
        Ok(())
    }

    /// Probes after a slice that took `slice_s`; returns whether to
    /// measure the slice again: the host was not quiet, `may_repeat`
    /// allows it and the budget still covers the slice.
    pub fn repeat_slice(&mut self, slice_s: f64, may_repeat: bool) -> io::Result<bool> {
        if self.probe()? || !may_repeat || self.budget_s < slice_s {
            return Ok(false);
        }
        self.budget_s -= slice_s;
        self.repeated += 1;
        Ok(true)
    }

    /// The guard's counts, for the run's metadata.
    pub fn meta(&self) -> [(&'static str, String); 4] {
        [
            (
                "host_cpu_loop_us",
                format!("{:.0}", self.best_cpu_ns as f64 / 1e3),
            ),
            ("host_unquiet_probes", self.unquiet.to_string()),
            ("host_repeated_slices", self.repeated.to_string()),
            ("host_waited_s", format!("{:.2}", self.waited_s)),
        ]
    }
}

impl Drop for HostGuard {
    fn drop(&mut self) {
        let _ = self.echo.shutdown(std::net::Shutdown::Both);
        if let Some(t) = self.echo_thread.take() {
            let _ = t.join();
        }
    }
}
