//! The machine-speed probe.
//!
//! The benchmark shares a small VM with other tenants, and their load
//! makes the same code run 10–40 % slower for seconds to minutes at a
//! time — on-CPU time slows as much as wall time, so it is the speed of
//! the cores that drifts, not the share of them the benchmark gets. A
//! probe unit is a fixed piece of the benchmark's own code (shortest
//! paths from one source over a seeded sparse graph: branches, a heap
//! and scattered loads, like the planner and the flow simulator), about
//! 0.2 ms long. It calls into no crate of the repository, so no change
//! to them moves it.
//!
//! Units run on the core and at the moment of the measured work: the
//! benchmark's own threads run one between operations at most every
//! [`EVERY`] ([`Pacer`]), and work that runs inside one long call gets a
//! [`Sampler`] thread beside it. A part of a run is then rescaled by how
//! much slower than [`UNIT_REF_MS`] its units ran (their median over the
//! reference): throughput is multiplied and latency divided by that
//! factor, and the units' own time is left out of the part's wall time.
//! The figures reported are those of the machine at the reference
//! speed; a drift of the machine's speed cancels out, while a change to
//! the repository's code does not.

use crate::stats::{self, Rng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Graph nodes and out-degree.
const NODES: usize = 1024;
const DEGREE: usize = 6;
/// Least time between two units on one thread.
pub const EVERY: Duration = Duration::from_millis(10);
/// Milliseconds of one unit on the reference machine (2-vCPU Intel Xeon
/// VM, unloaded).
pub const UNIT_REF_MS: f64 = 0.2;

/// A seeded graph in compressed sparse rows.
struct Graph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<u32>,
}

impl Graph {
    fn new() -> Self {
        let mut rng = Rng::new(0x9E0B);
        let mut offsets = Vec::with_capacity(NODES + 1);
        let (mut targets, mut weights) = (Vec::new(), Vec::new());
        for _ in 0..NODES {
            offsets.push(targets.len());
            for _ in 0..DEGREE {
                targets.push(rng.below(NODES) as u32);
                weights.push(1 + rng.below(1000) as u32);
            }
        }
        offsets.push(targets.len());
        Self {
            offsets,
            targets,
            weights,
        }
    }

    /// Dijkstra from source `src`; the sum of the distances.
    fn shortest_paths(&self, src: usize) -> u64 {
        let mut dist = vec![u64::MAX; NODES];
        let mut heap = BinaryHeap::new();
        dist[src] = 0;
        heap.push(Reverse((0u64, src as u32)));
        while let Some(Reverse((d, u))) = heap.pop() {
            let u = u as usize;
            if d > dist[u] {
                continue;
            }
            for e in self.offsets[u]..self.offsets[u + 1] {
                let v = self.targets[e] as usize;
                let nd = d + u64::from(self.weights[e]);
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Reverse((nd, v as u32)));
                }
            }
        }
        dist.iter().filter(|&&d| d != u64::MAX).sum()
    }
}

static GRAPH: OnceLock<Graph> = OnceLock::new();

/// Milliseconds one unit takes on the calling thread; `i` picks the
/// source.
pub fn unit_ms(i: usize) -> f64 {
    let graph = GRAPH.get_or_init(Graph::new);
    let start = Instant::now();
    black_box(graph.shortest_paths(i * 97 % NODES));
    start.elapsed().as_secs_f64() * 1e3
}

/// One thread's pacing of units: at most one per [`EVERY`].
#[derive(Debug, Default)]
pub struct Pacer {
    last: Option<Instant>,
    taken: usize,
}

impl Pacer {
    /// A unit's milliseconds, if one is due.
    pub fn tick(&mut self) -> Option<f64> {
        let now = Instant::now();
        if self.last.is_some_and(|t| now - t < EVERY) {
            return None;
        }
        self.last = Some(now);
        self.taken += 1;
        Some(unit_ms(self.taken))
    }
}

/// How much slower than the reference the units ran: the median unit
/// over [`UNIT_REF_MS`] (1 without units).
pub fn slowdown(unit_ms: &[f64]) -> f64 {
    if unit_ms.is_empty() {
        1.0
    } else {
        stats::median(unit_ms) / UNIT_REF_MS
    }
}

/// A thread that runs a unit every [`EVERY`] for as long as it lives,
/// for work that runs inside one call, between whose operations the
/// benchmark cannot put a unit. Before each unit it moves to the core
/// that the thread which started it last ran on, so that the unit
/// measures the core that thread's work runs on, whether the work stays
/// on that thread or fans out over every core. It takes about 2 % of
/// one core.
pub struct Sampler {
    samples: Arc<Mutex<Vec<(Instant, f64)>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    pub fn start() -> Self {
        // SAFETY: glibc's `gettid` takes no arguments and cannot fail.
        let followed = unsafe { gettid() };
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || {
                let (mut i, mut on) = (0, None);
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(EVERY);
                    let core = last_core(followed);
                    if core != on {
                        pin_current_thread(core);
                        on = core;
                    }
                    let at = Instant::now();
                    let ms = unit_ms(i);
                    samples.lock().expect("sampler lock").push((at, ms));
                    i += 1;
                }
            })
        };
        Self {
            samples,
            stop,
            thread: Some(thread),
        }
    }

    /// The units that started in `from..to`, dropped from the record.
    pub fn take(&self, from: Instant, to: Instant) -> Vec<f64> {
        let mut samples = self.samples.lock().expect("sampler lock");
        let units = samples
            .iter()
            .filter(|(at, _)| (from..to).contains(at))
            .map(|&(_, ms)| ms)
            .collect();
        samples.retain(|(at, _)| *at >= to);
        units
    }
}

impl Drop for Sampler {
    /// Stops the thread and waits for it to end.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

extern "C" {
    fn gettid() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The core thread `tid` of this process last ran on: field 39 of its
/// `stat`, counted after the command name, which may hold spaces.
fn last_core(tid: i32) -> Option<usize> {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
    let (_, fields) = stat.rsplit_once(')')?;
    fields.split_whitespace().nth(36)?.parse().ok()
}

/// Pins the calling thread to `core`, or lets it run on any core.
fn pin_current_thread(core: Option<usize>) {
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    match core {
        Some(c) if c < 1024 => mask[c / 64] |= 1 << (c % 64),
        _ => mask = [u64::MAX; 16],
    }
    // SAFETY: `mask` is a live, fully initialized `cpu_set_t` of the
    // size passed, and pid 0 is the calling thread. A failure leaves the
    // thread's affinity unchanged, which only weakens the probe.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}
