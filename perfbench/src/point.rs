//! One simulated run ("point") of a workload, split into a set-up
//! phase and a measurement phase.
//!
//! A workload body builds its testbed, prepopulates it, then brackets
//! its measured operations with [`Gate::open`] and [`Gate::close`].
//! The harness records host time, allocator counters and a metrics
//! registry snapshot at both gates, so the per-op cost vector covers
//! the measurement phase only.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;
use std::time::Instant;

use sim_core::{Sim, SimTime, Simulation, SpanRecord};

use crate::alloc::{self, HeapMark};

/// What a workload reports about its measurement phase.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were shed or never finished.
    pub failed: u64,
    /// Payload bytes moved by successful READs and WRITEs.
    pub payload_bytes: u64,
    /// COMMIT calls among the attempted ops.
    pub commits: u64,
    /// Simulated duration of the measurement phase, ns.
    pub sim_ns: u64,
    /// Latency of every attempted op, ns; failed ops read `u64::MAX`
    /// (a miss counts against every latency limit).
    pub lat_ns: Vec<u64>,
    /// Client CPU busy time over the measurement phase, ns.
    pub client_cpu_ns: u64,
    /// Output-check failures; any entry fails the run.
    pub errors: Vec<String>,
    /// Open loop only: the backlog grew over the second half of the
    /// arrival window.
    pub backlog_growth: bool,
}

impl Sample {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Latencies sorted ascending (failed ops last).
    pub fn sorted_lat(&self) -> Vec<u64> {
        let mut v = self.lat_ns.clone();
        v.sort_unstable();
        v
    }
}

/// Nearest-rank quantile of sorted samples.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

struct Mark {
    at: Instant,
    sim_at: SimTime,
    heap: HeapMark,
    snapshot: Vec<(String, u64)>,
}

impl Mark {
    fn take(sim: &Sim) -> Mark {
        // Snapshot first: its own allocations land before the heap mark.
        let snapshot = sim.metrics().snapshot();
        Mark {
            heap: alloc::mark(),
            at: Instant::now(),
            sim_at: sim.now(),
            snapshot,
        }
    }
}

/// Phase boundary recorder handed to a workload body.
#[derive(Default)]
pub struct Gate {
    open: RefCell<Option<Mark>>,
    close: RefCell<Option<Mark>>,
}

impl Gate {
    /// Set-up is over; the measurement phase starts now.
    pub fn open(&self, sim: &Sim) {
        *self.open.borrow_mut() = Some(Mark::take(sim));
    }

    /// The measurement phase ends now (output checks may follow).
    pub fn close(&self, sim: &Sim) {
        *self.close.borrow_mut() = Some(Mark::take(sim));
    }
}

/// One finished point.
pub struct PointRun {
    pub sample: Sample,
    /// Registry counters over the measurement phase.
    pub delta: Vec<(String, u64)>,
    /// Full registry at the end of the run.
    pub end: Vec<(String, u64)>,
    /// Host seconds from simulation creation to [`Gate::open`].
    pub setup_s: f64,
    /// Host seconds between the gates.
    pub measure_s: f64,
    pub heap_allocs: u64,
    pub heap_bytes: u64,
    /// Peak live heap over the whole point above its starting level.
    pub heap_peak: u64,
    /// Simulated instants of the two gates.
    pub window: (SimTime, SimTime),
    pub spans: Vec<SpanRecord>,
}

/// Run one workload body in a fresh simulation.
pub fn run_point<F, Fut>(seed: u64, traced: bool, body: F) -> PointRun
where
    F: FnOnce(Sim, Rc<Gate>) -> Fut,
    Fut: Future<Output = Sample> + 'static,
{
    let live0 = alloc::live();
    alloc::reset_peak();
    let t0 = Instant::now();
    let mut sim = Simulation::new(seed);
    if traced {
        sim.enable_span_tracing();
    }
    let gate = Rc::new(Gate::default());
    let fut = body(sim.handle(), gate.clone());
    let sample = sim.block_on(fut);
    let spans = if traced { sim.take_spans() } else { Vec::new() };
    let end = sim.metrics().snapshot();
    drop(sim);
    let heap_peak = alloc::peak().saturating_sub(live0);

    let open = gate
        .open
        .borrow_mut()
        .take()
        .expect("workload never opened its gate");
    let close = gate
        .close
        .borrow_mut()
        .take()
        .expect("workload never closed its gate");
    let before: std::collections::BTreeMap<&str, u64> = open
        .snapshot
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    let delta = close
        .snapshot
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k.as_str()).copied().unwrap_or(0)))
        .collect();
    PointRun {
        sample,
        delta,
        end,
        setup_s: open.at.duration_since(t0).as_secs_f64(),
        measure_s: close.at.duration_since(open.at).as_secs_f64(),
        heap_allocs: close.heap.allocs - open.heap.allocs,
        heap_bytes: close.heap.bytes - open.heap.bytes,
        heap_peak,
        window: (open.sim_at, close.sim_at),
        spans,
    }
}

impl PointRun {
    pub fn counter(&self, name: &str) -> u64 {
        self.delta
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Sum of measurement-phase counters starting with `prefix` and
    /// ending with `suffix`.
    pub fn sum(&self, prefix: &str, suffix: &str) -> u64 {
        self.delta
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// FNV-1a over every simulated outcome of the point: the sample,
    /// the measurement-phase registry delta and the final registry.
    /// Same seed ⇒ same fingerprint; host-clock values are excluded.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        let s = &self.sample;
        for v in [
            s.attempted,
            s.failed,
            s.payload_bytes,
            s.sim_ns,
            s.client_cpu_ns,
            s.backlog_growth as u64,
        ] {
            h.u64(v);
        }
        for v in &s.lat_ns {
            h.u64(*v);
        }
        for (k, v) in self.delta.iter().chain(self.end.iter()) {
            h.bytes(k.as_bytes());
            h.u64(*v);
        }
        h.0
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for x in b {
            self.0 ^= *x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}
