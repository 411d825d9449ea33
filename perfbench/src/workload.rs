//! The three named workloads and the simulated configurations
//! ("points") each one runs.

use sim_core::SimDuration;

use crate::layers::{MainProc, Shapes};
use crate::point::{run_point, PointRun};
use crate::{commit_write, meta_open, seq_read};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SeqRead,
    CommitWrite,
    MetaOpen,
}

/// One simulated configuration of a workload.
#[derive(Clone, Copy, Debug)]
pub enum Spec {
    Seq(seq_read::SeqRead),
    Commit(commit_write::CommitWrite),
    Meta(meta_open::MetaOpen),
}

pub fn run_spec(spec: Spec, seed: u64, traced: bool) -> PointRun {
    match spec {
        Spec::Seq(p) => run_point(seed, traced, move |sim, gate| {
            seq_read::body(sim, gate, seed, p)
        }),
        Spec::Commit(p) => run_point(seed, traced, move |sim, gate| {
            commit_write::body(sim, gate, seed, p)
        }),
        Spec::Meta(p) => run_point(seed, traced, move |sim, gate| {
            meta_open::body(sim, gate, seed, p)
        }),
    }
}

pub fn meta(rate: f64, window_ms: u64) -> Spec {
    Spec::Meta(meta_open::MetaOpen {
        rate,
        window: SimDuration::from_millis(window_ms),
        grace: SimDuration::from_millis(20),
    })
}

/// Offered rates of the open-loop capacity ladder, ops/s: 1k steps
/// from well below to well past the serialized task queue's capacity.
pub fn ladder() -> Vec<f64> {
    (30..=56).map(|k| k as f64 * 1000.0).collect()
}

/// Seed of the `k`-th independent simulation of a point (sub-seed 0 is
/// the benchmark seed itself).
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "seq-read" => Some(Workload::SeqRead),
            "commit-write" => Some(Workload::CommitWrite),
            "meta-open" => Some(Workload::MetaOpen),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SeqRead => "seq-read",
            Workload::CommitWrite => "commit-write",
            Workload::MetaOpen => "meta-open",
        }
    }

    /// The configuration the metrics come from, and how many
    /// independent simulations (sub-seeds) of it the sim-clock metrics
    /// pool. commit-write pools many short clusters because its tail is
    /// a few COMMITs per simulation, and a simulation's memory grows
    /// with every record it writes.
    pub fn main_point(self) -> (Spec, usize) {
        match self {
            Workload::SeqRead => (
                Spec::Seq(seq_read::SeqRead {
                    threads: 2,
                    records: 16_384,
                }),
                1,
            ),
            Workload::CommitWrite => (
                Spec::Commit(commit_write::CommitWrite {
                    clients: 3,
                    records: 192,
                }),
                24,
            ),
            Workload::MetaOpen => (meta(40_000.0, 1000), 4),
        }
    }

    /// Half the main point's load: one thread, one client, or half
    /// the offered rate.
    pub fn low_point(self) -> Spec {
        match self {
            Workload::SeqRead => Spec::Seq(seq_read::SeqRead {
                threads: 1,
                records: 4_096,
            }),
            Workload::CommitWrite => Spec::Commit(commit_write::CommitWrite {
                clients: 1,
                records: 256,
            }),
            Workload::MetaOpen => meta(20_000.0, 1000),
        }
    }

    /// Message shapes for the layer loops.
    pub fn shapes(self) -> Shapes {
        match self {
            Workload::SeqRead => Shapes {
                io: seq_read::RECORD as u32,
                stable: false,
                main: MainProc::Read,
                tenants: 1,
            },
            Workload::CommitWrite => Shapes {
                io: commit_write::RECORD as u32,
                stable: false,
                main: MainProc::Write,
                tenants: 3,
            },
            Workload::MetaOpen => Shapes {
                io: meta_open::mix().io_size as u32,
                stable: true,
                main: MainProc::Getattr,
                tenants: meta_open::CONNS as u32,
            },
        }
    }
}
