//! # bench — figure/table regeneration harnesses
//!
//! One binary per table/figure in the paper's evaluation:
//!
//! | target   | reproduces |
//! |----------|------------|
//! | `table1` | Table 1 (communication-primitive properties) |
//! | `fig5`   | IOzone Read bandwidth, Solaris, RR vs RW |
//! | `fig6`   | IOzone Write bandwidth + client CPU, RR vs RW |
//! | `fig7`   | Registration strategies on OpenSolaris (read/write + CPU) |
//! | `fig8`   | FileBench OLTP ops/s + CPU/op per strategy |
//! | `fig9`   | Registration strategies on Linux (incl. all-physical) |
//! | `fig10`  | Multi-client aggregate read bandwidth, 4 GB / 8 GB server |
//! | `all`    | everything above, writing `results/*.{md,csv}` |
//!
//! Parameter points run in parallel (independent simulations on OS
//! threads) via [`sim_core::sweep::parallel_sweep`]; results are
//! deterministic per seed.

#![forbid(unsafe_code)]

use rpcrdma::{Design, StrategyKind};
use sim_core::sweep::parallel_sweep;
use sim_core::Simulation;
use workloads::{
    build_rdma, run_iozone, Backend, IoMode, IozoneParams, IozoneResult, Profile, Table,
};

/// One IOzone parameter point.
#[derive(Clone, Debug)]
pub struct IozonePoint {
    /// Row/series label.
    pub label: String,
    /// Host profile.
    pub profile: Profile,
    /// Transport design.
    pub design: Design,
    /// Registration strategy.
    pub strategy: StrategyKind,
    /// Read or write.
    pub mode: IoMode,
    /// Threads on the (single) client.
    pub threads: u32,
    /// Record size.
    pub record: u64,
    /// File size per thread.
    pub file_size: u64,
}

/// Run one IOzone point in a fresh deterministic simulation.
pub fn run_iozone_point(seed: u64, p: &IozonePoint) -> IozoneResult {
    let mut sim = Simulation::new(seed);
    let h = sim.handle();
    let p = p.clone();
    sim.block_on(async move {
        let bed = build_rdma(&h, &p.profile, p.design, p.strategy, Backend::Tmpfs, 1);
        run_iozone(
            &h,
            &bed,
            IozoneParams {
                threads_per_client: p.threads,
                file_size: p.file_size,
                record: p.record,
                mode: p.mode,
                ..Default::default()
            },
        )
        .await
    })
}

/// Run a set of points in parallel, preserving order.
pub fn sweep_iozone(points: Vec<IozonePoint>) -> Vec<(IozonePoint, IozoneResult)> {
    let results = parallel_sweep(points.clone(), |p| run_iozone_point(0xF00D, &p));
    points.into_iter().zip(results).collect()
}

/// The standard per-thread file size used by the paper (128 MB).
pub const PAPER_FILE_SIZE: u64 = 128 << 20;

/// Thread counts swept in Figures 5-9.
pub const THREADS: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Write a rendered table to stdout and `results/<name>.{md,csv}`.
pub fn emit(name: &str, table: &Table) {
    let md = table.render();
    println!("{md}");
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join(format!("{name}.md")), &md);
    let _ = std::fs::write(dir.join(format!("{name}.csv")), table.to_csv());
}

/// Write a hand-rolled JSON benchmark artifact to
/// `results/BENCH_<name>.json` (the flat schema established by
/// `BENCH_hotpath.json`: a `"bench"` tag, a `"mode"` tag, then numeric
/// fields grouped in at most one level of sections).
pub fn emit_bench_json(name: &str, json: &str) {
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, json) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("  could not write {}: {e}", path.display()),
    }
}

/// Fail a smoke gate: dump the run's flight-recorder ring (the last
/// [`sim_core::FLIGHT_CAPACITY`] records of what the protocol machinery
/// did, sim-time stamped, always captured) to
/// `results/flight_<file_stem>.txt` when there is one, print
/// `FAIL <tag>: <msg>` and exit with status 1. Spaces and `/@%.` in
/// `file_stem` become `_`.
pub fn fail_gate(file_stem: &str, tag: &str, msg: &str, flight: &[sim_core::FlightRecord]) -> ! {
    if !flight.is_empty() {
        let name = format!(
            "flight_{}.txt",
            file_stem.replace([' ', '/', '@', '%', '.'], "_")
        );
        emit_results_file(&name, &sim_core::format_flight(flight));
    }
    eprintln!("FAIL {tag}: {msg}");
    std::process::exit(1);
}

/// Write an arbitrary artifact (trace JSON, timeline CSV, flight dump)
/// to `results/<name>`.
pub fn emit_results_file(name: &str, contents: &str) {
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("  could not write {}: {e}", path.display()),
    }
}

/// Scale factor for quick runs: `QUICK=1` divides file sizes by 8.
pub fn file_size_scaled() -> u64 {
    if std::env::var("QUICK").is_ok() {
        PAPER_FILE_SIZE / 8
    } else {
        PAPER_FILE_SIZE
    }
}
