//! One measuring process ("part") of a benchmark run.
//!
//! A part runs the workload's main point in fresh simulations over and
//! over until its share of `--seconds` is used up, checking outputs and
//! same-seed reproduction on every run. Part 0 also computes every
//! sim-clock metric (pooled over the main point's sub-seeds), runs the
//! low-load point, the determinism control and, on meta-open, the load
//! ladder; in trace mode it times the layer loops and reads the
//! anatomy. Each part prints its host-clock samples for the parent to
//! pool.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sim_core::{aggregate_phases, Histogram};

use crate::layers;
use crate::point::{quantile, PointRun, Sample};
use crate::ruler::{reference_seconds, Ruler};
use crate::spans::HostSpans;
use crate::workload::{meta, run_spec, sub_seed, Spec, Workload};

/// Fewest runs of the main point in one part, whatever `--seconds` says.
const MIN_RUNS: usize = 3;
/// Latency limit of the open-loop capacity search.
const P99_LIMIT_NS: u64 = 1_000_000;
/// Largest share of failed ops a passing load-ladder rung (or a main
/// point) may have.
const MAX_FAIL_FRAC: f64 = 0.01;
/// Seed offset of the determinism check's control run.
const OTHER_SEED: u64 = 0x5eed_0ff5;
/// Bytes of trace context a traced replication record carries in band
/// (trace id + parent span), by the cluster's record wire format.
const REPL_TRACE_TRAILER: u64 = 16;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one part found.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub errors: Vec<String>,
    pub samples: Samples,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Host-clock samples of one part, pooled by the parent. Times are in
/// reference seconds (see [`crate::ruler`]).
#[derive(Default, Debug)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub ops_s: Vec<f64>,
    pub traced_ops_s: Vec<f64>,
    pub peak_mb: Vec<f64>,
    /// Ruler passes per host second, measured before each run.
    pub ruler: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Fingerprint of the first run of each sub-seed index this part ran.
    pub fingerprints: BTreeMap<usize, u64>,
}

pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What a campaign runs.
struct Plan {
    spec: Spec,
    seed: u64,
    /// Sub-seeds to cycle through.
    subs: usize,
    /// Sub-seed to start at.
    start: usize,
    /// Alternate untraced and span-traced runs, so that machine drift
    /// hits both alike.
    with_traced: bool,
    until: Instant,
}

/// The first run of every sub-seed a campaign visited.
#[derive(Default)]
struct Campaign {
    firsts: BTreeMap<usize, PointRun>,
    traced: BTreeMap<usize, PointRun>,
}

/// Run the plan's point over its sub-seeds (cyclically) until
/// `plan.until`, visiting each sub-seed at least once and running each
/// mode at least [`MIN_RUNS`] times. Every rerun of a sub-seed must
/// reproduce its first run in the same mode exactly.
fn campaign(
    plan: &Plan,
    ruler: &mut Ruler,
    report: &mut Report,
    spans: &mut HostSpans,
) -> Campaign {
    let modes: &[bool] = if plan.with_traced {
        &[false, true]
    } else {
        &[false]
    };
    let mut c = Campaign::default();
    let mut i = 0;
    let mut before = ruler.rate();
    while i < plan.subs.max(MIN_RUNS) * modes.len() || Instant::now() < plan.until {
        let k = (plan.start + i / modes.len()) % plan.subs;
        let traced = modes[i % modes.len()];
        i += 1;
        let t = spans.enter("workloads", if traced { "point.traced" } else { "point" });
        let run = run_spec(plan.spec, sub_seed(plan.seed, k), traced);
        spans.exit(t);
        // The ruler passes on both sides of the run bracket its host speed.
        let after = ruler.rate();
        let rate = (before + after) / 2.0;
        before = after;
        if let Some(e) = run.sample.errors.first() {
            report.errors.push(format!(
                "output check failed ({} errors), first: {e}",
                run.sample.errors.len()
            ));
            return c;
        }
        let firsts = if traced { &mut c.traced } else { &mut c.firsts };
        if let Some(first) = firsts.get(&k) {
            if first.fingerprint() != run.fingerprint() {
                report.errors.push(format!(
                    "same-seed rerun diverged (sub-seed {k}, traced = {traced}): {}",
                    diff(first, &run).join(", ")
                ));
                return c;
            }
        }
        let s = &mut report.samples;
        let ops_s = run.sample.attempted as f64 / reference_seconds(run.measure_s, rate);
        s.ruler.push(rate);
        if traced {
            s.traced_ops_s.push(ops_s);
        } else {
            s.ops_s.push(ops_s);
            s.setup_s.push(reference_seconds(run.setup_s, rate));
            s.peak_mb.push(run.heap_peak as f64 / 1e6);
            s.fingerprints.entry(k).or_insert(run.fingerprint());
        }
        s.attempted += run.sample.attempted;
        s.failed += run.sample.failed;
        firsts.entry(k).or_insert(run);
    }
    c
}

/// What differs between two runs of one configuration.
fn diff(a: &PointRun, b: &PointRun) -> Vec<String> {
    let mut out = Vec::new();
    let (sa, sb) = (&a.sample, &b.sample);
    for (name, x, y) in [
        ("attempted", sa.attempted, sb.attempted),
        ("failed", sa.failed, sb.failed),
        ("payload_bytes", sa.payload_bytes, sb.payload_bytes),
        ("sim_ns", sa.sim_ns, sb.sim_ns),
        ("client_cpu_ns", sa.client_cpu_ns, sb.client_cpu_ns),
    ] {
        if x != y {
            out.push(format!("{name} {x} -> {y}"));
        }
    }
    if sa.lat_ns != sb.lat_ns {
        out.push("latencies".into());
    }
    let before: BTreeMap<&str, u64> = a.delta.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    for (k, v) in &b.delta {
        let was = before.get(k.as_str()).copied().unwrap_or(0);
        if was != *v {
            out.push(format!("{k} {was} -> {v}"));
        }
    }
    if a.end != b.end && out.is_empty() {
        out.push("final registry".into());
    }
    out
}

/// The traced run must reproduce the untraced one exactly. The one
/// known exception is the replicated write path: a traced replication
/// record carries its trace context in band, so each shipped record is
/// [`REPL_TRACE_TRAILER`] bytes longer. That moves every later event of
/// the closed loop a little, and timing-driven counters (group-commit
/// coalescing, COMMIT timeouts and their DRC-absorbed retransmissions,
/// doorbells, polls) follow the new timing. There the traced run must
/// do the same work instead: the same ops, payload, COMMITs, WAL
/// appends and replication records, and exactly the trailer's bytes
/// more on the replication channel. Returns the relative sim-time
/// shift.
fn traced_matches(w: Workload, plain: &PointRun, traced: &PointRun, report: &mut Report) -> f64 {
    let shift = (traced.sample.sim_ns as f64 - plain.sample.sim_ns as f64).abs()
        / plain.sample.sim_ns as f64;
    if plain.fingerprint() == traced.fingerprint() {
        return shift;
    }
    if w != Workload::CommitWrite {
        report.errors.push(format!(
            "traced run differs from untraced: {}",
            diff(plain, traced).join(", ")
        ));
        return shift;
    }
    let (a, b) = (&plain.sample, &traced.sample);
    let mut work = vec![
        ("attempted", a.attempted, b.attempted),
        ("failed", a.failed, b.failed),
        ("payload_bytes", a.payload_bytes, b.payload_bytes),
        ("commits", a.commits, b.commits),
    ];
    for name in [
        "repl.shipped_records",
        "fs.wal.appends",
        "fs.wal.appended_bytes",
    ] {
        work.push((name, plain.counter(name), traced.counter(name)));
    }
    let records = plain.counter("repl.shipped_records");
    work.push((
        "repl.shipped_bytes + trailer",
        plain.counter("repl.shipped_bytes") + REPL_TRACE_TRAILER * records,
        traced.counter("repl.shipped_bytes"),
    ));
    for (name, want, got) in work {
        report.check(want == got, || {
            format!("traced run did other work than untraced: {name} {want} -> {got}")
        });
    }
    shift
}

struct Latency {
    p50_ns: u64,
    p99_ns: u64,
    fail_frac: f64,
}

fn latency(s: &Sample) -> Latency {
    let lat = s.sorted_lat();
    Latency {
        p50_ns: quantile(&lat, 0.50),
        p99_ns: quantile(&lat, 0.99),
        fail_frac: s.failed as f64 / s.attempted.max(1) as f64,
    }
}

/// Highest ladder rate meeting the latency limit with at most
/// [`MAX_FAIL_FRAC`] misses and no backlog growth (binary search over
/// the fixed ladder, which assumes a rung passes only if every lower
/// one does).
fn capacity(seed: u64, report: &mut Report, spans: &mut HostSpans) -> f64 {
    let rates = crate::workload::ladder();
    let mut passes = |rate: f64| -> bool {
        let t = spans.enter("workloads", "point.ladder");
        let run = run_spec(meta(rate, 250), seed, false);
        spans.exit(t);
        report.check(run.sample.errors.is_empty(), || {
            format!("ladder rung {rate}: {}", run.sample.errors[0])
        });
        let l = latency(&run.sample);
        let ok =
            l.p99_ns <= P99_LIMIT_NS && l.fail_frac <= MAX_FAIL_FRAC && !run.sample.backlog_growth;
        println!(
            "ladder {rate:>7.0} ops/s: p99 {:>9.1} us, missed {:.4}, backlog growth {} -> {}",
            l.p99_ns.min(u64::MAX / 2) as f64 / 1e3,
            l.fail_frac,
            run.sample.backlog_growth,
            if ok { "pass" } else { "fail" }
        );
        ok
    };
    // rates[..lo] pass, rates[hi..] fail.
    let (mut lo, mut hi) = (0, rates.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if passes(rates[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    report.check(lo < rates.len(), || {
        "top ladder rung passed: the ladder no longer reaches capacity".into()
    });
    if lo == 0 {
        0.0
    } else {
        rates[lo - 1]
    }
}

fn per_op(v: u64, ops: u64) -> f64 {
    v as f64 / ops.max(1) as f64
}

/// Determinism must be able to fail: another seed has to change the
/// fingerprint of the same configuration. Returns the low-load run.
fn determinism_trips(
    w: Workload,
    seed: u64,
    report: &mut Report,
    spans: &mut HostSpans,
) -> PointRun {
    let t = spans.enter("workloads", "point.low");
    let a = run_spec(w.low_point(), seed, false);
    let b = run_spec(w.low_point(), seed ^ OTHER_SEED, false);
    spans.exit(t);
    report.check(a.fingerprint() != b.fingerprint(), || {
        format!(
            "determinism check cannot trip: seeds {seed} and {} give fingerprint {:016x}",
            seed ^ OTHER_SEED,
            a.fingerprint()
        )
    });
    for r in [&a, &b] {
        report.check(r.sample.errors.is_empty(), || {
            format!("low-load point: {}", r.sample.errors[0])
        });
    }
    a
}

/// All first runs of a campaign folded into one: samples and
/// registry deltas add up, latencies pool.
fn pooled(c: &Campaign) -> PointRun {
    let mut runs = c.firsts.values();
    let first = runs.next().expect("campaign ran");
    let mut s = first.sample.clone();
    let mut delta: BTreeMap<String, u64> = first.delta.iter().cloned().collect();
    let (mut allocs, mut bytes) = (first.heap_allocs, first.heap_bytes);
    for r in runs {
        let o = &r.sample;
        s.attempted += o.attempted;
        s.failed += o.failed;
        s.payload_bytes += o.payload_bytes;
        s.commits += o.commits;
        s.sim_ns += o.sim_ns;
        s.client_cpu_ns += o.client_cpu_ns;
        s.lat_ns.extend_from_slice(&o.lat_ns);
        s.backlog_growth |= o.backlog_growth;
        for (k, v) in &r.delta {
            *delta.entry(k.clone()).or_default() += v;
        }
        allocs += r.heap_allocs;
        bytes += r.heap_bytes;
    }
    PointRun {
        sample: s,
        delta: delta.into_iter().collect(),
        end: Vec::new(),
        setup_s: 0.0,
        measure_s: 0.0,
        heap_allocs: allocs,
        heap_bytes: bytes,
        heap_peak: 0,
        window: first.window,
        spans: Vec::new(),
    }
}

/// Checks every main point must pass, whichever metrics it reports.
fn common_checks(w: Workload, run: &PointRun, report: &mut Report) {
    let s = &run.sample;
    report.check(s.attempted > 0, || "no operations attempted".into());
    let retrans = run.sum("fabric.", ".retransmits");
    report.check(retrans == 0, || {
        format!("{retrans} link retransmissions on a loss-free fabric")
    });
    if w != Workload::MetaOpen {
        report.check(s.failed == 0, || {
            format!("{} closed-loop ops failed", s.failed)
        });
    }
    let l = latency(s);
    report.check(l.fail_frac <= MAX_FAIL_FRAC, || {
        format!("main point missed {:.2}% of ops", l.fail_frac * 100.0)
    });
}

fn print_cost_vector(run: &PointRun) {
    let ops = run.sample.attempted;
    let body: Vec<String> = run
        .delta
        .iter()
        .filter(|(_, v)| *v != 0)
        .map(|(k, v)| format!("\"{k}\":{}", per_op(*v, ops)))
        .collect();
    println!("cost_vector {{{}}}", body.join(","));
}

pub fn end_to_end(
    w: Workload,
    seed: u64,
    budget: Duration,
    part: usize,
    report: &mut Report,
    spans: &mut HostSpans,
) {
    let (spec, subs) = w.main_point();
    let plan = Plan {
        spec,
        seed,
        subs,
        start: part,
        with_traced: false,
        until: Instant::now() + budget,
    };
    let c = campaign(&plan, &mut Ruler::new(), report, spans);
    if part != 0 || !report.errors.is_empty() {
        return;
    }
    let run = pooled(&c);
    common_checks(w, &run, report);
    let low = determinism_trips(w, seed, report, spans);
    let s = &run.sample;
    let l = latency(s);
    let sim_s = s.sim_ns as f64 / 1e9;
    let lat = s.sorted_lat();
    let qs: Vec<String> = [0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 1.0]
        .iter()
        .map(|q| {
            let v = quantile(&lat, *q).min(u64::MAX / 2);
            format!("p{}={:.1}", q * 100.0, v as f64 / 1e3)
        })
        .collect();
    println!(
        "latency us over {} ops ({} sub-seeds): {}",
        lat.len(),
        c.firsts.len(),
        qs.join(" ")
    );
    let max_rate = match w {
        Workload::MetaOpen => capacity(seed, report, spans),
        // A closed loop runs at its capacity for its concurrency.
        _ => s.attempted as f64 / sim_s,
    };
    report.put("mb_s", s.payload_bytes as f64 / 1e6 / sim_s, "MB/s");
    report.put("p50_us", l.p50_ns as f64 / 1e3, "us");
    report.put("p99_us", l.p99_ns as f64 / 1e3, "us");
    report.put("p99_us.low", latency(&low.sample).p99_ns as f64 / 1e3, "us");
    report.put("max_rate_ops", max_rate, "ops/s");
    report.put(
        "client_cpu_us_per_op",
        per_op(s.client_cpu_ns, s.attempted) / 1e3,
        "us",
    );
    report.put("ok_frac", 1.0 - l.fail_frac, "ratio");
    let host = &report.samples;
    let (ops_s, setup_s, peak) = (
        median(host.ops_s.clone()),
        median(host.setup_s.clone()),
        median(host.peak_mb.clone()),
    );
    report.put("host_ops_s", ops_s, "1/s");
    report.put("setup_s", setup_s, "s");
    report.put("peak_heap_mb", peak, "MB");
    print_cost_vector(&run);
}

/// Sim-time phases reported from the traced runs.
const PHASES: [(&str, &str); 12] = [
    ("client", "marshal"),
    ("client", "reg"),
    ("client", "wait_reply"),
    ("server", "dispatch"),
    ("server", "pull_chunks"),
    ("server", "service"),
    ("server", "rdma_write"),
    ("server", "reply_send"),
    ("hca", "reg"),
    ("fs", "read"),
    ("fs", "write"),
    ("backup", "apply"),
];

/// Per-phase p50/p99 of the spans inside the measurement window.
fn anatomy(run: &PointRun, report: &mut Report) {
    let (from, to) = run.window;
    let spans: Vec<_> = run
        .spans
        .iter()
        .filter(|s| s.start >= from && s.end <= to)
        .cloned()
        .collect();
    let mut by_phase: BTreeMap<(&str, &str), Histogram> = BTreeMap::new();
    for p in aggregate_phases(&spans) {
        by_phase
            .entry((p.component, p.name))
            .or_default()
            .merge(&p.hist);
    }
    for (component, name) in PHASES {
        let h = by_phase.remove(&(component, name)).unwrap_or_default();
        for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
            report.put(
                format!("anatomy.{component}.{name}_us.{label}"),
                h.quantile(q).as_nanos() as f64 / 1e3,
                "us",
            );
        }
    }
}

pub fn per_layer(
    w: Workload,
    seed: u64,
    budget: Duration,
    part: usize,
    report: &mut Report,
    spans: &mut HostSpans,
) {
    // Untraced and traced runs alternate on the first sub-seed.
    let plan = Plan {
        spec: w.main_point().0,
        seed,
        subs: 1,
        start: 0,
        with_traced: true,
        until: Instant::now() + budget,
    };
    let c = campaign(&plan, &mut Ruler::new(), report, spans);
    if !report.errors.is_empty() {
        return;
    }
    let run = &c.firsts[&0];
    let traced_run = &c.traced[&0];
    let sim_shift = traced_matches(w, run, traced_run, report);
    if part != 0 {
        return;
    }
    common_checks(w, run, report);
    determinism_trips(w, seed, report, spans);
    let s = &run.sample;
    let ops = s.attempted;
    let bytes = s.payload_bytes;

    let t = spans.enter("perfbench", "layer_loops");
    let loops = layers::measure(&w.shapes(), spans);
    spans.exit(t);
    let ns = |name: &str| loops.iter().find(|(k, _)| *k == name).expect("loop").1;
    let count = |report: &mut Report, name: &str, v: u64, per: u64| {
        report.put(name, per_op(v, per), "count");
    };

    count(
        report,
        "sim-core.executor.polls_per_op",
        run.counter("executor.polls"),
        ops,
    );
    for name in [
        "sim-core.executor.churn_ns",
        "sim-core.timer_wheel.arm_cancel_ns",
    ] {
        report.put(name, ns(name), "ns");
    }
    report.put("heap.bytes_per_op", per_op(run.heap_bytes, ops), "B");
    count(report, "heap.allocs_per_op", run.heap_allocs, ops);
    for name in [
        "nfs.proto.getattr_codec_ns",
        "nfs.proto.lookup_codec_ns",
        "nfs.proto.read_codec_ns",
        "nfs.proto.write_codec_ns",
        "onc-rpc.msg.codec_ns",
        "onc-rpc.drc.reserve_complete_ns",
    ] {
        report.put(name, ns(name), "ns");
    }
    count(
        report,
        "onc-rpc.drc.inserts_per_op",
        run.sum("server.drc", ".inserts"),
        ops,
    );
    for name in ["rpcrdma.header.codec_ns", "rpcrdma.qos.enqueue_dispatch_ns"] {
        report.put(name, ns(name), "ns");
    }
    count(
        report,
        "rpcrdma.qos.sheds_per_op",
        run.sum("server.qos.shed.", ""),
        ops,
    );
    let hits = run.sum("rpcrdma.regcache.", ".hits");
    let misses = run.sum("rpcrdma.regcache.", ".misses");
    report.put(
        "rpcrdma.regcache.hit_ratio",
        per_op(hits, hits + misses),
        "ratio",
    );
    let zero_copy =
        run.counter("server.read.zero_copy_bytes") + run.counter("server.write.zero_copy_bytes");
    report.put(
        "rpcrdma.zero_copy_bytes_per_op",
        per_op(zero_copy, ops),
        "B",
    );
    report.put(
        "rpcrdma.repl.shipped_bytes_per_user_byte",
        per_op(run.counter("repl.shipped_bytes"), bytes),
        "ratio",
    );
    count(
        report,
        "rpcrdma.repl.blocked_per_op",
        run.counter("repl.blocked"),
        ops,
    );
    count(
        report,
        "ib-verbs.doorbells_per_op",
        run.counter("hca.doorbells"),
        ops,
    );
    count(
        report,
        "ib-verbs.interrupts_per_op",
        run.counter("cq.interrupts"),
        ops,
    );
    count(
        report,
        "ib-verbs.coalesced_per_op",
        run.counter("cq.coalesced"),
        ops,
    );
    report.put(
        "ib-verbs.tpt.register_validate_ns",
        ns("ib-verbs.tpt.register_validate_ns"),
        "ns",
    );
    count(
        report,
        "ib-verbs.retransmits_per_op",
        run.sum("fabric.", ".retransmits"),
        ops,
    );
    count(
        report,
        "fs-backend.wal.flushes_per_commit",
        run.counter("fs.wal.flushes"),
        s.commits,
    );
    report.put(
        "fs-backend.wal.bytes_per_user_byte",
        per_op(run.counter("fs.wal.flushed_bytes"), bytes),
        "ratio",
    );
    report.put(
        "fs-backend.memstore.rw_ns",
        ns("fs-backend.memstore.rw_ns"),
        "ns",
    );
    anatomy(traced_run, report);
    let host = &report.samples;
    let overhead = median(host.ops_s.clone()) / median(host.traced_ops_s.clone()) - 1.0;
    report.put("trace.overhead_frac", overhead, "ratio");
    report.put("trace.sim_shift_frac", sim_shift, "ratio");
    for (layer, ns) in spans.self_ns_by_layer() {
        println!("host self time {layer:<10} {:.3} s", ns as f64 / 1e9);
    }
    print_cost_vector(run);
}
