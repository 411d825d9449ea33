//! The repository benchmark: one workload per invocation, measured on
//! both clocks.
//!
//! ```text
//! perfbench --workload <seq-read|commit-write|meta-open> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The run is split over [`PARTS`] measuring processes started one
//! after another, so that host-clock medians pool over several process
//! layouts. Each part runs the workload's main point again and again in
//! fresh simulations; every rerun of a seed must reproduce its first
//! run exactly (sim-clock results and metrics registry), across parts
//! too. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. The last line of standard output is one JSON
//! object; a failed output check exits non-zero with `"correct": false`
//! and no metrics.

mod alloc;
mod commit_write;
mod layers;
mod meta_open;
mod part;
mod point;
mod ruler;
mod seq_read;
mod spans;
mod testbed;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Duration;

use part::{median, Report, Samples};
use spans::HostSpans;
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Measuring processes per run.
const PARTS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a measuring process: which part of the run it is.
    part: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag:?}"));
        };
        let value = it.next().ok_or(format!("--{name} needs a value"))?;
        kv.insert(name.to_string(), value);
    }
    if let Some(k) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace", "part"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{k}"));
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let part = match kv.contains_key("part") {
        true => Some(num("part")? as usize),
        false => None,
    };
    Ok(Args {
        workload: Workload::parse(get("workload")?)
            .ok_or("--workload must be seq-read, commit-write or meta-open")?,
        seed: num("seed")?,
        seconds: num("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        part,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <seq-read|commit-write|meta-open> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match args.part {
        Some(part) => measure_part(&args, part),
        None => run(&args),
    }
}

fn fmt_list(v: &[f64]) -> String {
    v.iter().map(f64::to_string).collect::<Vec<_>>().join(",")
}

fn parse_list(s: &str) -> Vec<f64> {
    s.split(',').filter_map(|x| x.parse().ok()).collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// One measuring process: print info lines, `metric` lines (part 0),
/// one `samples` line, and exit non-zero if a check failed.
fn measure_part(args: &Args, part: usize) {
    let mut report = Report::default();
    let mut spans = HostSpans::new();
    let budget = Duration::from_secs(args.seconds) / PARTS as u32;
    if args.trace {
        part::per_layer(
            args.workload,
            args.seed,
            budget,
            part,
            &mut report,
            &mut spans,
        );
    } else {
        part::end_to_end(
            args.workload,
            args.seed,
            budget,
            part,
            &mut report,
            &mut spans,
        );
    }
    for m in &report.metrics {
        println!("metric {} {} {}", m.name, json_number(m.value), m.unit);
    }
    let s = &report.samples;
    let fps: Vec<String> = s
        .fingerprints
        .iter()
        .map(|(k, fp)| format!("{k}:{fp:016x}"))
        .collect();
    println!(
        "samples setup_s={} ops_s={} traced_ops_s={} peak_mb={} ruler={} attempted={} failed={} fp={}",
        fmt_list(&s.setup_s),
        fmt_list(&s.ops_s),
        fmt_list(&s.traced_ops_s),
        fmt_list(&s.peak_mb),
        fmt_list(&s.ruler),
        s.attempted,
        s.failed,
        fps.join(",")
    );
    write_report(
        args,
        &format!("part{part}"),
        &format!("{{\"host_spans\":{}}}", spans.chrome_json()),
    );
    for e in &report.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    if !report.errors.is_empty() {
        std::process::exit(1);
    }
}

/// A metric as a part printed it: name, value, unit.
type Line = (String, f64, String);

/// Split a part's output into metrics, samples and info lines (echoed).
fn parse_part(stdout: &str, index: usize) -> (Vec<Line>, Samples) {
    let mut metrics = Vec::new();
    let mut s = Samples::default();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("metric ") {
            let f: Vec<&str> = rest.split(' ').collect();
            if let [name, value, unit] = f[..] {
                metrics.push((
                    name.to_string(),
                    value.parse().unwrap_or(f64::NAN),
                    unit.to_string(),
                ));
            }
        } else if let Some(rest) = line.strip_prefix("samples ") {
            for kv in rest.split(' ') {
                let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                match k {
                    "setup_s" => s.setup_s = parse_list(v),
                    "ops_s" => s.ops_s = parse_list(v),
                    "traced_ops_s" => s.traced_ops_s = parse_list(v),
                    "peak_mb" => s.peak_mb = parse_list(v),
                    "ruler" => s.ruler = parse_list(v),
                    "attempted" => s.attempted = v.parse().unwrap_or(0),
                    "failed" => s.failed = v.parse().unwrap_or(0),
                    "fp" => {
                        for (k, fp) in v.split(',').filter_map(|e| e.split_once(':')) {
                            if let (Ok(k), Ok(fp)) = (k.parse(), u64::from_str_radix(fp, 16)) {
                                s.fingerprints.insert(k, fp);
                            }
                        }
                    }
                    _ => {}
                }
            }
        } else {
            println!("[part {index}] {line}");
        }
    }
    (metrics, s)
}

/// Start the measuring processes one after another, pool their
/// host-clock samples, cross-check their fingerprints and print the
/// result.
fn run(args: &Args) {
    let exe = std::env::current_exe().expect("own executable");
    let mut errors = Vec::new();
    let mut metrics: Vec<Line> = Vec::new();
    let mut pool = Samples::default();
    // Same seed, any process: every sub-seed's fingerprint must agree.
    let mut seen: BTreeMap<usize, (u64, usize)> = BTreeMap::new();
    for index in 0..PARTS {
        let out = Command::new(&exe)
            .args([
                "--workload",
                args.workload.name(),
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
                "--part",
                &index.to_string(),
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .expect("start a measuring process");
        let (m, s) = parse_part(&String::from_utf8_lossy(&out.stdout), index);
        if !out.status.success() {
            errors.push(format!("part {index} failed ({})", out.status));
            break;
        }
        if index == 0 {
            metrics = m;
        }
        for (k, fp) in &s.fingerprints {
            match seen.get(k) {
                Some((want, j)) if want != fp => errors.push(format!(
                    "sub-seed {k}: part {index} fingerprint {fp:016x} != part {j} {want:016x}"
                )),
                Some(_) => {}
                None => {
                    seen.insert(*k, (*fp, index));
                }
            }
        }
        pool.setup_s.extend_from_slice(&s.setup_s);
        pool.ops_s.extend_from_slice(&s.ops_s);
        pool.traced_ops_s.extend_from_slice(&s.traced_ops_s);
        pool.peak_mb.extend_from_slice(&s.peak_mb);
        pool.ruler.extend_from_slice(&s.ruler);
        pool.attempted += s.attempted;
        pool.failed += s.failed;
    }

    for (name, value, _) in &mut metrics {
        *value = match name.as_str() {
            "host_ops_s" => median(pool.ops_s.clone()),
            "setup_s" => median(pool.setup_s.clone()),
            "peak_heap_mb" => median(pool.peak_mb.clone()),
            "trace.overhead_frac" => {
                median(pool.ops_s.clone()) / median(pool.traced_ops_s.clone()) - 1.0
            }
            _ => *value,
        };
    }
    println!(
        "host ops per reference second over {} untraced runs in {PARTS} processes: median {:.0}; \
         ruler median {:.2} passes/s (reference {})",
        pool.ops_s.len(),
        median(pool.ops_s.clone()),
        median(pool.ruler.clone()),
        ruler::PASSES_PER_REF_SECOND
    );
    for (name, value, unit) in &metrics {
        println!("metric {name:<44} {:>22} {unit}", json_number(*value));
    }
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let correct = errors.is_empty() && !metrics.is_empty();
    let body: Vec<String> = match correct {
        true => metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect(),
        false => Vec::new(),
    };
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        pool.attempted.max(1),
        pool.failed,
        body.join(",")
    );
    write_report(args, "result", &result);
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

/// Keep a run's output next to the benchmark, in `perfbench/out/`.
fn write_report(args: &Args, what: &str, body: &str) {
    let dir = std::path::Path::new("perfbench/out");
    let name = format!(
        "{}-seed{}-trace{}-{what}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    );
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(dir.join(name), body))
    {
        eprintln!("perfbench: could not write report: {e}");
    }
}
