//! Open-loop load sweep: the latency-throughput "hockey stick" and
//! what the overload controller does to it.
//!
//! A closed-loop probe first measures raw capacity with the same op
//! mix; the sweep then offers Poisson arrival rates from a fraction of
//! that capacity to 2x past it, once with the server's QoS stack
//! (per-tenant weighted fair queueing + bounded queue + sojourn-target
//! shedding) and once without. With shedding the served p99 stays
//! bounded past saturation and goodput plateaus at capacity; without
//! it the patient open queue collapses — p99 grows with the backlog
//! and never comes back. A second sweep pits one hog tenant offering
//! ~1.5x capacity against honest tenants and checks the honest p99
//! barely moves (hog isolation).
//!
//! Run with `--smoke` for the fixed-seed gate wired into
//! `scripts/check.sh`: three rates, both modes, the bounded-p99 and
//! goodput-plateau bounds, the 1-hog fairness bound, and a same-seed
//! byte-identical determinism check. Gate failures dump the server's
//! flight-recorder ring and the tail of the telemetry timeline to
//! `results/` for postmortem.

use sim_core::sweep::parallel_sweep;
use workloads::{
    linux_sdr, load_timeline_csv, run_openloop, Arrival, OpMix, OpenLoopParams, OpenLoopResult,
    Table,
};

const SEED: u64 = 0x10AD;

/// Served p99 the QoS stack must hold at 2x offered load, µs.
const P99_BOUND_US: u64 = 20_000;

/// Goodput at 2x must stay within this fraction of probed capacity.
const PLATEAU_FRACTION: f64 = 0.90;

/// Collapse evidence: unshedded p99 at 2x must exceed the shedded p99
/// by at least this factor.
const COLLAPSE_FACTOR: u64 = 3;

/// Honest p99 inflation allowed when the hog arrives, percent.
const FAIRNESS_INFLATION_PCT: f64 = 20.0;

fn base_params(duration_ms: u64) -> OpenLoopParams {
    OpenLoopParams {
        connections: 4,
        tenants: 2000,
        zipf_theta: 0.9,
        mix: OpMix::oltp(),
        duration: sim_core::SimDuration::from_millis(duration_ms),
        grace: sim_core::SimDuration::from_millis(duration_ms / 4 + 1),
        ..OpenLoopParams::default()
    }
}

/// Fail a gate: dump the timeline tail, then the flight ring, and exit.
fn fail(tag: &str, msg: &str, r: &OpenLoopResult) -> ! {
    if !r.timeline.is_empty() {
        bench::emit_results_file("loadcurve_timeline.csv", &load_timeline_csv(&r.timeline));
        let b = r.timeline.last().unwrap();
        eprintln!(
            "  last bucket: t={}us completions={} p99={}us in_flight={} \
             queue_depth={} server_sheds={} client_sheds={}",
            b.t_us,
            b.completions,
            b.p99_us,
            b.in_flight,
            b.queue_depth,
            b.server_sheds,
            b.client_sheds
        );
    }
    bench::fail_gate("loadcurve", tag, msg, &r.flight)
}

fn row(t: &mut Table, label: &str, frac: f64, r: &OpenLoopResult) {
    t.row(&[
        label.to_string(),
        format!("{frac:.2}"),
        r.offered.to_string(),
        format!("{:.0}", r.goodput_ops),
        r.p50_us.to_string(),
        r.p99_us.to_string(),
        r.server_sheds.to_string(),
        r.client_sheds.to_string(),
        r.overload_failures.to_string(),
        r.unfinished.to_string(),
        r.qos_peak_depth.to_string(),
    ]);
}

/// Serialize the result fields the determinism gate compares.
fn determinism_key(r: &OpenLoopResult) -> String {
    format!(
        "offered={} completed={} in_window={} client_sheds={} overload_failures={} \
         other_errors={} unfinished={} server_sheds={} deadline_sheds={} busy={} \
         peak={} clamps={} p50={} p99={} max={} honest_p99={} hog_p99={} metrics={:?}",
        r.offered,
        r.completed,
        r.completed_in_window,
        r.client_sheds,
        r.overload_failures,
        r.other_errors,
        r.unfinished,
        r.server_sheds,
        r.deadline_sheds,
        r.busy_replies,
        r.qos_peak_depth,
        r.credit_clamps,
        r.p50_us,
        r.p99_us,
        r.max_us,
        r.honest_p99_us,
        r.hog_p99_us,
        r.metrics_snapshot,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let profile = linux_sdr();
    let (duration_ms, fracs): (u64, &[f64]) = if smoke {
        (60, &[0.5, 1.0, 2.0])
    } else {
        (150, &[0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0])
    };

    // --- Capacity probe: closed loop, overload control off. ----------
    println!("loadcurve: probing capacity (closed loop)...");
    let cap_r = run_openloop(
        SEED,
        &profile,
        OpenLoopParams {
            arrival: Arrival::ClosedLoop { workers: 8 },
            qos: false,
            waiting_room: 0,
            ..base_params(duration_ms)
        },
    );
    let capacity = cap_r.goodput_ops;
    println!(
        "  capacity ~{capacity:.0} ops/s (p99 {} us, {} ops)",
        cap_r.p99_us, cap_r.completed_in_window
    );
    if capacity <= 0.0 {
        fail(
            "capacity",
            "closed-loop probe produced no completions",
            &cap_r,
        );
    }

    // --- The sweep: every (rate, shedding on/off) point. -------------
    let mut points: Vec<(f64, bool)> = Vec::new();
    for &f in fracs {
        points.push((f, true));
        points.push((f, false));
    }
    let results: Vec<OpenLoopResult> = parallel_sweep(points.clone(), |(frac, qos)| {
        run_openloop(
            SEED,
            &profile,
            OpenLoopParams {
                arrival: Arrival::Poisson {
                    rate: capacity * frac,
                },
                qos,
                // With shedding the client host also bounds its own
                // waiting room; the unprotected mode queues patiently
                // without limit — that is the collapse under test.
                waiting_room: if qos { 64 } else { 0 },
                timeline: true,
                ..base_params(duration_ms)
            },
        )
    });

    let mut t = Table::new(
        "Open-loop load sweep (Poisson arrivals, 2000 Zipf tenants on 4 connections)",
        &[
            "mode",
            "x_cap",
            "offered",
            "goodput",
            "p50_us",
            "p99_us",
            "srv_shed",
            "cli_shed",
            "overloaded",
            "unfinished",
            "peak_q",
        ],
    );
    let mut on_2x: Option<&OpenLoopResult> = None;
    let mut off_2x: Option<&OpenLoopResult> = None;
    for ((frac, qos), r) in points.iter().zip(&results) {
        row(&mut t, if *qos { "shed-on" } else { "shed-off" }, *frac, r);
        if (*frac - 2.0).abs() < 1e-9 {
            if *qos {
                on_2x = Some(r);
            } else {
                off_2x = Some(r);
            }
        }
    }
    let on_2x = on_2x.expect("2x point present");
    let off_2x = off_2x.expect("2x point present");
    bench::emit("loadcurve", &t);
    bench::emit_results_file(
        "loadcurve_timeline.csv",
        &load_timeline_csv(&on_2x.timeline),
    );

    // --- Hockey-stick gates. -----------------------------------------
    if on_2x.p99_us > P99_BOUND_US {
        fail(
            "bounded-p99",
            &format!(
                "shedding on: p99 {} us at 2x capacity exceeds the {} us bound",
                on_2x.p99_us, P99_BOUND_US
            ),
            on_2x,
        );
    }
    if on_2x.goodput_ops < PLATEAU_FRACTION * capacity {
        fail(
            "goodput-plateau",
            &format!(
                "shedding on: goodput {:.0} ops/s at 2x fell below {:.0}% of capacity {:.0}",
                on_2x.goodput_ops,
                PLATEAU_FRACTION * 100.0,
                capacity
            ),
            on_2x,
        );
    }
    if on_2x.server_sheds == 0 {
        fail(
            "shed-active",
            "shedding on: 2x overload never tripped the controller",
            on_2x,
        );
    }
    if off_2x.server_sheds != 0 {
        fail(
            "shed-disabled",
            "shedding off: the controller shed work while disabled",
            off_2x,
        );
    }
    if off_2x.p99_us < COLLAPSE_FACTOR * on_2x.p99_us.max(1) {
        fail(
            "collapse-shown",
            &format!(
                "shedding off: p99 {} us at 2x does not demonstrate collapse \
                 (>= {}x the shedded {} us)",
                off_2x.p99_us, COLLAPSE_FACTOR, on_2x.p99_us
            ),
            off_2x,
        );
    }

    // --- Fairness sweep: 3 honest connections vs 1 hog. --------------
    println!("loadcurve: fairness sweep (1 hog vs honest tenants)...");
    let fair_base = OpenLoopParams {
        arrival: Arrival::Poisson {
            rate: capacity * 0.5,
        },
        qos: true,
        waiting_room: 64,
        timeline: true,
        // Reserve connection 0 for the hog in both runs so the honest
        // population is identical; rate 0 keeps it silent. Honest
        // tenants are provisioned 4x the hog's weight — the knob an
        // operator actually has.
        hog_rate: 0.0,
        hog_weight: 1,
        honest_weight: 4,
        ..base_params(duration_ms)
    };
    let baseline = run_openloop(
        SEED,
        &profile,
        OpenLoopParams {
            hog_rate: 1e-9, // reserve conn 0, effectively no arrivals
            ..fair_base
        },
    );
    let hogged = run_openloop(
        SEED,
        &profile,
        OpenLoopParams {
            hog_rate: capacity * 1.5,
            ..fair_base
        },
    );
    let mut ft = Table::new(
        "Fairness under a hog (QoS on, honest load 0.5x capacity)",
        &[
            "scenario",
            "honest_ops",
            "honest_p99_us",
            "hog_ops",
            "hog_p99_us",
            "srv_shed",
            "clamps",
        ],
    );
    for (label, r) in [("honest-only", &baseline), ("with-hog", &hogged)] {
        ft.row(&[
            label.to_string(),
            r.honest_completed.to_string(),
            r.honest_p99_us.to_string(),
            r.hog_completed.to_string(),
            r.hog_p99_us.to_string(),
            r.server_sheds.to_string(),
            r.credit_clamps.to_string(),
        ]);
    }
    bench::emit("loadcurve_fairness", &ft);

    let inflation_pct = if baseline.honest_p99_us == 0 {
        0.0
    } else {
        (hogged.honest_p99_us as f64 / baseline.honest_p99_us as f64 - 1.0) * 100.0
    };
    if inflation_pct > FAIRNESS_INFLATION_PCT {
        fail(
            "fairness",
            &format!(
                "hog inflated honest p99 {} -> {} us ({inflation_pct:.1}% > {}%)",
                baseline.honest_p99_us, hogged.honest_p99_us, FAIRNESS_INFLATION_PCT
            ),
            &hogged,
        );
    }
    if hogged.honest_completed == 0 || hogged.hog_completed == 0 {
        fail(
            "fairness-liveness",
            "a tenant class finished zero ops under the hog scenario",
            &hogged,
        );
    }

    // --- Determinism: the 2x shedding-on point, same seed, again. ----
    let rerun = run_openloop(
        SEED,
        &profile,
        OpenLoopParams {
            arrival: Arrival::Poisson {
                rate: capacity * 2.0,
            },
            qos: true,
            waiting_room: 64,
            timeline: true,
            ..base_params(duration_ms)
        },
    );
    if determinism_key(&rerun) != determinism_key(on_2x) {
        fail(
            "determinism",
            "same-seed rerun of the 2x shedding-on point diverged",
            &rerun,
        );
    }

    // --- Artifact. ----------------------------------------------------
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"loadcurve\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"capacity_ops\": {cap:.0},\n",
            "  \"shed_on_2x\": {{\n",
            "    \"offered\": {on_off}, \"goodput_ops\": {on_gp:.0},\n",
            "    \"p50_us\": {on_p50}, \"p99_us\": {on_p99},\n",
            "    \"server_sheds\": {on_shed}, \"client_sheds\": {on_cs},\n",
            "    \"overload_failures\": {on_of}, \"qos_peak_depth\": {on_pk}\n",
            "  }},\n",
            "  \"shed_off_2x\": {{\n",
            "    \"offered\": {off_off}, \"goodput_ops\": {off_gp:.0},\n",
            "    \"p50_us\": {off_p50}, \"p99_us\": {off_p99},\n",
            "    \"unfinished\": {off_un}\n",
            "  }},\n",
            "  \"fairness\": {{\n",
            "    \"honest_p99_base_us\": {fb}, \"honest_p99_hog_us\": {fh},\n",
            "    \"inflation_pct\": {fi:.1}, \"hog_completed\": {hc},\n",
            "    \"credit_clamps\": {cc}\n",
            "  }},\n",
            "  \"gates\": {{\n",
            "    \"p99_bound_us\": {gb}, \"plateau_fraction\": {gp},\n",
            "    \"collapse_factor\": {gc}, \"fairness_inflation_pct\": {gf}\n",
            "  }}\n",
            "}}\n"
        ),
        mode = if smoke { "smoke" } else { "full" },
        cap = capacity,
        on_off = on_2x.offered,
        on_gp = on_2x.goodput_ops,
        on_p50 = on_2x.p50_us,
        on_p99 = on_2x.p99_us,
        on_shed = on_2x.server_sheds,
        on_cs = on_2x.client_sheds,
        on_of = on_2x.overload_failures,
        on_pk = on_2x.qos_peak_depth,
        off_off = off_2x.offered,
        off_gp = off_2x.goodput_ops,
        off_p50 = off_2x.p50_us,
        off_p99 = off_2x.p99_us,
        off_un = off_2x.unfinished,
        fb = baseline.honest_p99_us,
        fh = hogged.honest_p99_us,
        fi = inflation_pct,
        hc = hogged.hog_completed,
        cc = hogged.credit_clamps,
        gb = P99_BOUND_US,
        gp = PLATEAU_FRACTION,
        gc = COLLAPSE_FACTOR,
        gf = FAIRNESS_INFLATION_PCT,
    );
    bench::emit_bench_json("loadcurve", &json);
    println!(
        "loadcurve: OK — capacity {capacity:.0} ops/s, shedded p99 {} us at 2x \
         (unshedded {} us), honest p99 inflation {inflation_pct:.1}%",
        on_2x.p99_us, off_2x.p99_us
    );
}
