//! Ablation studies for the design choices DESIGN.md calls out — these
//! go beyond the paper's figures and probe *why* the Read-Write design
//! wins and where its knobs sit.
//!
//! 1. **Zero-copy decomposition**: how much of the RW design's client
//!    CPU win is the zero-copy direct-I/O path vs the protocol change
//!    itself (DONE elimination, server push)?
//! 2. **ORD sensitivity**: the paper blames the IRD/ORD ≤ 8 limit for
//!    WRITE-path throttling; sweep the window and find where it
//!    actually binds given in-order responder execution.
//! 3. **Inline threshold**: when do small RPCs stop fitting inline and
//!    start paying long-call RDMA Reads?
//! 4. **Credit window**: the paper's stated future work — how deep must
//!    the flow-control window be to keep the pipe full per thread
//!    count?

use rpcrdma::{Design, StrategyKind};
use sim_core::sweep::parallel_sweep;
use sim_core::{SimDuration, Simulation};
use workloads::{
    build_rdma, build_rdma_custom, linux_sdr, mb, pct, run_iozone, run_openloop, solaris_sdr,
    Arrival, Backend, IoMode, IozoneParams, OpMix, OpenLoopParams, OpenLoopResult, Profile,
    RdmaOpts, Table,
};

const FILE: u64 = 32 << 20;

fn iozone(
    profile: Profile,
    design: Design,
    strategy: StrategyKind,
    mode: IoMode,
    threads: u32,
    record: u64,
) -> workloads::IozoneResult {
    let mut sim = Simulation::new(0xAB1A);
    let h = sim.handle();
    sim.block_on(async move {
        let bed = build_rdma(&h, &profile, design, strategy, Backend::Tmpfs, 1);
        run_iozone(
            &h,
            &bed,
            IozoneParams {
                threads_per_client: threads,
                file_size: FILE,
                record,
                mode,
                ..Default::default()
            },
        )
        .await
    })
}

fn zero_copy_decomposition() {
    let base = solaris_sdr();
    let mut no_zc = base;
    no_zc.rpc.zero_copy_read = false;

    let rows: Vec<(&str, Profile, Design)> = vec![
        ("Read-Read (baseline)", base, Design::ReadRead),
        ("Read-Write, copy-out", no_zc, Design::ReadWrite),
        ("Read-Write, zero-copy", base, Design::ReadWrite),
    ];
    let results = parallel_sweep(rows.clone(), |(_, p, d)| {
        (
            iozone(p, d, StrategyKind::Dynamic, IoMode::Read, 1, 128 * 1024),
            iozone(p, d, StrategyKind::Dynamic, IoMode::Read, 8, 128 * 1024),
        )
    });
    let mut t = Table::new(
        "Ablation 1 — where the Read-Write win comes from (READ, 128K)",
        &["variant", "1-thr MB/s", "8-thr MB/s", "8-thr client CPU"],
    );
    for ((label, _, _), (one, eight)) in rows.iter().zip(results) {
        t.row(&[
            label.to_string(),
            mb(one.bandwidth_mb),
            mb(eight.bandwidth_mb),
            pct(eight.client_cpu),
        ]);
    }
    bench::emit("ablation_zerocopy", &t);
    println!(
        "Takeaway: the protocol change (no RDMA_DONE, server push) buys the \
         bandwidth; the zero-copy path buys the flat client CPU curve.\n"
    );
}

fn ord_sensitivity() {
    let orders = [1usize, 2, 4, 8, 16, 32];
    let results = parallel_sweep(orders.to_vec(), |ord| {
        let mut p = solaris_sdr();
        p.hca.max_ord = ord;
        p.hca.max_ird = ord;
        iozone(
            p,
            Design::ReadWrite,
            StrategyKind::Cache,
            IoMode::Write,
            8,
            128 * 1024,
        )
    });
    let mut t = Table::new(
        "Ablation 2 — ORD/IRD window vs NFS WRITE bandwidth (8 threads, cache)",
        &["ord/ird", "write MB/s"],
    );
    for (ord, r) in orders.iter().zip(results) {
        t.row(&[ord.to_string(), mb(r.bandwidth_mb)]);
    }
    bench::emit("ablation_ord", &t);
    println!(
        "Takeaway: because an RC responder executes reads in order, the \
         window stops mattering once request latency is covered — the \
         serialized read engine, not the depth-8 limit, is the real WRITE \
         ceiling.\n"
    );
}

fn inline_threshold_sweep() {
    // The inline threshold decides when an RPC reply still fits in the
    // Send and when it must become a long reply (reply-chunk RDMA
    // Write + registration). READDIR of a populated directory is the
    // canonical boundary case (paper §3.1).
    let thresholds = [256u64, 1024, 4096, 16384];
    let results = parallel_sweep(thresholds.to_vec(), |inline| {
        let mut p = solaris_sdr();
        p.rpc.inline_threshold = inline;
        let mut sim = Simulation::new(0x1712);
        let h = sim.handle();
        sim.block_on(async move {
            let bed = build_rdma(
                &h,
                &p,
                Design::ReadWrite,
                StrategyKind::Dynamic,
                Backend::Tmpfs,
                1,
            );
            let root = bed.server.root_handle();
            let c = &bed.clients[0];
            let dir = c.nfs.mkdir(root, "crowd").await.unwrap();
            // ~60 bytes of XDR per entry: 50 entries ≈ 3 KiB reply.
            for i in 0..50 {
                c.nfs
                    .create(dir.handle(), &format!("entry-{i:04}"))
                    .await
                    .unwrap();
            }
            let t0 = h.now();
            let rounds = 200;
            for _ in 0..rounds {
                let entries = c.nfs.readdir(dir.handle()).await.unwrap();
                assert_eq!(entries.len(), 50);
            }
            let secs = h.now().saturating_since(t0).as_secs_f64();
            rounds as f64 / secs
        })
    });
    let mut t = Table::new(
        "Ablation 3 — inline threshold vs READDIR throughput (50 entries, ~3 KiB reply)",
        &["inline bytes", "readdir ops/s", "path taken"],
    );
    for (inline, ops) in thresholds.iter().zip(results) {
        let path = if *inline >= 4096 {
            "inline reply"
        } else {
            "long reply (reply chunk)"
        };
        t.row(&[inline.to_string(), format!("{ops:.0}"), path.to_string()]);
    }
    bench::emit("ablation_inline", &t);
    println!(
        "Takeaway: crossing the threshold adds a registration + RDMA Write \
         to every READDIR; generous inline space is cheap insurance for \
         metadata-heavy workloads.\n"
    );
}

fn credit_window_sweep() {
    let credits = [1u32, 2, 4, 8, 16, 32, 64];
    let results = parallel_sweep(credits.to_vec(), |cr| {
        let mut p = solaris_sdr();
        p.rpc.credits = cr;
        iozone(
            p,
            Design::ReadWrite,
            StrategyKind::Cache,
            IoMode::Read,
            8,
            128 * 1024,
        )
    });
    let mut t = Table::new(
        "Ablation 4 — credit window vs READ bandwidth (8 threads, cache)",
        &["credits", "read MB/s"],
    );
    for (cr, r) in credits.iter().zip(results) {
        t.row(&[cr.to_string(), mb(r.bandwidth_mb)]);
    }
    bench::emit("ablation_credits", &t);
    println!(
        "Takeaway (the paper's future work): the window must cover the \
         pipeline depth of the bottleneck stage (~4 ops here); beyond \
         that, extra credits only cost receive buffers.\n"
    );
}

fn msgp_small_write_fast_path() {
    // RDMA_MSGP (the paper's Figure-2 message type 2, implemented as an
    // extension): small writes ride inline instead of paying a
    // registration plus a server-side RDMA Read.
    let sizes = [512u64, 1024, 4096, 16384];
    let results = parallel_sweep(
        sizes
            .iter()
            .flat_map(|&s| [(s, false), (s, true)])
            .collect::<Vec<_>>(),
        |(record, msgp)| {
            // Linux profile: the lean task queue leaves registration as
            // the binding constraint, which is what MSGP removes.
            let mut p = workloads::linux_sdr();
            p.rpc.msgp_small_writes = msgp;
            // MSGP only helps below the inline threshold; lift it so
            // every swept size qualifies when enabled.
            p.rpc.inline_threshold = 16 * 1024;
            p.rpc.recv_buffer_size = 64 * 1024;
            iozone(
                p,
                Design::ReadWrite,
                StrategyKind::Dynamic,
                IoMode::Write,
                8,
                record,
            )
        },
    );
    let mut t = Table::new(
        "Ablation 5 — RDMA_MSGP padded-inline small writes (8 threads)",
        &["record", "chunked MB/s", "MSGP MB/s", "speedup"],
    );
    for (i, record) in sizes.iter().enumerate() {
        let base = &results[i * 2];
        let msgp = &results[i * 2 + 1];
        t.row(&[
            record.to_string(),
            mb(base.bandwidth_mb),
            mb(msgp.bandwidth_mb),
            format!("{:.2}x", msgp.bandwidth_mb / base.bandwidth_mb),
        ]);
    }
    bench::emit("ablation_msgp", &t);
    println!(
        "Takeaway: below the inline threshold, MSGP removes both per-op \
         registrations and the serialized RDMA Read — the small-write \
         path the chunked protocol penalizes most.\n"
    );
}

/// One measured point of the batching ablation.
#[derive(Clone, Copy)]
struct BatchPoint {
    /// Server doorbell batch depth (and CQ coalesce count when > 1).
    depth: usize,
    /// Client threads.
    threads: u32,
    /// Server registration strategy.
    server_strategy: StrategyKind,
    /// Client registration strategy (Dynamic for the bandwidth rows;
    /// the cache for the 4K IOPS rows, per the paper's small-I/O
    /// recommendation).
    client_strategy: StrategyKind,
    /// Record size (1M streams bandwidth; 4K stresses per-op rates).
    record: u64,
    /// File size per thread.
    file_size: u64,
    /// Linux profile (lean task queue) instead of Solaris.
    linux: bool,
}

/// Measured outcome: bandwidth plus per-RPC doorbell/interrupt rates
/// read off the server HCA after the run.
struct BatchOutcome {
    bandwidth_mb: f64,
    doorbells_per_op: f64,
    interrupts_per_op: f64,
    coalesced_per_op: f64,
    zero_copy_mb: f64,
}

fn batching_point(p: BatchPoint) -> BatchOutcome {
    let profile = if p.linux {
        workloads::linux_sdr()
    } else {
        solaris_sdr()
    };
    let mut sim = Simulation::new(0xAB1A);
    let h = sim.handle();
    sim.block_on(async move {
        let mut cfg = profile.rpc.with_design(Design::ReadWrite);
        cfg.server_doorbell_batch = p.depth;
        let mut server_hca = profile.hca;
        if p.depth > 1 {
            // Interrupt moderation scales with the doorbell batch: the
            // completion side coalesces as deeply as the posting side.
            server_hca.cq_coalesce_count = p.depth;
            server_hca.cq_coalesce_delay = SimDuration::from_micros(64);
        }
        let bed = build_rdma_custom(
            &h,
            &profile,
            RdmaOpts {
                cfg,
                client_strategy: p.client_strategy,
                server_strategy: p.server_strategy,
                server_hca: Some(server_hca),
            },
            Backend::Tmpfs,
            1,
        );
        let r = run_iozone(
            &h,
            &bed,
            IozoneParams {
                threads_per_client: p.threads,
                file_size: p.file_size,
                record: p.record,
                mode: IoMode::Read,
                ..Default::default()
            },
        )
        .await;
        let hca = bed.server_hca.as_ref().expect("rdma testbed");
        let rpc = bed.rpc_server.as_ref().expect("rdma testbed");
        // Per-RPC rates over every op the server served (the READ pass
        // plus one CREATE per thread; the counters span the whole run).
        let ops = rpc.stats.ops.get().max(1) as f64;
        BatchOutcome {
            bandwidth_mb: r.bandwidth_mb,
            doorbells_per_op: hca.doorbells() as f64 / ops,
            interrupts_per_op: hca.cq_interrupts() as f64 / ops,
            coalesced_per_op: hca.cq_coalesced() as f64 / ops,
            zero_copy_mb: rpc.stats.zero_copy_bytes.get() as f64 / 1e6,
        }
    })
}

/// Fast subset of the batching sweep for `check.sh`: one baseline and
/// one batched point per section, with the PR's acceptance gates
/// asserted in-process (exit code carries the verdict).
fn batching_smoke() {
    let points = [
        BatchPoint {
            depth: 1,
            threads: 1,
            server_strategy: StrategyKind::Dynamic,
            client_strategy: StrategyKind::Dynamic,
            record: 1 << 20,
            file_size: 64 << 20,
            linux: false,
        },
        BatchPoint {
            depth: 1,
            threads: 1,
            server_strategy: StrategyKind::AllPhysical,
            client_strategy: StrategyKind::Dynamic,
            record: 1 << 20,
            file_size: 64 << 20,
            linux: false,
        },
        BatchPoint {
            depth: 4,
            threads: 8,
            server_strategy: StrategyKind::AllPhysical,
            client_strategy: StrategyKind::Cache,
            record: 4 << 10,
            file_size: 16 << 20,
            linux: true,
        },
    ];
    let r = parallel_sweep(points.to_vec(), batching_point);
    let speedup = r[1].bandwidth_mb / r[0].bandwidth_mb;
    println!(
        "batching smoke: all-physical 1M speedup over Dynamic {:.2}x ({:.0} vs {:.0} MB/s); \
         depth-4 doorbells/op {:.3}, interrupts/op {:.3}",
        speedup,
        r[1].bandwidth_mb,
        r[0].bandwidth_mb,
        r[2].doorbells_per_op,
        r[2].interrupts_per_op
    );
    assert!(
        speedup >= 1.3,
        "all-physical READ speedup over Dynamic {speedup:.2}x below the 1.3x acceptance floor"
    );
    // Each 4 KiB READ posts two WQEs (RDMA Write + reply Send), so a
    // full depth-4 batch carries two ops: 0.5 doorbells/op, plus 1%.
    // A backstop that rings partial batches early reads ~0.667.
    assert!(
        r[2].doorbells_per_op <= 0.505,
        "doorbells/op {:.3} above 0.505 at batch depth 4",
        r[2].doorbells_per_op
    );
    assert!(
        r[2].interrupts_per_op < 1.0,
        "interrupts/op {:.3} not < 1 at batch depth 4",
        r[2].interrupts_per_op
    );
    bench::emit_bench_json(
        "read",
        &format!(
            concat!(
                "{{\n",
                "  \"bench\": \"read\",\n",
                "  \"mode\": \"smoke\",\n",
                "  \"baseline_mb_s\": {:.3},\n",
                "  \"zero_copy_mb_s\": {:.3},\n",
                "  \"speedup\": {:.3},\n",
                "  \"batched\": {{\n",
                "    \"doorbells_per_op\": {:.4},\n",
                "    \"interrupts_per_op\": {:.4},\n",
                "    \"coalesced_per_op\": {:.4}\n",
                "  }}\n",
                "}}\n"
            ),
            r[0].bandwidth_mb,
            r[1].bandwidth_mb,
            speedup,
            r[2].doorbells_per_op,
            r[2].interrupts_per_op,
            r[2].coalesced_per_op,
        ),
    );
    println!("batching smoke OK");
}

fn batching_sweep() {
    // Baseline: per-WQE doorbells and symmetric Dynamic registration —
    // the configuration behind the shipped fig5 Read-Write 1M numbers.
    // Tentpole: an all-physical server (no per-op TPT work on the READ
    // critical path) under increasing doorbell batch depths, clients
    // unchanged on Dynamic.
    // Section 1 (Solaris, 1M records): the bandwidth story — fig5's
    // Read-Write single-thread config, measured against the shipped
    // 171 MB/s. Section 2 (Linux, 4K records): the per-op rate story —
    // ops arrive every ~25us, so the depth-4+ batches actually fill
    // and the doorbell/interrupt rates drop below one per RPC.
    let sol = |depth, threads, server_strategy| BatchPoint {
        depth,
        threads,
        server_strategy,
        client_strategy: StrategyKind::Dynamic,
        record: 1 << 20,
        file_size: 64 << 20,
        linux: false,
    };
    let lin = |depth, threads, server_strategy| BatchPoint {
        depth,
        threads,
        server_strategy,
        client_strategy: StrategyKind::Cache,
        record: 4 << 10,
        file_size: 16 << 20,
        linux: true,
    };
    let mut points = vec![
        ("Dynamic baseline", sol(1, 1, StrategyKind::Dynamic)),
        ("Dynamic baseline", sol(1, 8, StrategyKind::Dynamic)),
    ];
    for depth in [1usize, 2, 4, 8, 16] {
        for threads in [1u32, 8] {
            points.push((
                "zero-copy all-phys",
                sol(depth, threads, StrategyKind::AllPhysical),
            ));
        }
    }
    let lin_start = points.len();
    points.push(("Dynamic baseline 4K", lin(1, 8, StrategyKind::Dynamic)));
    for depth in [1usize, 2, 4, 8, 16] {
        points.push((
            "zero-copy all-phys 4K",
            lin(depth, 8, StrategyKind::AllPhysical),
        ));
    }
    let results = parallel_sweep(points.clone(), |(_, p)| batching_point(p));
    let base_1t = results[0].bandwidth_mb;
    let base_8t = results[1].bandwidth_mb;
    let base_4k = results[lin_start].bandwidth_mb;
    let mut t = Table::new(
        "Ablation 6 — zero-copy READ pipeline + doorbell/completion batching \
         (RW design; clients Dynamic at 1M, Cache at 4K)",
        &[
            "variant",
            "record",
            "depth",
            "threads",
            "MB/s",
            "speedup",
            "doorbells/op",
            "interrupts/op",
            "coalesced/op",
            "zero-copy MB",
        ],
    );
    for (i, ((label, p), r)) in points.iter().zip(&results).enumerate() {
        let base = if i >= lin_start {
            base_4k
        } else if p.threads == 1 {
            base_1t
        } else {
            base_8t
        };
        t.row(&[
            label.to_string(),
            if p.record >= (1 << 20) { "1M" } else { "4K" }.to_string(),
            p.depth.to_string(),
            p.threads.to_string(),
            mb(r.bandwidth_mb),
            format!("{:.2}x", r.bandwidth_mb / base),
            format!("{:.3}", r.doorbells_per_op),
            format!("{:.3}", r.interrupts_per_op),
            format!("{:.3}", r.coalesced_per_op),
            format!("{:.1}", r.zero_copy_mb),
        ]);
    }
    bench::emit("ablation_batching", &t);
    println!(
        "Takeaway: removing server-side TPT work from the READ critical \
         path (an all-physical window) buys the bandwidth; doorbell batching plus interrupt moderation then push \
         the per-RPC doorbell and interrupt rates below one at depth >= 4 \
         under concurrency.\n"
    );
}

/// One measured point of the WRITE-path ablation.
#[derive(Clone, Copy)]
struct WritePoint {
    /// Server registration strategy.
    server_strategy: StrategyKind,
    /// Client threads.
    threads: u32,
    /// Record size.
    record: u64,
    /// Batch UNSTABLE writes and COMMIT once per file at close.
    commit_on_close: bool,
}

/// Measured outcome: bandwidth plus the server's data-movement and
/// UNSTABLE/COMMIT accounting after the run.
struct WriteOutcome {
    bandwidth_mb: f64,
    copied_mb: f64,
    write_zero_copy_mb: f64,
    unstable_writes: u64,
    commits: u64,
}

fn write_point(p: WritePoint) -> WriteOutcome {
    let profile = solaris_sdr();
    let mut sim = Simulation::new(0xAB1A);
    let h = sim.handle();
    sim.block_on(async move {
        let cfg = profile.rpc.with_design(Design::ReadWrite);
        let bed = build_rdma_custom(
            &h,
            &profile,
            RdmaOpts {
                cfg,
                client_strategy: StrategyKind::Dynamic,
                server_strategy: p.server_strategy,
                server_hca: None,
            },
            Backend::Tmpfs,
            1,
        );
        let r = run_iozone(
            &h,
            &bed,
            IozoneParams {
                threads_per_client: p.threads,
                file_size: 64 << 20,
                record: p.record,
                mode: IoMode::Write,
                commit_on_close: p.commit_on_close,
            },
        )
        .await;
        let rpc = bed.rpc_server.as_ref().expect("rdma testbed");
        WriteOutcome {
            bandwidth_mb: r.bandwidth_mb,
            copied_mb: rpc.stats.copied_bytes.get() as f64 / 1e6,
            write_zero_copy_mb: rpc.stats.write_zero_copy_bytes.get() as f64 / 1e6,
            unstable_writes: bed.server.stats.unstable_writes.get(),
            commits: bed.server.stats.commits.get(),
        }
    })
}

/// The WRITE-path acceptance gates for `check.sh`: an all-physical
/// server must beat the Dynamic baseline by at least 1.3x at 1M
/// records; both must scatter every WRITE byte zero-copy with nothing
/// staged, and the Cache strategy must still bounce.
fn write_path_smoke() {
    let baseline = WritePoint {
        server_strategy: StrategyKind::Dynamic,
        threads: 1,
        record: 1 << 20,
        commit_on_close: false,
    };
    let zc = WritePoint {
        server_strategy: StrategyKind::AllPhysical,
        ..baseline
    };
    // The Cache strategy's pre-registered slabs are the one path that
    // must still bounce.
    let cache = WritePoint {
        server_strategy: StrategyKind::Cache,
        ..baseline
    };
    let r = parallel_sweep(vec![baseline, zc, cache], write_point);
    let speedup = r[1].bandwidth_mb / r[0].bandwidth_mb;
    println!(
        "write-path smoke: all-physical 1M speedup over Dynamic {:.2}x ({:.0} vs {:.0} MB/s); \
         staged {:.1} MB copied, zero-copy counter {:.1} MB",
        speedup, r[1].bandwidth_mb, r[0].bandwidth_mb, r[1].copied_mb, r[1].write_zero_copy_mb
    );
    assert!(
        speedup >= 1.3,
        "all-physical WRITE speedup over Dynamic {speedup:.2}x below the 1.3x acceptance floor"
    );
    assert!(
        r[1].copied_mb == 0.0,
        "zero-copy WRITE path staged {:.1} MB (must be 0)",
        r[1].copied_mb
    );
    let expect_mb = (64u64 << 20) as f64 / 1e6;
    assert!(
        (r[1].write_zero_copy_mb - expect_mb).abs() < 0.01,
        "write.zero_copy_bytes {:.1} MB != {expect_mb:.1} MB transferred",
        r[1].write_zero_copy_mb
    );
    assert!(
        (r[0].write_zero_copy_mb - expect_mb).abs() < 0.01 && r[0].copied_mb == 0.0,
        "Dynamic baseline must move every byte zero-copy: zero-copy {:.1} MB \
         (expected {expect_mb:.1} MB), copied {:.1} MB (expected 0)",
        r[0].write_zero_copy_mb,
        r[0].copied_mb
    );
    assert!(
        r[2].copied_mb >= expect_mb,
        "Cache slabs must remain the one bouncing strategy: copied {:.1} MB, \
         expected >= {expect_mb:.1} MB",
        r[2].copied_mb
    );
    bench::emit_bench_json(
        "write",
        &format!(
            concat!(
                "{{\n",
                "  \"bench\": \"write\",\n",
                "  \"mode\": \"smoke\",\n",
                "  \"baseline_mb_s\": {:.3},\n",
                "  \"zero_copy_mb_s\": {:.3},\n",
                "  \"speedup\": {:.3},\n",
                "  \"zero_copy\": {{\n",
                "    \"staged_mb\": {:.3},\n",
                "    \"zero_copy_mb\": {:.3},\n",
                "    \"unstable_writes\": {},\n",
                "    \"commits\": {}\n",
                "  }}\n",
                "}}\n"
            ),
            r[0].bandwidth_mb,
            r[1].bandwidth_mb,
            speedup,
            r[1].copied_mb,
            r[1].write_zero_copy_mb,
            r[1].unstable_writes,
            r[1].commits,
        ),
    );
    println!("write-path smoke OK");
}

fn write_path_sweep() {
    // Baseline: symmetric Dynamic registration. Tentpole: an
    // all-physical server (no per-op TPT work on the WRITE critical
    // path), with and without close-to-commit UNSTABLE batching. Every
    // row scatters pulled read chunks straight into page-cache pages.
    let point = |server_strategy, threads, commit_on_close| WritePoint {
        server_strategy,
        threads,
        record: 1 << 20,
        commit_on_close,
    };
    let points = vec![
        ("Dynamic baseline", point(StrategyKind::Dynamic, 1, false)),
        ("Dynamic baseline", point(StrategyKind::Dynamic, 8, false)),
        (
            "zero-copy all-phys",
            point(StrategyKind::AllPhysical, 1, false),
        ),
        (
            "zero-copy all-phys",
            point(StrategyKind::AllPhysical, 8, false),
        ),
        (
            "zero-copy + commit-on-close",
            point(StrategyKind::AllPhysical, 1, true),
        ),
        (
            "zero-copy + commit-on-close",
            point(StrategyKind::AllPhysical, 8, true),
        ),
    ];
    let results = parallel_sweep(points.clone(), |(_, p)| write_point(p));
    let base_1t = results[0].bandwidth_mb;
    let base_8t = results[1].bandwidth_mb;
    let mut t = Table::new(
        "Ablation 7 — zero-copy WRITE pipeline: receive-side scatter + \
         UNSTABLE/COMMIT batching (RW design, 1M records, clients Dynamic)",
        &[
            "variant",
            "threads",
            "MB/s",
            "speedup",
            "staged MB",
            "zero-copy MB",
            "unstable writes",
            "commits",
        ],
    );
    for ((label, p), r) in points.iter().zip(&results) {
        let base = if p.threads == 1 { base_1t } else { base_8t };
        t.row(&[
            label.to_string(),
            p.threads.to_string(),
            mb(r.bandwidth_mb),
            format!("{:.2}x", r.bandwidth_mb / base),
            format!("{:.1}", r.copied_mb),
            format!("{:.1}", r.write_zero_copy_mb),
            r.unstable_writes.to_string(),
            r.commits.to_string(),
        ]);
    }
    bench::emit("ablation_write", &t);
    println!(
        "Takeaway: an all-physical window removes the per-op TPT work \
         from the WRITE critical path — the mirror of the READ win; every \
         row already scatters pulled read chunks into page-cache pages \
         uncopied. COMMIT-on-close adds one cheap group commit per \
         file on top of the UNSTABLE burst.\n"
    );
}

/// One closed-loop metadata run for the RFP ablation: same seed, same
/// personality, only the reply path differs. At saturation the
/// serialized server stage pins closed-loop p50 (queue wait absorbs
/// any reply-leg difference), so the latency gate runs a single
/// stream — one connection, one worker — where the reply path shows
/// up directly in every op, the way the remote-fetching papers
/// measure small-RPC latency. The sweep adds saturated points for
/// throughput and per-op server-cost rates.
///
/// Both modes run on an RFP-era read engine: the paper's 2005 SDR HCA
/// charges 107 us of responder turnaround per RDMA Read, which buries
/// any fetch-based reply path; the remote-fetching literature targets
/// the later generation where a small read costs ~2 us. The override
/// applies to baseline and RFP alike, so the comparison stays fair.
fn rfp_point(
    mix: OpMix,
    rfp: bool,
    duration_ms: u64,
    connections: usize,
    workers: u32,
) -> OpenLoopResult {
    let mut profile = linux_sdr();
    profile.hca.read_turnaround = SimDuration::from_micros(2);
    profile.rpc.rfp_poll_initial = SimDuration::from_micros(2);
    run_openloop(
        0xAB1A,
        &profile,
        OpenLoopParams {
            design: Design::ReadWrite,
            strategy: StrategyKind::AllPhysical,
            connections,
            arrival: Arrival::ClosedLoop { workers },
            mix,
            duration: SimDuration::from_millis(duration_ms),
            grace: SimDuration::from_millis(5),
            qos: false,
            waiting_room: 0,
            rfp,
            ..OpenLoopParams::default()
        },
    )
}

/// Derived per-op rates for one RFP ablation point. Server counters
/// span prepopulation too, so rates use the server's own op count.
struct RfpRates {
    sends_per_op: f64,
    deposits_per_op: f64,
    doorbells_per_op: f64,
    interrupts_per_op: f64,
}

fn rfp_rates(r: &OpenLoopResult) -> RfpRates {
    let ops = r.server_ops.max(1) as f64;
    RfpRates {
        sends_per_op: (r.server_ops - r.rfp_deposits) as f64 / ops,
        deposits_per_op: r.rfp_deposits as f64 / ops,
        doorbells_per_op: r.server_doorbells as f64 / ops,
        interrupts_per_op: r.server_interrupts as f64 / ops,
    }
}

/// RFP acceptance gates for `check.sh`: on a pure metadata storm the
/// reply-slot path must all but eliminate server Sends (and with them
/// doorbells), beat the RPC baseline's small-op p50, and replay
/// byte-identically under the same seed.
fn rfp_smoke() {
    let runs = parallel_sweep(vec![false, true, true], |rfp| {
        rfp_point(OpMix::stat_storm(), rfp, 20, 1, 1)
    });
    let (rpc, rfp, rfp2) = (&runs[0], &runs[1], &runs[2]);
    let (rr, fr) = (rfp_rates(rpc), rfp_rates(rfp));
    println!(
        "rfp smoke: p50 {} -> {} us, p99 {} -> {} us; deposits/op {:.3}, \
         sends/op {:.3} -> {:.4}, doorbells/op {:.3} -> {:.3}",
        rpc.p50_us,
        rfp.p50_us,
        rpc.p99_us,
        rfp.p99_us,
        fr.deposits_per_op,
        rr.sends_per_op,
        fr.sends_per_op,
        rr.doorbells_per_op,
        fr.doorbells_per_op,
    );
    assert!(
        rpc.rfp_deposits == 0,
        "baseline deposited {} replies with rfp off",
        rpc.rfp_deposits
    );
    assert!(
        fr.deposits_per_op > 0.9,
        "deposits/op {:.3} not > 0.9 — the metadata storm should ride the slots",
        fr.deposits_per_op
    );
    assert!(
        fr.sends_per_op < 0.05,
        "server Sends/op {:.4} not < 0.05 in RFP mode",
        fr.sends_per_op
    );
    assert!(
        fr.doorbells_per_op < rr.doorbells_per_op,
        "RFP doorbells/op {:.3} not below RPC baseline {:.3}",
        fr.doorbells_per_op,
        rr.doorbells_per_op
    );
    assert!(
        rfp.p50_us <= rpc.p50_us,
        "RFP small-op p50 {} us above RPC baseline {} us",
        rfp.p50_us,
        rpc.p50_us
    );
    assert!(
        rfp.p50_us == rfp2.p50_us
            && rfp.p99_us == rfp2.p99_us
            && rfp.completed == rfp2.completed
            && rfp.metrics_snapshot == rfp2.metrics_snapshot,
        "same-seed RFP runs diverged"
    );
    bench::emit_bench_json(
        "rfp",
        &format!(
            concat!(
                "{{\n",
                "  \"bench\": \"rfp\",\n",
                "  \"mode\": \"smoke\",\n",
                "  \"rpc\": {{ \"p50_us\": {}, \"p99_us\": {}, \"goodput_ops\": {:.0}, ",
                "\"sends_per_op\": {:.4}, \"doorbells_per_op\": {:.4} }},\n",
                "  \"rfp\": {{ \"p50_us\": {}, \"p99_us\": {}, \"goodput_ops\": {:.0}, ",
                "\"sends_per_op\": {:.4}, \"doorbells_per_op\": {:.4}, ",
                "\"deposits_per_op\": {:.4} }}\n",
                "}}\n"
            ),
            rpc.p50_us,
            rpc.p99_us,
            rpc.goodput_ops,
            rr.sends_per_op,
            rr.doorbells_per_op,
            rfp.p50_us,
            rfp.p99_us,
            rfp.goodput_ops,
            fr.sends_per_op,
            fr.doorbells_per_op,
            fr.deposits_per_op,
        ),
    );
    println!("rfp smoke OK");
}

fn rfp_sweep() {
    let mixes: Vec<(&str, OpMix)> = vec![
        ("varmail", OpMix::varmail()),
        ("webserver", OpMix::webserver()),
        ("stat-storm", OpMix::stat_storm()),
        ("oltp", OpMix::oltp()),
    ];
    let points: Vec<(&str, OpMix, bool)> = mixes
        .iter()
        .flat_map(|&(name, mix)| [(name, mix, false), (name, mix, true)])
        .collect();
    let results = parallel_sweep(points.clone(), |(_, mix, rfp)| {
        rfp_point(mix, rfp, 60, 2, 4)
    });
    let mut t = Table::new(
        "Ablation 8 — RFP reply slots vs Send replies (RW design, closed loop, \
         2 conns x 4 workers)",
        &[
            "mix",
            "replies",
            "ops/s",
            "p50 us",
            "p99 us",
            "deposits/op",
            "sends/op",
            "doorbells/op",
            "interrupts/op",
        ],
    );
    for ((name, _, rfp), r) in points.iter().zip(&results) {
        let rates = rfp_rates(r);
        t.row(&[
            name.to_string(),
            if *rfp { "RFP slots" } else { "Send" }.to_string(),
            format!("{:.0}", r.goodput_ops),
            r.p50_us.to_string(),
            r.p99_us.to_string(),
            format!("{:.3}", rates.deposits_per_op),
            format!("{:.3}", rates.sends_per_op),
            format!("{:.3}", rates.doorbells_per_op),
            format!("{:.3}", rates.interrupts_per_op),
        ]);
    }
    bench::emit("ablation_rfp", &t);
    println!(
        "Takeaway: letting the client fetch small replies out of registered \
         slots removes the server's Send (doorbell + completion) from every \
         metadata op; bulk READ/WRITE replies keep their chunks and fall \
         back, so mixed personalities land between the extremes.\n"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--batching") {
        if args.iter().any(|a| a == "--smoke") {
            batching_smoke();
        } else {
            batching_sweep();
        }
        return;
    }
    if args.iter().any(|a| a == "--write-path") {
        if args.iter().any(|a| a == "--smoke") {
            write_path_smoke();
        } else {
            write_path_sweep();
        }
        return;
    }
    if args.iter().any(|a| a == "--rfp") {
        if args.iter().any(|a| a == "--smoke") {
            rfp_smoke();
        } else {
            rfp_sweep();
        }
        return;
    }
    zero_copy_decomposition();
    ord_sensitivity();
    inline_threshold_sweep();
    credit_window_sweep();
    msgp_small_write_fast_path();
    batching_sweep();
    write_path_sweep();
    rfp_sweep();
}
