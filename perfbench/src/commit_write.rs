//! `commit-write`: closed loop on the replicated two-node cluster.
//! Each client writes 128 KiB UNSTABLE records with a COMMIT every
//! [`COMMIT_EVERY`] records (plus a final one), on the Linux SDR
//! profile with WAL-on-RAID on both nodes and no kill. After the
//! measurement phase every record is read back and compared.

use std::cell::RefCell;
use std::rc::Rc;

use rpcrdma::{Design, StrategyKind};
use sim_core::{Payload, Sim, SimDuration};
use workloads::{build_cluster, linux_sdr, Backend, ClusterConfig};

use crate::point::{Gate, Sample};
use crate::testbed::{content_seed, jitter_links};

pub const RECORD: u64 = 128 * 1024;
pub const COMMIT_EVERY: u64 = 8;

/// Backup log-ring size. The cluster default (256 KiB) panics on any
/// replicated WRITE of 128 KiB or more ("exceeds half the ring"), so
/// the ring is set explicitly; see the benchmark notes.
pub const RING_BYTES: u64 = 1 << 20;

#[derive(Clone, Copy, Debug)]
pub struct CommitWrite {
    pub clients: usize,
    /// Records each client writes.
    pub records: u64,
}

fn record_content(seed: u64, client: usize, r: u64) -> Payload {
    Payload::synthetic(content_seed(seed, ((client as u64) << 32) | r), RECORD)
}

pub async fn body(sim: Sim, gate: Rc<Gate>, seed: u64, p: CommitWrite) -> Sample {
    let profile = linux_sdr();
    let ccfg = ClusterConfig {
        ring_bytes: RING_BYTES,
        hb_interval: SimDuration::from_micros(500),
        hb_miss_limit: 3,
        replicate: true,
    };
    let bed = build_cluster(
        &sim,
        &profile,
        profile.rpc.with_design(Design::ReadWrite),
        StrategyKind::Cache,
        Backend::WalRaid { ram_bytes: 4 << 30 },
        p.clients,
        ccfg,
    )
    .await;
    // Clients, primary and backup.
    jitter_links(&sim, &bed.fabric, p.clients as u32 + 2);
    let root = bed.nodes[0].server.root_handle();

    let mut files = Vec::new();
    for (ci, c) in bed.clients.iter().enumerate() {
        let fh = c
            .nfs
            .create(root, &format!("cw-{ci}"))
            .await
            .expect("create")
            .handle();
        files.push(fh);
    }

    let busy = |bed: &workloads::ClusterTestbed| -> u64 {
        bed.clients
            .iter()
            .map(|c| c.cpu.busy_time().as_nanos())
            .sum()
    };
    let cpu0 = busy(&bed);
    gate.open(&sim);
    let t0 = sim.now();
    let out = Rc::new(RefCell::new(Sample::default()));
    let done = sim_core::sync::Semaphore::new(0);
    for (ci, c) in bed.clients.iter().enumerate() {
        let nfs = c.nfs.clone();
        let buf = c.mem.alloc(RECORD);
        let fh = files[ci];
        let (sim2, out, done) = (sim.clone(), out.clone(), done.clone());
        sim.spawn(async move {
            let timed = |start: sim_core::SimTime, ok: bool, bytes: u64, what: String| {
                let mut o = out.borrow_mut();
                o.attempted += 1;
                if ok {
                    o.payload_bytes += bytes;
                    o.lat_ns.push(sim2.now().saturating_since(start).as_nanos());
                } else {
                    o.failed += 1;
                    o.lat_ns.push(u64::MAX);
                    o.errors.push(what);
                }
            };
            for r in 0..p.records {
                buf.write(0, record_content(seed, ci, r));
                let start = sim2.now();
                let res = nfs
                    .write(fh, r * RECORD, &buf, 0, RECORD as u32, false)
                    .await;
                let ok = matches!(res, Ok(n) if n as u64 == RECORD);
                timed(start, ok, RECORD, format!("client {ci} write {r}: {res:?}"));
                if (r + 1) % COMMIT_EVERY == 0 || r + 1 == p.records {
                    let start = sim2.now();
                    let res = nfs.commit(fh).await;
                    out.borrow_mut().commits += 1;
                    timed(
                        start,
                        res.is_ok(),
                        0,
                        format!("client {ci} commit: {res:?}"),
                    );
                }
            }
            done.add_permits(1);
        });
    }
    for _ in 0..p.clients {
        done.acquire().await.forget();
    }
    let mut s = out.take();
    s.sim_ns = sim.now().saturating_since(t0).as_nanos();
    s.client_cpu_ns = busy(&bed) - cpu0;
    gate.close(&sim);

    // Output check: every record reads back intact from the primary.
    let mut corrupt = 0u64;
    for (ci, c) in bed.clients.iter().enumerate() {
        for r in 0..p.records {
            match c.nfs.read(files[ci], r * RECORD, RECORD as u32, None).await {
                Ok((data, _)) if data.content_eq(&record_content(seed, ci, r)) => {}
                _ => corrupt += 1,
            }
        }
    }
    s.check(corrupt == 0, || format!("corrupt_records = {corrupt}"));
    // The backup must have applied the whole log.
    let session = bed.session.borrow().clone();
    if let Some(session) = session {
        session.caught_up(bed.nodes[0].repl.log_len()).await;
    }
    bed.stop.set(true);
    s
}
