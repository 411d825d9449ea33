//! `seq-read`: IOzone sequential READ, closed loop, on the Solaris SDR
//! profile (the paper's Figure 5 setup): Read-Write design, cached
//! registration on both sides, tmpfs, one client host running
//! `threads` threads over 128 KiB records, one file per thread.

use std::cell::RefCell;
use std::rc::Rc;

use rpcrdma::{Design, StrategyKind};
use sim_core::{Payload, Sim};
use workloads::{build_rdma, solaris_sdr, Backend};

use crate::point::{Gate, Sample};
use crate::testbed::{content_seed, jitter_links};

/// IOzone record size (the paper's 128 KiB point).
pub const RECORD: u64 = 128 * 1024;

#[derive(Clone, Copy, Debug)]
pub struct SeqRead {
    pub threads: u32,
    /// Records each thread reads, before the seeded extra of up to
    /// [`EXTRA_RECORDS`].
    pub records: u64,
}

/// The file size varies with the seed by up to this many records, so
/// that per-op averages over a run differ between seeds as they do
/// between real IOzone runs.
pub const EXTRA_RECORDS: u64 = 1024;

pub async fn body(sim: Sim, gate: Rc<Gate>, seed: u64, p: SeqRead) -> Sample {
    let profile = solaris_sdr();
    let bed = build_rdma(
        &sim,
        &profile,
        Design::ReadWrite,
        StrategyKind::Cache,
        Backend::Tmpfs,
        1,
    );
    jitter_links(&sim, bed.fabric.as_ref().expect("rdma testbed"), 2);
    let client = &bed.clients[0];
    let root = bed.server.root_handle();
    let records = p.records + content_seed(seed, u32::MAX as u64) % EXTRA_RECORDS;
    let file_bytes = records * RECORD;

    // Set-up: one file per thread, written straight into the server's
    // file system (IOzone's write pass heats the cache the same way).
    let mut files = Vec::new();
    for t in 0..p.threads {
        let fh = client
            .nfs
            .create(root, &format!("ioz-t{t}"))
            .await
            .expect("create")
            .handle();
        let content = Payload::synthetic(content_seed(seed, t as u64), file_bytes);
        let mut off = 0;
        while off < file_bytes {
            let n = (file_bytes - off).min(8 << 20);
            bed.fs
                .write(fs_backend::FileId(fh.0), off, content.slice(off, n))
                .await
                .expect("prepopulate");
            off += n;
        }
        files.push((fh, content));
    }

    let cpu0 = client.cpu.busy_time();
    gate.open(&sim);
    let t0 = sim.now();
    let out = Rc::new(RefCell::new(Sample::default()));
    let done = sim_core::sync::Semaphore::new(0);
    for (fh, content) in files {
        let nfs = client.nfs.clone();
        let buf = client.mem.alloc(RECORD);
        let (sim2, out, done) = (sim.clone(), out.clone(), done.clone());
        sim.spawn(async move {
            for r in 0..records {
                let start = sim2.now();
                let res = nfs
                    .read(fh, r * RECORD, RECORD as u32, Some((&buf, 0)))
                    .await;
                let lat = sim2.now().saturating_since(start).as_nanos();
                let mut o = out.borrow_mut();
                o.attempted += 1;
                match res {
                    Ok((data, _eof)) => {
                        // The reply and the user buffer must both hold
                        // exactly the record that was written there.
                        let want = content.slice(r * RECORD, RECORD);
                        o.check(data.content_eq(&want), || {
                            format!("{fh:?} record {r}: reply data differs")
                        });
                        o.check(buf.read(0, RECORD).content_eq(&want), || {
                            format!("{fh:?} record {r}: user buffer differs")
                        });
                        o.payload_bytes += RECORD;
                        o.lat_ns.push(lat);
                    }
                    Err(e) => {
                        o.failed += 1;
                        o.lat_ns.push(u64::MAX);
                        o.errors.push(format!("{fh:?} record {r}: {e:?}"));
                    }
                }
            }
            done.add_permits(1);
        });
    }
    for _ in 0..p.threads {
        done.acquire().await.forget();
    }
    let mut s = out.take();
    s.sim_ns = sim.now().saturating_since(t0).as_nanos();
    s.client_cpu_ns = client.cpu.busy_time().as_nanos() - cpu0.as_nanos();
    gate.close(&sim);
    s
}
