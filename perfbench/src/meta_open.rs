//! `meta-open`: open loop on the Linux SDR profile. Poisson arrivals
//! from [`TENANTS`] Zipf(0.9) tenants over [`CONNS`] connections run
//! filebench's varmail mix (GETATTR/LOOKUP/READDIR/ACCESS plus 2 KiB
//! reads and FILE_SYNC writes) with server QoS on. Latency is timed
//! from arrival; sheds, refusals and unfinished ops count as misses.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use nfs::{FileHandle, NfsClient, NfsError};
use onc_rpc::{RpcError, TransportError};
use rpcrdma::{Design, StrategyKind};
use sim_core::{Payload, Sim, SimDuration, SimRng, SimTime};
use workloads::{build_rdma_custom, linux_sdr, Backend, OpMix, RdmaOpts};

use crate::point::{Gate, Sample};
use crate::testbed::content_seed;

pub const CONNS: usize = 4;
pub const TENANTS: u32 = 2000;
pub const ZIPF_THETA: f64 = 0.9;
/// Per-connection client waiting room: arrivals finding this many ops
/// outstanding are shed client-side.
pub const WAITING_ROOM: u32 = 64;
/// Slots of each connection's data file; a tenant hashes onto a slot.
const FILE_SLOTS: u64 = 128;
const TREE_DEPTH: usize = 6;
const FILES_PER_DIR: usize = 8;
const SMALL_FILE: u64 = 512;

#[derive(Clone, Copy, Debug)]
pub struct MetaOpen {
    /// Offered load, ops per simulated second.
    pub rate: f64,
    /// Arrival window.
    pub window: SimDuration,
    /// Drain time after the window; ops pending after it are misses.
    pub grace: SimDuration,
}

pub fn mix() -> OpMix {
    OpMix::varmail()
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Getattr,
    Lookup,
    Readdir,
    Access,
    Read,
    Write,
}

fn draw_op(m: &OpMix, rng: &mut SimRng) -> Op {
    let mut p = rng.gen_range(100) as u32;
    for (share, op) in [
        (m.getattr_pct, Op::Getattr),
        (m.lookup_pct, Op::Lookup),
        (m.readdir_pct, Op::Readdir),
        (m.access_pct, Op::Access),
        (m.read_pct, Op::Read),
    ] {
        if p < share {
            return op;
        }
        p -= share;
    }
    Op::Write
}

/// Zipf popularity over tenant ranks: precomputed CDF, binary search.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: u32, theta: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf(cdf)
    }

    fn draw(&self, rng: &mut SimRng) -> u32 {
        let u = rng.gen_f64();
        (self.0.partition_point(|&c| c < u) as u32).min(self.0.len() as u32 - 1)
    }
}

/// One connection's prepopulated namespace.
struct Conn {
    nfs: Rc<NfsClient>,
    data: FileHandle,
    /// Contents of every data-file slot.
    content: Payload,
    read_buf: ib_verbs::Buffer,
    write_buf: ib_verbs::Buffer,
    dirs: Vec<FileHandle>,
    /// (directory, name, handle) of every small file.
    files: Vec<(FileHandle, String, FileHandle)>,
    outstanding: Cell<u32>,
}

struct Shared {
    sim: Sim,
    conns: Vec<Conn>,
    out: RefCell<Sample>,
    arrived: Cell<u64>,
    finished: Cell<u64>,
}

impl Shared {
    fn record(&self, arrival: SimTime, res: Result<u64, String>, shed: bool) {
        let mut o = self.out.borrow_mut();
        match res {
            Ok(bytes) => {
                o.payload_bytes += bytes;
                o.lat_ns
                    .push(self.sim.now().saturating_since(arrival).as_nanos());
            }
            Err(e) => {
                o.failed += 1;
                o.lat_ns.push(u64::MAX);
                if !shed {
                    o.errors.push(e);
                }
            }
        }
    }

    async fn run_op(&self, ci: usize, tenant: u32, op: Op, arrival: SimTime) {
        let c = &self.conns[ci];
        let t = tenant as usize;
        let (dir, name, file) = &c.files[t % c.files.len()];
        let io = mix().io_size;
        let off = (tenant as u64 % FILE_SLOTS) * io;
        let res: Result<u64, NfsError> = match op {
            Op::Getattr => c.nfs.getattr(c.data).await.and_then(|a| {
                expect(a.handle() == c.data)?;
                Ok(0)
            }),
            Op::Lookup => c.nfs.lookup(*dir, name).await.and_then(|a| {
                expect(a.handle() == *file)?;
                Ok(0)
            }),
            Op::Readdir => c.nfs.readdir(c.dirs[t % c.dirs.len()]).await.and_then(|e| {
                expect(e.len() >= FILES_PER_DIR)?;
                Ok(0)
            }),
            Op::Access => c.nfs.access(*file, 0x3f).await.map(|_| 0),
            Op::Read => c
                .nfs
                .read(c.data, off, io as u32, Some((&c.read_buf, 0)))
                .await
                .and_then(|(d, _)| {
                    expect(d.content_eq(&c.content))?;
                    Ok(io)
                }),
            Op::Write => c
                .nfs
                .write(c.data, off, &c.write_buf, 0, io as u32, true)
                .await
                .map(|_| io),
        };
        c.outstanding.set(c.outstanding.get() - 1);
        self.finished.set(self.finished.get() + 1);
        let shed = matches!(
            res,
            Err(NfsError::Rpc(RpcError::Transport(
                TransportError::Overloaded { .. }
            )))
        );
        self.record(
            arrival,
            res.map_err(|e| format!("conn {ci} {op:?}: {e:?}")),
            shed,
        );
    }
}

/// A reply whose content is wrong is a protocol error.
fn expect(ok: bool) -> Result<(), NfsError> {
    if ok {
        Ok(())
    } else {
        Err(NfsError::Protocol)
    }
}

pub async fn body(sim: Sim, gate: Rc<Gate>, seed: u64, p: MetaOpen) -> Sample {
    let profile = linux_sdr();
    let mut cfg = profile.rpc.with_design(Design::ReadWrite);
    cfg.qos_enabled = true;
    let bed = build_rdma_custom(
        &sim,
        &profile,
        RdmaOpts {
            cfg,
            client_strategy: StrategyKind::AllPhysical,
            server_strategy: StrategyKind::AllPhysical,
            server_hca: None,
        },
        Backend::Tmpfs,
        CONNS,
    );
    let rpc = bed.rpc_server.clone().expect("rdma testbed");
    for i in 0..CONNS {
        rpc.set_tenant_weight(i as u32 + 1, 1);
    }
    let io = mix().io_size;
    let root = bed.server.root_handle();

    // Set-up: a data file per connection plus a deep small-file tree.
    let mut conns = Vec::new();
    for (ci, client) in bed.clients.iter().enumerate() {
        let nfs = client.nfs.clone();
        let data = nfs
            .create(root, &format!("mo-{ci}"))
            .await
            .expect("create")
            .handle();
        let content = Payload::synthetic(content_seed(seed, ci as u64), io);
        let write_buf = client.mem.alloc(io);
        write_buf.write(0, content.clone());
        for slot in 0..FILE_SLOTS {
            nfs.write(data, slot * io, &write_buf, 0, io as u32, false)
                .await
                .expect("prepopulate");
        }
        nfs.commit(data).await.expect("prepopulate commit");
        let small = client.mem.alloc(SMALL_FILE);
        small.write(
            0,
            Payload::synthetic(content_seed(seed, 100 + ci as u64), SMALL_FILE),
        );
        let (mut dirs, mut files) = (Vec::new(), Vec::new());
        let mut parent = root;
        for d in 0..TREE_DEPTH {
            let dir = nfs
                .mkdir(parent, &format!("md{ci}-{d}"))
                .await
                .expect("mkdir")
                .handle();
            for f in 0..FILES_PER_DIR {
                let name = format!("f{f:02}");
                let fh = nfs.create(dir, &name).await.expect("create").handle();
                nfs.write(fh, 0, &small, 0, SMALL_FILE as u32, true)
                    .await
                    .expect("small write");
                files.push((dir, name, fh));
            }
            dirs.push(dir);
            parent = dir;
        }
        conns.push(Conn {
            nfs,
            data,
            content,
            read_buf: client.mem.alloc(io),
            write_buf,
            dirs,
            files,
            outstanding: Cell::new(0),
        });
    }
    let shared = Rc::new(Shared {
        sim: sim.clone(),
        conns,
        out: RefCell::new(Sample::default()),
        arrived: Cell::new(0),
        finished: Cell::new(0),
    });

    let busy = |bed: &workloads::Testbed| -> u64 {
        bed.clients
            .iter()
            .map(|c| c.cpu.busy_time().as_nanos())
            .sum()
    };
    let cpu0 = busy(&bed);
    gate.open(&sim);
    let t0 = sim.now();
    let t_end = t0 + p.window;

    // Backlog (arrived, not finished) at mid-window and window end.
    let backlog = Rc::new(Cell::new((0u64, 0u64, 0u64)));
    {
        let (sim2, shared2, backlog2) = (sim.clone(), shared.clone(), backlog.clone());
        let half = SimDuration::from_nanos(p.window.as_nanos() / 2);
        sim.spawn(async move {
            sim2.sleep(half).await;
            let mid = shared2.arrived.get() - shared2.finished.get();
            let arrived_mid = shared2.arrived.get();
            sim2.sleep_until(t_end).await;
            let end = shared2.arrived.get() - shared2.finished.get();
            backlog2.set((mid, end, shared2.arrived.get() - arrived_mid));
        });
    }

    let zipf = Zipf::new(TENANTS, ZIPF_THETA);
    let mut rng = sim.fork_rng();
    let m = mix();
    while sim.now() < t_end {
        let gap = rng.gen_exp(1e9 / p.rate);
        sim.sleep(SimDuration::from_nanos((gap as u64).max(1)))
            .await;
        let arrival = sim.now();
        if arrival >= t_end {
            break;
        }
        let tenant = zipf.draw(&mut rng);
        let ci = tenant as usize % CONNS;
        let op = draw_op(&m, &mut rng);
        shared.out.borrow_mut().attempted += 1;
        let conn = &shared.conns[ci];
        if conn.outstanding.get() >= WAITING_ROOM {
            shared.record(arrival, Err(String::new()), true);
            continue;
        }
        conn.outstanding.set(conn.outstanding.get() + 1);
        shared.arrived.set(shared.arrived.get() + 1);
        let shared2 = shared.clone();
        sim.spawn(async move { shared2.run_op(ci, tenant, op, arrival).await });
    }
    sim.sleep_until(t_end + p.grace).await;
    let unfinished: u64 = shared
        .conns
        .iter()
        .map(|c| c.outstanding.get() as u64)
        .sum();

    let mut s = shared.out.take();
    for _ in 0..unfinished {
        s.failed += 1;
        s.lat_ns.push(u64::MAX);
    }
    s.sim_ns = p.window.as_nanos();
    s.client_cpu_ns = busy(&bed) - cpu0;
    let (mid, end, second_half_arrivals) = backlog.get();
    s.backlog_growth = end > mid + (second_half_arrivals / 100).max(16);
    gate.close(&sim);
    s
}
