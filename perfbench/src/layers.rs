//! Host time per call of each layer's public hot-path functions,
//! driven with the message shapes of the workload being measured.
//!
//! Every loop runs a fixed number of calls per batch and reports the
//! median batch, in nanoseconds per call.

use std::future::Future;
use std::hint::black_box;
use std::pin::pin;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

use bytes::Bytes;
use fs_backend::{DataStore, FileId, FileKind, MemStore};
use ib_verbs::tpt::Tpt;
use ib_verbs::{Access, HostMem, NodeId, PhysLayout, RemoteOp, Rkey};
use nfs::proto::{decode_res, encode_res};
use nfs::{DirOpArgs, Fattr, FileHandle, NfsStat, ReadArgs, ReadResHead, WriteArgsHead, WriteRes};
use onc_rpc::msg::{decode_call, decode_reply, encode_call, encode_reply};
use onc_rpc::{AcceptStat, CallHeader, DrcKey, DrcOutcome, DuplicateRequestCache, ReplyHeader};
use rpcrdma::{MsgType, RdmaHeader, ReadChunk, Segment, TenantScheduler};
use sim_core::timer_wheel::TimerWheel;
use sim_core::{yield_now, Payload, SimDuration, SimRng, SimTime, Simulation};
use xdr::{Encoder, XdrCodec};

use crate::spans::HostSpans;

/// The RPC a workload issues most.
#[derive(Clone, Copy, Debug)]
pub enum MainProc {
    Read,
    Write,
    Getattr,
}

/// Message shapes of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Shapes {
    /// READ/WRITE transfer size.
    pub io: u32,
    /// WRITE stability (FILE_SYNC when true).
    pub stable: bool,
    pub main: MainProc,
    /// QoS tenants (client connections).
    pub tenants: u32,
}

const BATCHES: usize = 7;

/// Median over [`BATCHES`] batches of `calls` calls, ns per call.
fn per_call(calls: u64, mut batch: impl FnMut(u64)) -> f64 {
    batch(calls / 4); // warm caches and lazily grown structures
    let mut v: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch(calls);
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[BATCHES / 2]
}

/// Poll a future that never waits (an in-memory store op).
fn ready<F: Future>(f: F) -> F::Output {
    let mut f = pin!(f);
    match f.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(v) => v,
        Poll::Pending => panic!("in-memory store op did not complete at once"),
    }
}

fn fattr(id: u64, size: u64) -> Fattr {
    Fattr {
        kind: FileKind::Regular,
        nlink: 1,
        size,
        fileid: id,
        mtime_ns: 1_234_567_890,
        ctime_ns: 1_234_567_890,
    }
}

/// Full call/reply round trip of one NFS procedure's XDR bodies.
fn nfs_roundtrip<A: XdrCodec, R: XdrCodec>(args: &A, res: &R) -> usize {
    let a = A::from_bytes(&args.to_bytes()).expect("args decode");
    let body = encode_res(NfsStat::Ok, |e| res.encode(e));
    let r = decode_res(body, R::decode)
        .expect("res decode")
        .expect("ok");
    black_box((&a, &r));
    1
}

fn main_bodies(s: &Shapes) -> (Bytes, Bytes) {
    let fh = FileHandle(42);
    match s.main {
        MainProc::Read => (
            ReadArgs {
                file: fh,
                offset: 1 << 20,
                count: s.io,
            }
            .to_bytes(),
            encode_res(NfsStat::Ok, |e| {
                ReadResHead {
                    attr: fattr(42, 1 << 30),
                    count: s.io,
                    eof: false,
                }
                .encode(e)
            }),
        ),
        MainProc::Write => (
            WriteArgsHead {
                file: fh,
                offset: 1 << 20,
                count: s.io,
                stable: s.stable,
            }
            .to_bytes(),
            encode_res(NfsStat::Ok, |e| {
                WriteRes {
                    attr: fattr(42, 1 << 30),
                    count: s.io,
                    verf: 7,
                }
                .encode(e)
            }),
        ),
        MainProc::Getattr => (
            fh.to_bytes(),
            encode_res(NfsStat::Ok, |e| fattr(42, 2048).encode(e)),
        ),
    }
}

/// The RPC/RDMA call header the workload's main procedure carries.
fn rdma_header(s: &Shapes) -> RdmaHeader {
    let mut h = RdmaHeader::new(0x1234_5678, 32, MsgType::Msg);
    let seg = Segment {
        rkey: Rkey(0xabcd),
        len: s.io as u64,
        addr: 0x10_0000,
    };
    match s.main {
        // Read-Write design: the client advertises where the server
        // RDMA Writes the READ data.
        MainProc::Read => h.write_chunks.push(vec![seg]),
        // The server RDMA Reads the WRITE data.
        MainProc::Write => h.read_chunks.push(ReadChunk {
            position: 128,
            segment: seg,
        }),
        MainProc::Getattr => {}
    }
    h
}

/// Measure every layer loop; values in ns per call, keyed by metric.
pub fn measure(s: &Shapes, spans: &mut HostSpans) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut run = |layer: &'static str, name: &'static str, f: &mut dyn FnMut() -> f64| {
        let t = spans.enter(layer, name);
        out.push((name, f()));
        spans.exit(t);
    };

    run("sim-core", "sim-core.executor.churn_ns", &mut || {
        per_call(4096, |n| {
            let mut sim = Simulation::new(1);
            let h = sim.handle();
            for i in 0..n {
                let h2 = h.clone();
                sim.spawn(async move {
                    h2.sleep(SimDuration::from_nanos(i % 997)).await;
                    yield_now().await;
                });
            }
            sim.run();
            black_box(sim.polls());
        })
    });

    run(
        "sim-core",
        "sim-core.timer_wheel.arm_cancel_ns",
        &mut || {
            let mut w = TimerWheel::new();
            let mut now = 0u64;
            per_call(65_536, |n| {
                for i in 0..n {
                    // Reply-timeout style deadlines: armed, then cancelled
                    // when the reply wins; the wheel sweeps the stale keys.
                    let at = SimTime::from_nanos(now + 1_000 + (i % 64) * 50_000);
                    let h = w.register(at, Waker::noop().clone());
                    w.cancel(h);
                    if i % 1024 == 1023 {
                        now += 4_000_000;
                        let t = SimTime::from_nanos(now);
                        while w.pop_due(t, t).is_some() {}
                    }
                }
            })
        },
    );

    let fh = FileHandle(42);
    run("nfs", "nfs.proto.getattr_codec_ns", &mut || {
        per_call(8_192, |n| {
            for _ in 0..n {
                nfs_roundtrip(&fh, &fattr(42, 2048));
            }
        })
    });
    let lookup = DirOpArgs {
        dir: FileHandle(7),
        name: "f03".to_string(),
    };
    run("nfs", "nfs.proto.lookup_codec_ns", &mut || {
        per_call(8_192, |n| {
            for _ in 0..n {
                nfs_roundtrip(&lookup, &fattr(43, 512));
            }
        })
    });
    let read = (
        ReadArgs {
            file: fh,
            offset: 1 << 20,
            count: s.io,
        },
        ReadResHead {
            attr: fattr(42, 1 << 30),
            count: s.io,
            eof: false,
        },
    );
    run("nfs", "nfs.proto.read_codec_ns", &mut || {
        per_call(8_192, |n| {
            for _ in 0..n {
                nfs_roundtrip(&read.0, &read.1);
            }
        })
    });
    let write = (
        WriteArgsHead {
            file: fh,
            offset: 1 << 20,
            count: s.io,
            stable: s.stable,
        },
        WriteRes {
            attr: fattr(42, 1 << 30),
            count: s.io,
            verf: 7,
        },
    );
    run("nfs", "nfs.proto.write_codec_ns", &mut || {
        per_call(8_192, |n| {
            for _ in 0..n {
                nfs_roundtrip(&write.0, &write.1);
            }
        })
    });

    let (args, res) = main_bodies(s);
    let proc_num = match s.main {
        MainProc::Read => 6,
        MainProc::Write => 7,
        MainProc::Getattr => 1,
    };
    run("onc-rpc", "onc-rpc.msg.codec_ns", &mut || {
        per_call(16_384, |n| {
            for i in 0..n {
                let call = CallHeader {
                    xid: i as u32,
                    prog: nfs::NFS_PROGRAM,
                    vers: nfs::NFS_VERSION,
                    proc_num,
                };
                let (c, body) = decode_call(encode_call(&call, &args)).expect("call");
                let reply = ReplyHeader {
                    xid: c.xid,
                    stat: AcceptStat::Success,
                };
                let (r, rbody) = decode_reply(encode_reply(&reply, &res)).expect("reply");
                black_box((body, r, rbody));
            }
        })
    });

    run("onc-rpc", "onc-rpc.drc.reserve_complete_ns", &mut || {
        let drc: DuplicateRequestCache<Bytes> = DuplicateRequestCache::new(1024);
        let mut xid = 0u32;
        per_call(16_384, |n| {
            for _ in 0..n {
                xid = xid.wrapping_add(1);
                let key = DrcKey {
                    peer: 1 + xid % s.tenants,
                    xid,
                    epoch: 0,
                };
                match drc.begin(key) {
                    DrcOutcome::New(r) => r.fill(&res),
                    _ => panic!("fresh xid must be new"),
                }
            }
        })
    });

    let hdr = rdma_header(s);
    run("rpcrdma", "rpcrdma.header.codec_ns", &mut || {
        let mut enc = Encoder::with_capacity(256);
        per_call(65_536, |n| {
            for _ in 0..n {
                hdr.encode_into(&mut enc);
                black_box(RdmaHeader::from_bytes(enc.as_slice()).expect("header"));
            }
        })
    });

    run("rpcrdma", "rpcrdma.qos.enqueue_dispatch_ns", &mut || {
        let q: TenantScheduler<u64> = TenantScheduler::new(256, 64);
        for t in 0..s.tenants {
            q.set_weight(t + 1, 1);
        }
        per_call(65_536, |n| {
            for i in 0..n {
                let tenant = 1 + (i % s.tenants as u64) as u32;
                q.enqueue(tenant, i).expect("queue has room");
                black_box(q.dequeue());
            }
        })
    });

    run("ib-verbs", "ib-verbs.tpt.register_validate_ns", &mut || {
        let mem = HostMem::new(
            NodeId(1),
            PhysLayout {
                mean_run_bytes: 64 * 1024,
            },
            SimRng::new(8),
        );
        let buf = mem.alloc(s.io as u64);
        let mut tpt = Tpt::new(SimRng::new(7));
        let now = SimTime::from_nanos(1);
        per_call(65_536, |n| {
            for _ in 0..n {
                let rkey = tpt.insert(
                    buf.clone(),
                    buf.addr(),
                    s.io as u64,
                    Access::REMOTE_WRITE,
                    now,
                );
                let hit = tpt.check_remote(
                    rkey,
                    buf.addr(),
                    s.io as u64,
                    RemoteOp::Write,
                    now,
                    |_, _| None,
                );
                black_box(hit.expect("registered range validates"));
                tpt.invalidate(rkey, now);
            }
        })
    });

    run("fs-backend", "fs-backend.memstore.rw_ns", &mut || {
        let store = MemStore::default();
        let io = s.io as u64;
        let file = FileId(9);
        per_call(16_384, |n| {
            for i in 0..n {
                let off = (i % 64) * io;
                ready(store.write(file, off, Payload::synthetic(i | 1, io)));
                black_box(ready(store.read_sg(file, off, io)));
            }
        })
    });

    out
}
