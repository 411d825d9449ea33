//! The RPC/RDMA server engine.
//!
//! Models the OpenSolaris architecture of the paper's Figure 1: the
//! interrupt handler feeds a serialized server task queue; worker
//! "threads" (tasks) then run the NFS operation. The two designs
//! diverge on the reply path:
//!
//! * **Read-Write**: bulk results are RDMA-written into the client's
//!   Write/Reply chunks, then the RPC Reply is sent. InfiniBand's
//!   Write→Send ordering guarantees placement, so the server never
//!   waits on the writes; the *reply Send's completion* is the
//!   deregistration point (paper §4.2).
//! * **Read-Read**: bulk results are exposed via Read chunks in the
//!   reply; the buffers stay registered (and remotely readable!) until
//!   the client's `RDMA_DONE` — a malicious client can pin server
//!   memory indefinitely (§4.1), which `pending_exposures` makes
//!   measurable.
//!
//! NFS WRITE is identical in both designs: the server pulls the
//! client's Read chunks with RDMA Read and *blocks* until completion,
//! because a Send after a Read carries no ordering guarantee (§4.1).
//!
//! # Adversarial hardening
//!
//! Every inbound header passes [`crate::sanitize::sanitize_header`]
//! before the server allocates scratch or issues RDMA. Violations are
//! counted (`server.violations.*`), clamp the offender's per-connection
//! credit grant (halved per strike, restored after a streak of good
//! calls), and — past `VIOLATION_QUARANTINE` strikes — quarantine
//! the connection by forcing its QP into the error state. Honest
//! clients on other QPs keep their full windows. When
//! `cfg.exposure_ttl` is non-zero, a per-connection reaper
//! force-revokes Read-Read exposures whose `RDMA_DONE` never arrived,
//! bounding how long a client can pin server memory.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use ib_verbs::{Access, Hca, Opcode, Qp, Sge, WrId};
use onc_rpc::msg::{decode_call, encode_reply};
use onc_rpc::{AcceptStat, CallContext, DrcKey, DrcOutcome, DuplicateRequestCache, ReplyHeader};
use sim_core::stats::Counter;
use sim_core::sync::Semaphore;
use sim_core::{
    MetricsRegistry, Payload, Resource, SgList, Sim, SimDuration, SimTime, DEFAULT_CLASS,
};
use xdr::{Encoder, XdrCodec};

use crate::client::RFP_POLL_MAX;
use crate::config::{Design, RpcRdmaConfig};
use crate::header::{MsgType, RdmaHeader, ReadChunk, RfpAd, Segment};
use crate::qos::{ShedReason, TenantScheduler};
use crate::reg::{IoBuf, Registrar};
use crate::rfp::{encode_slot, encode_torn_marker, RingLayout};
use crate::router::CompletionRouter;
use crate::sanitize::{sanitize_header, ProtocolViolation};
use crate::service::RdmaService;

/// Good calls a clamped connection must complete before its credit
/// window doubles back toward the server's base grant.
const GOOD_OPS_PER_RESTORE: u32 = 8;

/// Executor scheduling class handler tasks run in under QoS. Nothing
/// spawns here unless `cfg.qos_enabled`, so default-configuration
/// schedules (and their pinned fingerprints) are untouched; with QoS
/// on, handler tasks interleave fairly with connection receive loops
/// instead of queueing behind whatever woke first.
const QOS_DISPATCH_CLASS: usize = 1;

/// Completed replies the duplicate request cache retains (bounded LRU;
/// evicted entries mean very late duplicates re-execute).
const DRC_CAPACITY: usize = 1024;

/// Protocol violations tolerated on one connection before the server
/// quarantines it (forces the QP into the error state, tearing down
/// only that client).
const VIOLATION_QUARANTINE: u32 = 8;

/// Handler tasks the dispatch gate lets run at once under QoS: the
/// server's effective service concurrency under overload. Small on
/// purpose: each handler occupies the serialized task queue when it
/// dispatches, so this bounds how much in-service work a backlogged
/// tenant can put in front of a just-arrived one — the fairness
/// harness's honest-p99 bound depends on it. Enough handlers remain to
/// cover per-op wire/CPU latency and keep the serial stage saturated.
const QOS_WORKERS: u64 = 8;

/// Calls the QoS queue holds across all tenants before enqueue itself
/// sheds (busy reply, no dispatch).
const QOS_QUEUE_CAP: u32 = 256;

/// Calls one tenant may hold in the QoS queue before its surplus sheds
/// — hog isolation: one connection's burst cannot consume the shared
/// queue. Above half of it, the tenant's credit grant is clamped,
/// pushing back through flow control.
const QOS_TENANT_BACKLOG: u32 = 64;

/// CoDel-style sojourn target: a queued call older than this at
/// dispatch time is shed instead of serviced, so under sustained
/// overload the queue delay the server adds stays bounded.
const QOS_TARGET_DELAY: SimDuration = SimDuration::from_millis(2);

/// Largest wire-format reply (RPC/RDMA header plus inline body) the
/// server deposits into an RFP reply slot; anything bigger takes the
/// Send path. Each slot also carries the seqlock frame
/// ([`crate::rfp::SLOT_OVERHEAD`]) on top of this payload budget.
const RFP_SLOT_SIZE: u64 = 512;

/// Slots in a connection's RFP reply ring (raised to the credit window
/// if smaller, so no in-flight call is assigned another's
/// `xid % nslots` slot).
const RFP_SLOTS: u32 = 64;

/// Backstop for doorbell batching (depth > 1 only): a reply posted
/// without filling the batch rings at most this much later
/// ([`Qp::ring_within`]), so concurrent ops posting within the window
/// share the doorbell. The latency each op trades for the shared ring.
pub const DOORBELL_FLUSH: SimDuration = SimDuration::from_micros(32);

/// Server-side statistics (shared across connections). The counters
/// are this server's instances of the `server.*` registry series, so
/// a cluster's primary and backup each see only their own events while
/// the registry reports the sum; the plain cells are gauges.
pub struct ServerStats {
    /// Operations dispatched.
    pub ops: Rc<Counter>,
    /// Bulk bytes pulled from clients (WRITE path).
    pub bulk_in: Rc<Counter>,
    /// Bulk bytes pushed/exposed to clients (READ path).
    pub bulk_out: Rc<Counter>,
    /// `RDMA_DONE` messages processed (Read-Read design).
    pub dones: Rc<Counter>,
    /// `RDMA_MSGP` padded-inline messages received.
    pub msgp_recvs: Rc<Counter>,
    /// Exposed buffers currently awaiting `RDMA_DONE` — a resource the
    /// client controls (§4.1 "Malicious or Malfunctioning clients").
    pub exposures_pending: Cell<u64>,
    /// Server-side staging copies, bytes.
    pub copied_bytes: Rc<Counter>,
    /// READ reply bytes gathered straight from file-system pages onto
    /// the wire (no staging write): the zero-copy pipeline's output.
    pub zero_copy_bytes: Rc<Counter>,
    /// WRITE bytes pulled from clients and handed to the file system
    /// as scatter pieces (no flattening, no staging copy): the
    /// receive-side scatter pipeline's output, mirroring
    /// [`ServerStats::zero_copy_bytes`] on the READ side.
    pub write_zero_copy_bytes: Rc<Counter>,
    /// Handler tasks running: the dispatch gate's count, raised when a
    /// call starts and lowered when its task exits (a task that drains
    /// queued calls counts once throughout).
    pub inflight: Cell<u64>,
    /// High-water mark of `inflight`.
    pub peak_inflight: Cell<u64>,
    /// Retransmitted calls answered from the duplicate request cache
    /// (or parked on an in-progress original) instead of re-executing.
    pub drc_replays: Rc<Counter>,
    /// DRC replays served from the *previous* service epoch: calls
    /// first executed on a failed primary and retransmitted to this
    /// server after its promotion (subset of `drc_replays`).
    pub cross_epoch_replays: Rc<Counter>,
    /// Protocol violations detected by the chunk-list sanitizer (all
    /// connections, all kinds).
    pub violations: Rc<Counter>,
    /// Connections quarantined (QP forced to the error state) after
    /// exhausting their violation budget.
    pub quarantines: Rc<Counter>,
    /// Times a connection's credit grant was halved under violation
    /// pressure.
    pub credit_clamps: Rc<Counter>,
    /// Times a hogging tenant's credit grant was halved by the QoS
    /// queue (the other half of the clamps a client observes).
    pub qos_credit_clamps: Rc<Counter>,
    /// Read-Read exposures force-revoked by the TTL reaper because the
    /// client never sent `RDMA_DONE`.
    pub exposures_revoked: Rc<Counter>,
    /// Calls that found every handler busy and waited in the QoS
    /// dispatch queue.
    pub qos_enqueued: Rc<Counter>,
    /// Queued calls a handler task went on to service.
    pub qos_dispatched: Rc<Counter>,
    /// Arrivals shed because the QoS queue was full.
    pub qos_shed_queue_full: Rc<Counter>,
    /// Arrivals shed because their tenant's backlog cap was reached.
    pub qos_shed_tenant_backlog: Rc<Counter>,
    /// Queued calls shed because their sojourn passed the target delay.
    pub qos_shed_deadline: Rc<Counter>,
    /// High-water mark of the QoS dispatch queue depth (calls that
    /// waited; 0 if every call started on arrival).
    pub qos_peak_depth: Cell<u64>,
    /// Small replies deposited into reply-slot rings instead of being
    /// sent (RFP fast path): each one is a server doorbell, a send
    /// completion and a client interrupt that never happened.
    pub rfp_deposits: Rc<Counter>,
    /// RFP-marked calls whose reply went out on the Send path anyway
    /// (reply too large for a slot, ring revoked mid-call, or the ring
    /// was never advertised on this connection).
    pub rfp_fallback_sends: Rc<Counter>,
    /// Reply-slot ring advertisements piggybacked on Send replies.
    pub rfp_ads: Rc<Counter>,
    /// Reply-slot rings revoked (idle past the exposure TTL, or at
    /// connection teardown) — each one invalidates the advertised
    /// steering tag, so later fetches are refused by the HCA.
    pub rfp_rings_revoked: Rc<Counter>,
}

impl ServerStats {
    fn new(reg: &MetricsRegistry) -> ServerStats {
        ServerStats {
            ops: reg.instance("server.ops"),
            bulk_in: reg.instance("server.bulk_in"),
            bulk_out: reg.instance("server.bulk_out"),
            dones: reg.instance("server.dones"),
            msgp_recvs: reg.instance("server.msgp_recvs"),
            exposures_pending: Cell::new(0),
            copied_bytes: reg.instance("server.copied_bytes"),
            zero_copy_bytes: reg.instance("server.read.zero_copy_bytes"),
            write_zero_copy_bytes: reg.instance("server.write.zero_copy_bytes"),
            inflight: Cell::new(0),
            peak_inflight: Cell::new(0),
            drc_replays: reg.instance("server.drc.replays"),
            cross_epoch_replays: reg.instance("server.drc.cross_epoch_replays"),
            violations: reg.instance("server.violations.total"),
            quarantines: reg.instance("server.quarantines"),
            credit_clamps: reg.instance("server.credit_clamps"),
            qos_credit_clamps: reg.instance("server.qos.credit_clamps"),
            exposures_revoked: reg.instance("server.exposures.revoked"),
            qos_enqueued: reg.instance("server.qos.enqueued"),
            qos_dispatched: reg.instance("server.qos.dispatched"),
            qos_shed_queue_full: reg.instance("server.qos.shed.queue_full"),
            qos_shed_tenant_backlog: reg.instance("server.qos.shed.tenant_backlog"),
            qos_shed_deadline: reg.instance("server.qos.shed.deadline"),
            qos_peak_depth: Cell::new(0),
            rfp_deposits: reg.instance("server.rfp.deposits"),
            rfp_fallback_sends: reg.instance("server.rfp.fallback_sends"),
            rfp_ads: reg.instance("server.rfp.ads"),
            rfp_rings_revoked: reg.instance("server.rfp.rings_revoked"),
        }
    }

    /// Calls shed by the overload controller (answered with a
    /// retryable busy reply instead of being serviced), all reasons.
    pub fn sheds(&self) -> u64 {
        self.qos_shed_queue_full.get()
            + self.qos_shed_tenant_backlog.get()
            + self.qos_shed_deadline.get()
    }

    /// Credit-window halvings of either cause: violation pressure and
    /// QoS hog pressure.
    pub fn all_credit_clamps(&self) -> u64 {
        self.credit_clamps.get() + self.qos_credit_clamps.get()
    }
}

/// One admitted call: handed to a handler task on arrival, or parked
/// in the dispatch queue until one is free.
struct QueuedCall {
    hdr: RdmaHeader,
    body: Bytes,
    qp: Qp,
    conn: Rc<ConnState>,
    /// Arrival instant; a handler sheds a queued call if its sojourn
    /// exceeds [`QOS_TARGET_DELAY`] (CoDel-style).
    enq: SimTime,
}

/// The server's one admission path (Figure 1's route from the
/// interrupt handler to the task queue): every call runs in a handler
/// task, at most `limit` of them at once; a call arriving past the
/// limit waits in the per-tenant fair queue, and each handler drains
/// that queue before it exits. With QoS off the limit is unbounded, so
/// every call starts on arrival and the queue stays empty.
struct Dispatch {
    sched: TenantScheduler<QueuedCall>,
    /// Handler tasks allowed to run at once.
    limit: u64,
    /// Executor scheduling class the handler tasks run in.
    class: usize,
}

/// A server endpoint shared by all client connections: the service,
/// the serialized task queue, and counters.
pub struct RdmaRpcServer {
    sim: Sim,
    hca: Hca,
    service: Rc<dyn RdmaService>,
    registrar: Registrar,
    cfg: RpcRdmaConfig,
    /// The serialized RPC task queue of Figure 1.
    taskq: Resource,
    /// Credits granted to clients in every reply header (dynamic flow
    /// control — the paper's stated future work). Starts at the
    /// configured window; lower it under memory pressure and clients
    /// shrink their outstanding-call windows on the next reply.
    credit_grant: Cell<u32>,
    /// Duplicate request cache: retransmitted calls (same peer + XID)
    /// replay the original dispatch instead of re-executing it.
    drc: DuplicateRequestCache<crate::service::RdmaDispatch>,
    /// Service epoch qualifying DRC keys. 0 for a standalone server;
    /// a replicated cluster bumps it when this server is promoted, and
    /// calls that miss the current epoch probe the previous one so
    /// retransmissions across a failover replay instead of re-executing.
    service_epoch: Cell<u32>,
    /// The dispatch gate; `cfg.qos_enabled` bounds it (overload
    /// control: fair queueing and shedding).
    dispatch: Dispatch,
    /// Statistics.
    pub stats: Rc<ServerStats>,
}

impl RdmaRpcServer {
    /// Create the server endpoint.
    pub fn new(
        sim: &Sim,
        hca: &Hca,
        service: Rc<dyn RdmaService>,
        registrar: Registrar,
        cfg: RpcRdmaConfig,
    ) -> Rc<RdmaRpcServer> {
        let drc = DuplicateRequestCache::new(DRC_CAPACITY);
        drc.bind_metrics(&sim.metrics(), "server.drc");
        let registry = sim.metrics();
        let (limit, class) = if cfg.qos_enabled {
            (QOS_WORKERS, QOS_DISPATCH_CLASS)
        } else {
            (u64::MAX, DEFAULT_CLASS)
        };
        Rc::new(RdmaRpcServer {
            sim: sim.clone(),
            hca: hca.clone(),
            service,
            registrar,
            cfg,
            taskq: Resource::new(sim, "rpc-taskq", 1),
            credit_grant: Cell::new(cfg.credits),
            drc,
            service_epoch: Cell::new(0),
            dispatch: Dispatch {
                sched: TenantScheduler::new(QOS_QUEUE_CAP, QOS_TENANT_BACKLOG),
                limit,
                class,
            },
            stats: Rc::new(ServerStats::new(&registry)),
        })
    }

    /// The serialized task-queue resource (for utilization reports).
    pub fn taskq(&self) -> &Resource {
        &self.taskq
    }

    /// Change the credit grant carried in subsequent reply headers.
    /// Clamped to `[1, cfg.credits]` (the receive pool is sized for the
    /// configured window).
    pub fn set_credit_grant(&self, credits: u32) {
        self.credit_grant.set(credits.clamp(1, self.cfg.credits));
    }

    /// The grant currently in force.
    pub fn credit_grant(&self) -> u32 {
        self.credit_grant.get()
    }

    /// Set a tenant's weight in the QoS dispatch queue (dispatches per
    /// fair-queue visit while backlogged; clamped to ≥ 1). No effect
    /// when QoS is disabled: no call ever queues. Tenants are keyed by
    /// peer node id.
    pub fn set_tenant_weight(&self, peer: u32, weight: u32) {
        self.dispatch.sched.set_weight(peer, weight);
    }

    /// Calls currently parked in the QoS dispatch queue (always 0 when
    /// QoS is disabled) — the telemetry probe's queue-depth series.
    pub fn qos_depth(&self) -> u32 {
        self.dispatch.sched.queued()
    }

    /// The duplicate request cache (diagnostics).
    pub fn drc(&self) -> &DuplicateRequestCache<crate::service::RdmaDispatch> {
        &self.drc
    }

    /// The service epoch qualifying DRC keys (0 = standalone).
    pub fn service_epoch(&self) -> u32 {
        self.service_epoch.get()
    }

    /// Install a new service epoch (promotion). New calls key the DRC
    /// under this epoch; misses probe `epoch - 1` so the completed-
    /// reply window carried over from the failed primary still replays.
    pub fn set_service_epoch(&self, epoch: u32) {
        self.service_epoch.set(epoch);
    }

    /// Mirror a completed reply into the DRC under an explicit epoch —
    /// how a backup installs the primary's completed-reply window entry
    /// for every replicated record it applies. `trace` is the original
    /// execution's context (carried on the replication record), so a
    /// replay served from this mirrored entry after a promotion still
    /// links to the execution on the failed primary.
    pub fn import_reply(
        &self,
        peer: u32,
        xid: u32,
        epoch: u32,
        head: Bytes,
        trace: sim_core::TraceCtx,
    ) {
        let mut dispatch = crate::service::RdmaDispatch::success(head, None);
        dispatch.trace = trace;
        self.drc
            .insert_completed(DrcKey { peer, xid, epoch }, &dispatch);
    }

    /// Attach one accepted connection (a connected QP) and serve it.
    pub fn serve_connection(self: &Rc<Self>, qp: Qp) {
        let server = self.clone();
        self.sim.clone().spawn(async move {
            connection_loop(server, qp).await;
        });
    }
}

/// A Read-Read exposure awaiting the client's `RDMA_DONE`: the buffers
/// plus the time they went on the wire, so the TTL reaper can tell how
/// long the client has been sitting on them.
struct Exposure {
    since: SimTime,
    bufs: Vec<IoBuf>,
}

struct ConnState {
    wr_counter: Cell<u64>,
    /// Read-Read design: xid -> buffers exposed until RDMA_DONE.
    pending_exposures: RefCell<HashMap<u32, Exposure>>,
    router: CompletionRouter,
    /// Per-connection scratch for assembling outgoing reply wire
    /// messages (header + inline body) without steady-state allocation.
    send_scratch: RefCell<Encoder>,
    /// Per-connection credit grant: starts at the server's base grant,
    /// halves on every protocol violation, doubles back after a streak
    /// of clean calls. Never exceeds the server-wide grant.
    granted: Cell<u32>,
    /// Violations charged to this connection (never resets — the
    /// quarantine budget is for the connection's lifetime).
    violations: Cell<u32>,
    /// Consecutive clean calls since the last violation.
    good_streak: Cell<u32>,
    /// Set at teardown so the exposure reaper exits.
    closed: Cell<bool>,
    /// Calls dispatched and not yet completed. The server *enforces*
    /// its credit grant: a call arriving past the window is dropped
    /// and charged as a violation instead of being dispatched, so
    /// credit overcommit never buys server CPU.
    in_flight: Cell<u32>,
    /// Wakes the exposure reaper when a new exposure is created (or at
    /// teardown). The reaper parks on this while the connection has no
    /// pending exposures — an idle timer loop would keep the whole
    /// simulation from ever quiescing.
    exposure_signal: Semaphore,
    /// The RFP reply-slot ring, once built (`cfg.rfp_enabled` only).
    rfp: RefCell<Option<RfpRing>>,
    /// Ring construction in progress (registration awaits); calls
    /// arriving meanwhile just reply without an advertisement.
    rfp_building: Cell<bool>,
    /// The *current* ring's ad has been carried on a Send reply.
    /// Deposits are gated on this: a reply must never go into a ring
    /// the client was never told about — it would simply never arrive.
    rfp_ad_sent: Cell<bool>,
    /// Wakes the ring reaper when a ring is created (or at teardown);
    /// it parks here while the connection has no ring.
    rfp_signal: Semaphore,
}

/// A connection's RFP reply-slot ring: registered, remotely readable
/// memory the server deposits small marshalled replies into, plus the
/// generation bookkeeping and the advertisement sent to the client.
struct RfpRing {
    io: IoBuf,
    layout: RingLayout,
    ad: RfpAd,
    /// Last deposit (or creation) instant; the ring reaper revokes a
    /// ring that has idled past the exposure TTL.
    last_activity: Cell<SimTime>,
}

impl ConnState {
    fn alloc_wr(&self) -> WrId {
        let id = self.wr_counter.get();
        self.wr_counter.set(id + 1);
        WrId(id)
    }
}

/// Charge `v` to this connection: count it, clamp the connection's
/// credit window, and quarantine the QP once the violation budget is
/// spent. Never touches other connections.
fn note_violation(server: &Rc<RdmaRpcServer>, conn: &ConnState, qp: &Qp, v: ProtocolViolation) {
    server.sim.trace("rpc", || {
        format!("server violation peer={} {}", qp.peer_node().0, v)
    });
    server.stats.violations.inc();
    server
        .sim
        .metrics()
        .counter(&format!("server.violations.{}", v.metric_key()))
        .inc();
    conn.good_streak.set(0);
    let g = conn.granted.get();
    if g > 1 {
        conn.granted.set((g / 2).max(1));
        server.stats.credit_clamps.inc();
    }
    let strikes = conn.violations.get() + 1;
    conn.violations.set(strikes);
    if strikes >= VIOLATION_QUARANTINE && !conn.closed.get() {
        server.sim.trace("rpc", || {
            format!(
                "server quarantine peer={} after {strikes} violations",
                qp.peer_node().0
            )
        });
        server.stats.quarantines.inc();
        server.sim.flight(
            "server",
            "quarantine",
            qp.peer_node().0 as u64,
            strikes as u64,
        );
        qp.force_error();
    }
}

/// A clean call completed: walk the connection's credit window back up
/// toward the server's base grant, one doubling per
/// [`GOOD_OPS_PER_RESTORE`] streak.
fn note_good_op(server: &RdmaRpcServer, conn: &ConnState) {
    let base = server.credit_grant.get();
    if conn.granted.get() >= base {
        conn.good_streak.set(0);
        return;
    }
    let streak = conn.good_streak.get() + 1;
    if streak >= GOOD_OPS_PER_RESTORE {
        conn.good_streak.set(0);
        conn.granted
            .set((conn.granted.get().saturating_mul(2)).min(base));
    } else {
        conn.good_streak.set(streak);
    }
}

async fn connection_loop(server: Rc<RdmaRpcServer>, qp: Qp) {
    let cfg = server.cfg;
    // Doorbell batching on the server's send side: WQEs queue in
    // software and one doorbell flushes the batch. Safe because every
    // path below flushes before awaiting a completion.
    qp.set_doorbell_batch(cfg.server_doorbell_batch);
    // Receive buffers: a doubled credit window per connection (calls
    // plus RDMA_DONEs).
    let mut recv_bufs = Vec::new();
    for i in 0..(cfg.credits as u64 * 2) {
        let buf = server.hca.mem().alloc(cfg.recv_buffer_size);
        if qp
            .post_recv(buf.clone(), 0, cfg.recv_buffer_size, WrId(i))
            .is_err()
        {
            return;
        }
        recv_bufs.push(buf);
    }
    let conn = Rc::new(ConnState {
        wr_counter: Cell::new(1 << 40),
        pending_exposures: RefCell::new(HashMap::new()),
        router: CompletionRouter::spawn(&server.sim, qp.send_cq().clone()),
        send_scratch: RefCell::new(Encoder::with_capacity(256)),
        granted: Cell::new(server.credit_grant.get()),
        violations: Cell::new(0),
        good_streak: Cell::new(0),
        closed: Cell::new(false),
        in_flight: Cell::new(0),
        exposure_signal: Semaphore::new(0),
        rfp: RefCell::new(None),
        rfp_building: Cell::new(false),
        rfp_ad_sent: Cell::new(false),
        rfp_signal: Semaphore::new(0),
    });
    if cfg.exposure_ttl > SimDuration::ZERO {
        spawn_reaper(&server, &conn, Reap::Exposures);
        if cfg.rfp_enabled {
            spawn_reaper(&server, &conn, Reap::RfpRing);
        }
    }

    loop {
        let c = qp.recv_cq().next().await;
        if c.opcode != Opcode::Recv || c.result.is_err() {
            break; // connection torn down
        }
        let idx = c.wr_id.0 as usize;
        if idx < recv_bufs.len() {
            let _ = qp.post_recv(recv_bufs[idx].clone(), 0, cfg.recv_buffer_size, c.wr_id);
        }
        let Some(payload) = c.payload else { continue };
        let raw = payload.materialize();
        let mut dec = xdr::Decoder::new(&raw);
        let Ok(hdr) = RdmaHeader::decode(&mut dec) else {
            // Byte soup where a header should be: charge the sender.
            note_violation(&server, &conn, &qp, ProtocolViolation::GarbageHeader);
            continue;
        };
        // Sanitize every client-advertised chunk list *before* any
        // allocation or RDMA is issued on its behalf.
        if let Err(v) = sanitize_header(&hdr, &cfg) {
            note_violation(&server, &conn, &qp, v);
            continue;
        }
        let at = dec.position();
        let body = raw.slice(at..);

        match hdr.msg_type {
            MsgType::Done => {
                // Read-Read: the client is done pulling; release the
                // exposed buffers (finally paying deregistration).
                let exp = conn.pending_exposures.borrow_mut().remove(&hdr.xid);
                if let Some(exp) = exp {
                    server.stats.dones.inc();
                    server
                        .stats
                        .exposures_pending
                        .set(server.stats.exposures_pending.get() - exp.bufs.len() as u64);
                    let registrar = server.registrar.clone();
                    server.sim.spawn(async move {
                        for io in exp.bufs {
                            registrar.release(io).await;
                        }
                    });
                }
            }
            // A client never sends `MsgRfpAd`; the sanitizer rejected
            // it above, so this arm is unreachable.
            MsgType::MsgRfpAd => {}
            MsgType::Msg | MsgType::Nomsg | MsgType::Msgp | MsgType::MsgRfp => {
                // Enforce the credit window: the base grant bounds how
                // many calls any client may have in flight, whatever it
                // chooses to believe about its credits.
                let window = server.credit_grant.get();
                if conn.in_flight.get() >= window {
                    note_violation(
                        &server,
                        &conn,
                        &qp,
                        ProtocolViolation::WindowExceeded {
                            in_flight: conn.in_flight.get() + 1,
                            window,
                        },
                    );
                    continue;
                }
                conn.in_flight.set(conn.in_flight.get() + 1);
                admit(
                    &server,
                    QueuedCall {
                        hdr,
                        body,
                        qp: qp.clone(),
                        conn: conn.clone(),
                        enq: server.sim.now(),
                    },
                );
            }
        }
    }
    // Teardown: ring out anything still sitting in the software send
    // queue so no WQE is silently dropped by the batching layer.
    qp.flush();
    // The peer can no longer send RDMA_DONE on this QP. The
    // rkeys of every still-exposed buffer were advertised to that peer,
    // so *revoke* them (registration dropped, ledger records it) rather
    // than release them — a parked cache entry with a live registration
    // the dead peer knows about would be a standing leak.
    conn.closed.set(true);
    conn.exposure_signal.add_permits(1); // unpark the reaper so it exits
    conn.rfp_signal.add_permits(1);
    // The reply-slot ring's rkey was advertised to the dead peer:
    // revoke it like any other outstanding exposure.
    let ring = conn.rfp.borrow_mut().take();
    if let Some(ring) = ring {
        revoke_ring(&server, &conn, ring).await;
    }
    let leftover: Vec<Exposure> = conn
        .pending_exposures
        .borrow_mut()
        .drain()
        .map(|(_, exp)| exp)
        .collect();
    for exp in leftover {
        revoke_exposure(&server, exp).await;
    }
}

/// What a per-connection reaper revokes. The TPT ledger records each
/// invalidation as a revocation, so an attack (and the defense) shows
/// up in `tpt.revocations`.
#[derive(Clone, Copy)]
enum Reap {
    /// Read-Read exposures whose `RDMA_DONE` is a TTL overdue.
    Exposures,
    /// The RFP reply-slot ring, once the connection has gone fully idle:
    /// no calls in flight and no deposit for an exposure TTL *plus two
    /// poll periods*. The margin covers the largest gap between a
    /// deposit and the honest client's final backed-off fetch, so a
    /// well-behaved client can never have a fetch refused; the next
    /// inline reply re-advertises a fresh ring.
    RfpRing,
}

/// Spawn a per-connection reaper (gated on `cfg.exposure_ttl`): every
/// quarter-TTL it revokes what `watch` names as expired. With nothing
/// to watch it parks on the watched signal — an idle timer loop would
/// keep the whole simulation from ever quiescing — and it exits at
/// teardown.
fn spawn_reaper(server: &Rc<RdmaRpcServer>, conn: &Rc<ConnState>, watch: Reap) {
    let server = server.clone();
    let conn = conn.clone();
    let ttl = server.cfg.exposure_ttl;
    let tick = (ttl / 4).max(SimDuration::from_micros(1));
    let sim = server.sim.clone();
    sim.clone().spawn(async move {
        loop {
            if conn.closed.get() {
                break;
            }
            let (idle, signal) = match watch {
                Reap::Exposures => (
                    conn.pending_exposures.borrow().is_empty(),
                    &conn.exposure_signal,
                ),
                Reap::RfpRing => (conn.rfp.borrow().is_none(), &conn.rfp_signal),
            };
            if idle {
                signal.acquire().await.forget();
                continue;
            }
            sim.sleep(tick).await;
            if conn.closed.get() {
                break;
            }
            let now = sim.now();
            match watch {
                Reap::Exposures => {
                    let expired: Vec<(u32, Exposure)> = {
                        let mut map = conn.pending_exposures.borrow_mut();
                        let overdue: Vec<u32> = map
                            .iter()
                            .filter(|(_, exp)| now - exp.since >= ttl)
                            .map(|(xid, _)| *xid)
                            .collect();
                        overdue
                            .into_iter()
                            .map(|xid| (xid, map.remove(&xid).expect("overdue exposure")))
                            .collect()
                    };
                    for (xid, exp) in expired {
                        server.sim.trace("rpc", || {
                            format!(
                                "server exposure ttl-revoke xid={xid} bufs={}",
                                exp.bufs.len()
                            )
                        });
                        revoke_exposure(&server, exp).await;
                    }
                }
                Reap::RfpRing => {
                    let idle = ttl + RFP_POLL_MAX * 2;
                    let expired =
                        conn.in_flight.get() == 0
                            && conn.rfp.borrow().as_ref().is_some_and(|r| {
                                now.saturating_since(r.last_activity.get()) >= idle
                            });
                    let ring = expired.then(|| conn.rfp.borrow_mut().take()).flatten();
                    if let Some(ring) = ring {
                        revoke_ring(&server, &conn, ring).await;
                    }
                }
            }
        }
    });
}

/// Revoke an exposure's buffers: their rkeys were advertised, so the
/// registrations are invalidated (ledger revocations), not released.
async fn revoke_exposure(server: &RdmaRpcServer, exp: Exposure) {
    let pending = &server.stats.exposures_pending;
    pending.set(pending.get() - exp.bufs.len() as u64);
    for io in exp.bufs {
        server.stats.exposures_revoked.inc();
        server.registrar.revoke(io).await;
    }
}

/// Build the connection's reply-slot ring if it doesn't exist yet:
/// one registered, remotely readable buffer of [`RFP_SLOTS`] seqlock
/// slots (at least the credit window, so concurrent in-flight calls
/// never share a slot). Registration strategies that fan the range
/// out into multiple segments (all-physical) can't be described by a
/// single advertisement, so RFP quietly stays off there.
async fn ensure_rfp_ring(server: &Rc<RdmaRpcServer>, conn: &Rc<ConnState>) {
    if conn.rfp.borrow().is_some() || conn.rfp_building.get() || conn.closed.get() {
        return;
    }
    conn.rfp_building.set(true);
    let nslots = RFP_SLOTS.max(server.cfg.credits);
    let layout = RingLayout::new(nslots, RFP_SLOT_SIZE);
    let io = server
        .registrar
        .acquire_scratch(layout.ring_bytes(), Access::REMOTE_READ)
        .await;
    let segs = io.segments(0, layout.ring_bytes(), &server.hca);
    if conn.closed.get() || segs.len() != 1 {
        server.registrar.release(io).await;
        conn.rfp_building.set(false);
        return;
    }
    let ad = RfpAd {
        seg: segs[0],
        nslots: layout.nslots(),
        slot_size: layout.slot_size() as u32,
    };
    server.sim.trace("rpc", || {
        format!(
            "server rfp ring up nslots={} slot={}B rkey={:?}",
            ad.nslots, ad.slot_size, ad.seg.rkey
        )
    });
    *conn.rfp.borrow_mut() = Some(RfpRing {
        io,
        layout,
        ad,
        last_activity: Cell::new(server.sim.now()),
    });
    conn.rfp_building.set(false);
    conn.rfp_signal.add_permits(1);
}

/// Deposit a marshalled reply into the connection's reply-slot ring.
/// Seqlock discipline: the odd torn marker lands first, the host copy
/// of the reply bytes is the torn window, and the committed frame
/// (even generation) lands last — a concurrent fetch decodes Torn,
/// never a splice of two occupants. Returns `false` (caller falls
/// back to the Send path) if the ring is gone or the reply is too
/// large for a slot.
async fn deposit_reply(
    server: &Rc<RdmaRpcServer>,
    conn: &Rc<ConnState>,
    xid: u32,
    wire: &Bytes,
) -> bool {
    let len = wire.len() as u64;
    let (off, marker) = {
        let mut ring = conn.rfp.borrow_mut();
        let Some(ring) = ring.as_mut() else {
            return false;
        };
        if len > ring.layout.payload_cap() {
            return false;
        }
        let slot = ring.layout.slot_of(xid);
        let marker = ring.layout.begin_deposit(slot);
        let off = ring.layout.slot_offset(slot);
        ring.io.write(
            off,
            Payload::real(Bytes::copy_from_slice(&encode_torn_marker(marker))),
        );
        (off, marker)
    };
    // The copy into the ring is the deposit's only host cost — and the
    // torn window a racing fetch can land in.
    server.hca.cpu().copy(len).await;
    let mut ringref = conn.rfp.borrow_mut();
    let Some(ring) = ringref.as_mut() else {
        // Ring revoked mid-deposit (reaper/teardown): the caller's
        // Send fallback still delivers the reply.
        return false;
    };
    let slot = ring.layout.slot_of(xid);
    // A concurrent deposit can race into the same slot (an old-XID DRC
    // replay colliding with a newer call); if our marker is no longer
    // the current generation, re-begin so the parity discipline holds.
    if ring.layout.generation(slot) != marker {
        ring.layout.begin_deposit(slot);
    }
    let gen = ring.layout.commit_deposit(slot);
    ring.io
        .write(off, Payload::real(encode_slot(gen, xid, wire)));
    ring.last_activity.set(server.sim.now());
    drop(ringref);
    server.stats.rfp_deposits.inc();
    server
        .sim
        .trace("rpc", || format!("server rfp deposit xid={xid} len={len}"));
    true
}

/// Invalidate a reply-slot ring. The rkey was advertised to the peer,
/// so this is a *revocation* (TPT ledger invalidation, counted with
/// the other exposure revocations), not a quiet release: any fetch
/// arriving afterwards — honest straggler or replayed advertisement —
/// is refused by the HCA.
async fn revoke_ring(server: &Rc<RdmaRpcServer>, conn: &ConnState, ring: RfpRing) {
    conn.rfp_ad_sent.set(false);
    server.stats.rfp_rings_revoked.inc();
    server.stats.exposures_revoked.inc();
    server.sim.trace("rpc", || {
        format!("server rfp ring revoked rkey={:?}", ring.ad.seg.rkey)
    });
    server.registrar.revoke(ring.io).await;
}

/// Answer a shed call immediately with a retryable busy reply
/// (RFC 5531 `SYSTEM_ERR`), bypassing the duplicate request cache so a
/// later retransmission of the same XID executes fresh. Fire-and-
/// forget: shedding must stay cheap under exactly the load that
/// triggers it, so no taskq pass, no CPU charge, no completion wait —
/// just a small inline send.
fn shed_call(server: &Rc<RdmaRpcServer>, why: &'static str, call: QueuedCall) {
    let QueuedCall { hdr, qp, conn, .. } = call;
    let peer = qp.peer_node().0;
    server.sim.flight("qos", why, peer as u64, hdr.xid as u64);
    server.sim.trace("rpc", || {
        format!("server {why} peer={peer} xid={}", hdr.xid)
    });
    let reply = encode_reply(
        &ReplyHeader {
            xid: hdr.xid,
            stat: AcceptStat::SystemErr,
        },
        &Bytes::new(),
    );
    // Busy replies still carry the (possibly clamped) credit grant:
    // a shed client also learns to shrink its window.
    let grant = conn.granted.get().min(server.credit_grant.get());
    let rhdr = RdmaHeader::new(hdr.xid, grant, MsgType::Msg);
    let wire = {
        let mut enc = conn.send_scratch.borrow_mut();
        rhdr.encode_into(&mut enc);
        enc.put_raw(&reply);
        Bytes::copy_from_slice(enc.as_slice())
    };
    let _ = qp.post_send(Payload::real(wire), conn.alloc_wr(), false);
    qp.flush();
}

/// Admit a call through the dispatch gate: start it at once if a
/// handler slot is free, otherwise queue it in weighted fair order (or
/// shed it if its tenant's backlog or the whole queue is full).
fn admit(server: &Rc<RdmaRpcServer>, call: QueuedCall) {
    let gate = &server.dispatch;
    if server.stats.inflight.get() < gate.limit {
        start(server, call);
        return;
    }
    let conn = call.conn.clone();
    let peer = call.qp.peer_node().0;
    match gate.sched.enqueue(peer, call) {
        Ok(backlog) => {
            server.stats.qos_enqueued.inc();
            let depth = gate.sched.queued() as u64;
            if depth > server.stats.qos_peak_depth.get() {
                server.stats.qos_peak_depth.set(depth);
            }
            // Hog pressure: a tenant holding more than half its backlog
            // cap gets its credit grant halved, pushing back through
            // flow control before the hard cap sheds.
            if backlog > QOS_TENANT_BACKLOG / 2 {
                let g = conn.granted.get();
                if g > 1 {
                    conn.granted.set((g / 2).max(1));
                    server.stats.qos_credit_clamps.inc();
                    server
                        .sim
                        .flight("qos", "credit_clamp", peer as u64, backlog as u64);
                }
            }
        }
        Err((reason, call)) => {
            conn.in_flight.set(conn.in_flight.get() - 1);
            match reason {
                ShedReason::QueueFull => server.stats.qos_shed_queue_full.inc(),
                ShedReason::TenantBacklog => server.stats.qos_shed_tenant_backlog.inc(),
            }
            shed_call(server, "shed_arrival", call);
        }
    }
}

/// Spawn one handler task for `call`. The task services it, then keeps
/// taking queued calls until the queue is empty, and only then gives
/// its gate slot back — so a call waits only while `limit` handlers
/// are busy. Every admitted call passes through here: it is where
/// inline run-to-completion of small ops would plug in.
fn start(server: &Rc<RdmaRpcServer>, call: QueuedCall) {
    let stats = &server.stats;
    stats.inflight.set(stats.inflight.get() + 1);
    stats
        .peak_inflight
        .set(stats.peak_inflight.get().max(stats.inflight.get()));
    let server = server.clone();
    let sim = server.sim.clone();
    sim.spawn_class(server.dispatch.class, async move {
        let mut next = Some(call);
        while let Some(call) = next {
            let conn = call.conn.clone();
            handle_op(server.clone(), call).await;
            conn.in_flight.set(conn.in_flight.get() - 1);
            next = next_queued(&server);
        }
        server.stats.inflight.set(server.stats.inflight.get() - 1);
    });
}

/// The next queued call in weighted fair order, shedding any whose
/// queue sojourn already blew the CoDel-style target: answering "busy"
/// now is cheaper for everyone than servicing stale work the client
/// may have given up on.
fn next_queued(server: &Rc<RdmaRpcServer>) -> Option<QueuedCall> {
    while let Some((_, call)) = server.dispatch.sched.dequeue() {
        if server.sim.now() - call.enq > QOS_TARGET_DELAY {
            call.conn.in_flight.set(call.conn.in_flight.get() - 1);
            server.stats.qos_shed_deadline.inc();
            shed_call(server, "shed_deadline", call);
            continue;
        }
        server.stats.qos_dispatched.inc();
        return Some(call);
    }
    None
}

async fn handle_op(server: Rc<RdmaRpcServer>, call: QueuedCall) {
    let QueuedCall {
        hdr,
        body: inline_body,
        qp,
        conn,
        ..
    } = call;
    let peer = qp.peer_node().0;
    let cfg = server.cfg;
    let cpu = server.hca.cpu().clone();

    server.sim.trace("rpc", || {
        format!("server op xid={} type={:?}", hdr.xid, hdr.msg_type)
    });
    // Adopt the caller's trace context (stashed out-of-band under the
    // same (node, xid) key the client injected): the op span joins the
    // client's causal tree with a flow edge from the call span.
    let call_ctx = server
        .sim
        .trace_adopt(((peer as u64) << 32) | hdr.xid as u64);
    let _op_span = server.sim.span_remote("server", "op", None, call_ctx);
    {
        let _s = server.sim.span("server", "dispatch");
        // Figure 1: the serialized server task queue.
        server.taskq.use_for(cfg.server_op_serial).await;
        // Decode + dispatch bookkeeping on a CPU core.
        cpu.execute(cfg.per_op_server_cpu).await;
    }

    // ---- Pull read chunks (long call and/or WRITE payload). ---------
    let mut call_msg = inline_body;
    let mut bulk_in: Option<SgList> = None;
    if hdr.msg_type == MsgType::Msgp {
        // Padded inline: [head][padding][data]. The alignment means the
        // data was placed directly — no pull-up copy, no RDMA Read.
        // The sanitizer vetted the static shape; what remains is the
        // arithmetic against this message's actual length.
        let Some((align, head_len)) = hdr.msgp else {
            note_violation(&server, &conn, &qp, ProtocolViolation::BadMsgp);
            return;
        };
        let (align, head_len) = (align as usize, head_len as usize);
        if head_len > call_msg.len() || align == 0 {
            note_violation(&server, &conn, &qp, ProtocolViolation::BadMsgp);
            return;
        }
        let pad = (align - head_len % align) % align;
        let data_off = head_len + pad;
        if data_off > call_msg.len() {
            note_violation(&server, &conn, &qp, ProtocolViolation::BadMsgp);
            return;
        }
        let data = call_msg.slice(data_off..);
        server.stats.bulk_in.add(data.len() as u64);
        server.stats.msgp_recvs.inc();
        bulk_in = Some(SgList::from(Payload::real(data)));
        call_msg = call_msg.slice(..head_len);
    }
    {
        let _s = server.sim.span("server", "pull_chunks");
        let long_call: Vec<&ReadChunk> =
            hdr.read_chunks.iter().filter(|c| c.position == 0).collect();
        let data_chunks: Vec<&ReadChunk> =
            hdr.read_chunks.iter().filter(|c| c.position != 0).collect();
        if hdr.msg_type == MsgType::Nomsg && !long_call.is_empty() {
            let total: u64 = long_call.iter().map(|c| c.segment.len).sum();
            let io = pull_chunks(&server, &qp, &conn, &long_call).await;
            let Some(io) = io else { return };
            call_msg = io.read(0, total).materialize();
            cpu.copy(total).await; // header remainder is decoded/copied
            server.registrar.release(io).await;
        }
        if !data_chunks.is_empty() {
            let total: u64 = data_chunks.iter().map(|c| c.segment.len).sum();
            let io = pull_chunks(&server, &qp, &conn, &data_chunks).await;
            let Some(io) = io else { return };
            if server.registrar.is_staged() {
                // Data must move from the slab into the file system —
                // the Cache strategy's pre-registered bounce buffers are
                // the only path that still copies.
                bulk_in = Some(SgList::from(io.read(0, total)));
                cpu.copy(total).await;
                server.stats.copied_bytes.add(total);
            } else {
                // Receive-side scatter: each pulled chunk leaves the
                // window as its own refcounted piece and lands in the
                // file system (page-cache extents) as-is — no pull-up
                // copy, no flattening.
                bulk_in = Some(io.read_sg(0, total));
                server.stats.write_zero_copy_bytes.add(total);
            }
            server.stats.bulk_in.add(total);
            // Figure 4 points 8-9: server-side deregistration after the
            // file system is done with the data.
            server.registrar.release(io).await;
        }
    }

    // ---- Dispatch to the RPC program. --------------------------------
    let Ok((call_hdr, args)) = decode_call(call_msg) else {
        // An RPC message that does not decode is the same class of
        // hostility as an undecodable transport header.
        note_violation(&server, &conn, &qp, ProtocolViolation::GarbageHeader);
        return;
    };
    let mut cx = CallContext {
        peer,
        prog: call_hdr.prog,
        vers: call_hdr.vers,
        xid: call_hdr.xid,
        trace: sim_core::TraceCtx::NONE,
    };
    let wildcard = server.service.program() == onc_rpc::PROG_WILDCARD;
    // At-most-once: retransmitted calls (same peer + XID) replay the
    // original dispatch; duplicates of a call still executing park on
    // it. Only a genuinely new call reaches the service.
    let epoch = server.service_epoch.get();
    let key = DrcKey {
        peer,
        xid: call_hdr.xid,
        epoch,
    };
    // Cross-epoch fallback: after a promotion, a call the *failed*
    // primary already executed retransmits here with its original XID.
    // The replicated window carries those replies under the previous
    // epoch; replaying them keeps re-driven WRITEs exactly-once. Safe
    // to probe before admitting as new: clients allocate fresh XIDs
    // for re-driven writes, so an old-epoch hit is always a genuine
    // retransmission of an executed call.
    let prev_hit = (epoch > 0)
        .then(|| {
            server.drc.lookup_cached(DrcKey {
                peer,
                xid: call_hdr.xid,
                epoch: epoch - 1,
            })
        })
        .flatten();
    let dispatch = if let Some(dispatch) = prev_hit {
        server.stats.drc_replays.inc();
        server.stats.cross_epoch_replays.inc();
        server.sim.trace("rpc", || {
            format!("server drc cross-epoch replay xid={}", call_hdr.xid)
        });
        server
            .sim
            .flight("server", "xepoch_replay", peer as u64, call_hdr.xid as u64);
        // The retained dispatch carries the *original* execution's
        // context: the replay span flows from the service span that
        // ran on the failed primary, stitching the epochs together.
        let _s = server.sim.span_remote(
            "server",
            "drc_replay",
            Some(call_hdr.proc_num),
            dispatch.trace,
        );
        dispatch
    } else {
        match server.drc.begin(key) {
            DrcOutcome::New(slot) => {
                let mut dispatch = if !wildcard
                    && (call_hdr.prog != server.service.program()
                        || call_hdr.vers != server.service.version())
                {
                    crate::service::RdmaDispatch::error(onc_rpc::AcceptStat::ProgUnavail)
                } else {
                    let _s = server.sim.span_proc("server", "service", call_hdr.proc_num);
                    // The service sees the service span as its caller:
                    // replication records it ships inherit the client's
                    // trace id and flow from this span.
                    cx.trace = server.sim.current_ctx();
                    server
                        .service
                        .call(cx, call_hdr.proc_num, args, bulk_in)
                        .await
                };
                dispatch.trace = cx.trace;
                server.stats.ops.inc();
                note_good_op(&server, &conn);
                slot.fill(&dispatch);
                dispatch
            }
            DrcOutcome::Cached(dispatch) => {
                server.stats.drc_replays.inc();
                server
                    .sim
                    .trace("rpc", || format!("server drc replay xid={}", call_hdr.xid));
                let _s = server.sim.span_remote(
                    "server",
                    "drc_replay",
                    Some(call_hdr.proc_num),
                    dispatch.trace,
                );
                dispatch
            }
            DrcOutcome::InProgress(rx) => match rx.await {
                Ok(dispatch) => {
                    server.stats.drc_replays.inc();
                    server.sim.trace("rpc", || {
                        format!("server drc wait-replay xid={}", call_hdr.xid)
                    });
                    let _s = server.sim.span_remote(
                        "server",
                        "drc_replay",
                        Some(call_hdr.proc_num),
                        dispatch.trace,
                    );
                    dispatch
                }
                // The original aborted without replying; drop this copy too
                // and let the client's next retransmission execute afresh.
                Err(_) => return,
            },
        }
    };

    let mut reply_msg = encode_reply(
        &ReplyHeader {
            xid: call_hdr.xid,
            stat: dispatch.stat,
        },
        &dispatch.head,
    );
    // Read-Write long replies need a client-provisioned reply chunk; a
    // client that sent none gets an error reply instead of a stuck RPC
    // (kernel RPC/RDMA returns RDMA_ERROR here).
    if cfg.design == Design::ReadWrite
        && reply_msg.len() as u64 > cfg.inline_threshold
        && hdr.reply_chunk.is_none()
    {
        reply_msg = encode_reply(
            &ReplyHeader {
                xid: call_hdr.xid,
                stat: onc_rpc::AcceptStat::GarbageArgs,
            },
            &Bytes::new(),
        );
    }

    // The grant this client sees is its own (violation-clamped) window,
    // never more than the server-wide grant.
    let grant = conn.granted.get().min(server.credit_grant.get());
    let mut rhdr = RdmaHeader::new(call_hdr.xid, grant, MsgType::Msg);
    let mut to_release: Vec<IoBuf> = Vec::new();
    let mut to_expose: Vec<IoBuf> = Vec::new();

    match cfg.design {
        Design::ReadWrite => {
            // Bulk results: RDMA Write into the client's write chunk.
            if let Some(bulk) = &dispatch.bulk_out {
                if !hdr.write_chunks.is_empty() {
                    let _s = server.sim.span("server", "rdma_write");
                    let io = if server.registrar.is_staged() {
                        // Cache: bounce through the pre-registered slab.
                        let io = stage_source(&server, bulk, Access::LOCAL).await;
                        write_into_segments(&qp, &conn, &io, bulk.len(), &hdr.write_chunks[0]);
                        io
                    } else {
                        // Zero-copy: register a window over the source
                        // pages but gather the file-system slices
                        // straight into vectored Writes — no placement
                        // into scratch.
                        let io = server
                            .registrar
                            .acquire_scratch(bulk.len(), Access::LOCAL)
                            .await;
                        write_sg_into_segments(
                            &server,
                            &qp,
                            &conn,
                            &io,
                            bulk,
                            &hdr.write_chunks[0],
                        );
                        server.stats.zero_copy_bytes.add(bulk.len());
                        io
                    };
                    rhdr.write_chunks
                        .push(echo_actual(&hdr.write_chunks[0], bulk.len()));
                    server.stats.bulk_out.add(bulk.len());
                    to_release.push(io);
                }
            }
            // Long reply via the client's reply chunk.
            if reply_msg.len() as u64 > cfg.inline_threshold {
                let Some(reply_segs) = hdr.reply_chunk.as_ref() else {
                    return; // client provisioned no reply chunk: drop
                };
                let payload = SgList::from(Payload::real(reply_msg.clone()));
                let io = stage_source(&server, &payload, Access::LOCAL).await;
                write_into_segments(&qp, &conn, &io, payload.len(), reply_segs);
                rhdr.msg_type = MsgType::Nomsg;
                rhdr.reply_chunk = Some(echo_actual(reply_segs, payload.len()));
                to_release.push(io);
            }
        }
        Design::ReadRead => {
            // Bulk results: expose and let the client pull.
            if let Some(bulk) = &dispatch.bulk_out {
                let io = stage_source(&server, bulk, Access::REMOTE_READ).await;
                let position = reply_msg.len() as u32;
                for seg in io.segments(0, bulk.len(), &server.hca) {
                    rhdr.read_chunks.push(ReadChunk {
                        position,
                        segment: seg,
                    });
                }
                server.stats.bulk_out.add(bulk.len());
                to_expose.push(io);
            }
            if reply_msg.len() as u64 > cfg.inline_threshold {
                // Long reply: expose the whole RPC message (position 0).
                let payload = SgList::from(Payload::real(reply_msg.clone()));
                let io = stage_source(&server, &payload, Access::REMOTE_READ).await;
                for seg in io.segments(0, payload.len(), &server.hca) {
                    rhdr.read_chunks.push(ReadChunk {
                        position: 0,
                        segment: seg,
                    });
                }
                rhdr.msg_type = MsgType::Nomsg;
                to_expose.push(io);
            }
        }
    }

    // ---- RFP reply-slot fast path. ------------------------------------
    // A small chunkless reply can be *deposited* into the reply-slot
    // ring for the client to fetch, skipping the Send entirely; any
    // other inline reply piggybacks the ring advertisement so the
    // client learns (or refreshes) the ring's steering tag.
    let mut rfp_deposit = false;
    if cfg.rfp_enabled {
        ensure_rfp_ring(&server, &conn).await;
        if rhdr.msg_type == MsgType::Msg
            && rhdr.read_chunks.is_empty()
            && rhdr.write_chunks.is_empty()
            && rhdr.reply_chunk.is_none()
        {
            let have_ring = conn.rfp.borrow().is_some();
            if have_ring {
                if hdr.msg_type == MsgType::MsgRfp && conn.rfp_ad_sent.get() {
                    rfp_deposit = true;
                } else {
                    // Unmarked call (or a marked retransmission onto a
                    // connection that never advertised — e.g. after
                    // client recovery): reply via Send, ad attached.
                    let ad = conn.rfp.borrow().as_ref().map(|r| r.ad);
                    if let Some(ad) = ad {
                        rhdr.msg_type = MsgType::MsgRfpAd;
                        rhdr.rfp_ad = Some(ad);
                        conn.rfp_ad_sent.set(true);
                        server.stats.rfp_ads.inc();
                    }
                }
            }
        }
    }

    // ---- Send the RPC Reply. ------------------------------------------
    let inline: Bytes = if rhdr.msg_type == MsgType::Nomsg {
        Bytes::new()
    } else {
        reply_msg
    };
    // Header + inline body assembled in the connection's scratch
    // encoder; the single copy out models staging into the registered
    // inline send buffer.
    let (wire, wire_len) = {
        let mut enc = conn.send_scratch.borrow_mut();
        rhdr.encode_into(&mut enc);
        enc.put_raw(&inline);
        (Bytes::copy_from_slice(enc.as_slice()), enc.len() as u64)
    };
    if rfp_deposit {
        if deposit_reply(&server, &conn, call_hdr.xid, &wire).await {
            // No Send, no doorbell, no completion: the client's Read
            // engine does the rest. Nothing was exposed (chunkless),
            // so only the staging buffers remain to release.
            debug_assert!(to_expose.is_empty());
            for io in to_release {
                server.registrar.release(io).await;
            }
            return;
        }
        // Reply outgrew the slot or the ring vanished mid-call: the
        // Send path below still delivers it.
        server.stats.rfp_fallback_sends.inc();
    }
    cpu.copy(wire_len).await;

    let wr = conn.alloc_wr();
    // Signaled: the reply Send's completion is the proof that every
    // preceding RDMA Write has been placed (§4.2), and therefore the
    // deregistration point for Read-Write source buffers.
    let reply_span = server.sim.span("server", "reply_send");
    let send_ok = match conn.router.expect(wr) {
        Ok(wait) => {
            if qp.post_send(Payload::real(wire), wr, true).is_err() {
                false
            } else {
                // Doorbell moderation: a reply left pending by a batch
                // that did not fill rings at most `DOORBELL_FLUSH`
                // later, so ops posting within the window share one
                // doorbell, and the completion cannot hang.
                qp.ring_within(DOORBELL_FLUSH);
                wait.await.is_ok()
            }
        }
        Err(_) => false,
    };
    drop(reply_span);

    if !to_expose.is_empty() && send_ok {
        // Read-Read: buffers stay exposed until RDMA_DONE. A replayed
        // reply re-exposes fresh buffers under the same XID; retire the
        // originals (their rkeys were advertised in a reply the client
        // never acted on).
        server
            .stats
            .exposures_pending
            .set(server.stats.exposures_pending.get() + to_expose.len() as u64);
        let old = conn.pending_exposures.borrow_mut().insert(
            call_hdr.xid,
            Exposure {
                since: server.sim.now(),
                bufs: to_expose,
            },
        );
        conn.exposure_signal.add_permits(1);
        if let Some(old) = old {
            server
                .stats
                .exposures_pending
                .set(server.stats.exposures_pending.get() - old.bufs.len() as u64);
            for io in old.bufs {
                server.registrar.release(io).await;
            }
        }
    } else {
        // Reply never left (QP torn down mid-call): nothing to expose.
        to_release.extend(to_expose);
    }
    for io in to_release {
        server.registrar.release(io).await;
    }
}

/// Pull a set of read chunks into one scratch buffer, blocking until
/// every RDMA Read completes (§4.1's synchronous wait).
async fn pull_chunks(
    server: &Rc<RdmaRpcServer>,
    qp: &Qp,
    conn: &Rc<ConnState>,
    chunks: &[&ReadChunk],
) -> Option<IoBuf> {
    let total: u64 = chunks.iter().map(|c| c.segment.len).sum();
    let io = server.registrar.acquire_scratch(total, Access::LOCAL).await;
    let mut off = 0u64;
    let mut waits = Vec::new();
    for chunk in chunks {
        let wr = conn.alloc_wr();
        match conn.router.expect(wr) {
            Ok(rx) => waits.push(rx),
            Err(_) => {
                server.registrar.release(io).await;
                return None;
            }
        }
        if qp
            .post_rdma_read(
                io.buffer().clone(),
                io.base() + off,
                chunk.segment.addr,
                chunk.segment.rkey,
                chunk.segment.len,
                wr,
            )
            .is_err()
        {
            server.registrar.release(io).await;
            return None;
        }
        off += chunk.segment.len;
    }
    // Ring the doorbell for the whole batch of Reads before blocking.
    qp.flush();
    for rx in waits {
        match rx.await {
            Ok(c) if c.result.is_ok() => {}
            _ => {
                server.registrar.release(io).await;
                return None;
            }
        }
    }
    Some(io)
}

/// Stage a bulk scatter/gather list into a DMA-able buffer. Non-cache
/// strategies reference the file-system pages directly (the pieces land
/// in the window without flattening); the cache strategy copies into
/// its pre-registered slab entry.
async fn stage_source(server: &Rc<RdmaRpcServer>, data: &SgList, access: Access) -> IoBuf {
    let io = server.registrar.acquire_scratch(data.len(), access).await;
    let mut off = 0u64;
    for piece in data.pieces() {
        io.write(off, piece.clone());
        off += piece.len();
    }
    if server.registrar.is_staged() {
        server.hca.cpu().copy(data.len()).await;
        server.stats.copied_bytes.add(data.len());
    }
    io
}

/// RDMA Write `len` bytes of `io` into the client's segments, in order.
/// Unsignaled: the following reply Send provides the ordering fence.
fn write_into_segments(qp: &Qp, conn: &ConnState, io: &IoBuf, len: u64, segs: &[Segment]) {
    let mut remaining = len;
    let mut off = 0u64;
    for seg in segs {
        if remaining == 0 {
            break;
        }
        let n = seg.len.min(remaining);
        let data = io.read(off, n);
        let wr = conn.alloc_wr();
        if qp
            .post_rdma_write(data, seg.addr, seg.rkey, wr, false)
            .is_err()
        {
            return;
        }
        off += n;
        remaining -= n;
    }
}

/// RDMA Write a scatter/gather list into the client's segments without
/// ever flattening it: within each remote segment the pieces ride as
/// the SG entries of one vectored WQE (split at the HCA's `max_send_sge`
/// limit). All-physical windows only hold the global steering tag,
/// which the HCA refuses for multi-entry local gathers (§4.3), so they
/// post one WQE per piece and lean on doorbell batching instead.
/// Unsignaled either way: the reply Send is the ordering fence.
fn write_sg_into_segments(
    server: &RdmaRpcServer,
    qp: &Qp,
    conn: &ConnState,
    io: &IoBuf,
    sgl: &SgList,
    segs: &[Segment],
) {
    let lkey = io.lkey(&server.hca);
    let no_local_sg = server.hca.global_rkey() == Some(lkey);
    let max_sge = server.hca.config().max_send_sge.max(1);
    let mut remaining = sgl.len();
    let mut off = 0u64;
    for seg in segs {
        if remaining == 0 {
            break;
        }
        let n = seg.len.min(remaining);
        let part = sgl.slice(off, n);
        let mut addr = seg.addr;
        if no_local_sg {
            for piece in part.into_pieces() {
                let plen = piece.len();
                let wr = conn.alloc_wr();
                if qp
                    .post_rdma_write(piece, addr, seg.rkey, wr, false)
                    .is_err()
                {
                    return;
                }
                addr += plen;
            }
        } else {
            let pieces = part.into_pieces();
            for group in pieces.chunks(max_sge) {
                let glen: u64 = group.iter().map(Payload::len).sum();
                let sges: Vec<Sge> = group
                    .iter()
                    .map(|p| Sge {
                        data: p.clone(),
                        lkey,
                    })
                    .collect();
                let wr = conn.alloc_wr();
                if qp
                    .post_rdma_write_vec(sges, addr, seg.rkey, wr, false)
                    .is_err()
                {
                    return;
                }
                addr += glen;
            }
        }
        off += n;
        remaining -= n;
    }
}

/// Echo a chunk's segments with the actual byte counts written, so the
/// client can size the result (paper §4: "the client uses this Write
/// chunk list to determine how much data was returned").
fn echo_actual(segs: &[Segment], len: u64) -> Vec<Segment> {
    let mut remaining = len;
    let mut out = Vec::new();
    for seg in segs {
        let n = seg.len.min(remaining);
        out.push(Segment {
            rkey: seg.rkey,
            len: n,
            addr: seg.addr,
        });
        remaining -= n;
        if remaining == 0 {
            break;
        }
    }
    out
}
