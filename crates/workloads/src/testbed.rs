//! Testbed assembly: server + N client hosts on a fabric, over either
//! transport, with either storage back end.

use std::rc::Rc;

use fs_backend::{CachedDiskStore, Fs, MemStore, Raid0, Vfs};
use ib_verbs::{connect, Fabric, Hca, HostMem, NodeId};
use net_stack::{TcpConfig, TcpNet};
use nfs::{NfsClient, NfsServer, NfsServerHandle};
use onc_rpc::{serve_stream_bulk_connection, BulkServiceRef, StreamRpcClient};
use rpcrdma::{Design, RdmaRpcClient, RdmaRpcServer, Registrar, RpcRdmaConfig, StrategyKind};
use sim_core::{Cpu, Sim};

use crate::profiles::Profile;

/// Storage behind the NFS server.
#[derive(Clone, Copy, Debug)]
pub enum Backend {
    /// Memory file system (the §5.1/§5.2 configuration).
    Tmpfs,
    /// 8-disk RAID-0 behind a page cache (§5.3). `ram_bytes` is the
    /// machine's RAM; the kernel and daemons keep [`OS_RESERVE`], the
    /// rest becomes page cache.
    Raid {
        /// Total server RAM.
        ram_bytes: u64,
    },
    /// The RAID configuration plus a write-ahead log on a dedicated
    /// log disk: COMMIT becomes a sequential group commit, and a
    /// power failure recovers committed data by replay.
    WalRaid {
        /// Total server RAM.
        ram_bytes: u64,
    },
}

/// RAM the OS keeps for itself on the RAID server; the page cache gets
/// the remainder. This is why the paper's 4 GB server starts missing
/// at four 1 GB clients and the 8 GB server at eight.
pub const OS_RESERVE: u64 = 512 << 20;

/// One client host.
pub struct ClientHost {
    /// Mounted NFS client.
    pub nfs: Rc<NfsClient>,
    /// Host memory (for user I/O buffers).
    pub mem: Rc<HostMem>,
    /// Host CPU (utilization reporting).
    pub cpu: Cpu,
    /// The client HCA (RDMA testbeds only).
    pub hca: Option<Hca>,
}

/// A fully assembled testbed.
pub struct Testbed {
    /// The clients, in id order.
    pub clients: Vec<ClientHost>,
    /// Server CPU.
    pub server_cpu: Cpu,
    /// Server HCA (RDMA testbeds only).
    pub server_hca: Option<Hca>,
    /// The NFS server (stats, root handle).
    pub server: Rc<NfsServer>,
    /// The RPC/RDMA server engine (taskq stats; RDMA testbeds only).
    pub rpc_server: Option<Rc<RdmaRpcServer>>,
    /// Direct VFS access (test prepopulation).
    pub fs: Rc<dyn Vfs>,
    /// Page-cache statistics for RAID back ends.
    pub disk_store: Option<Rc<Fs<CachedDiskStore>>>,
    /// The fabric (RDMA testbeds only), for wire accounting.
    pub fabric: Option<Fabric<ib_verbs::WireMsg>>,
    /// The TCP network (stream testbeds only).
    pub tcp: Option<TcpNet>,
}

impl Testbed {
    /// Reset all accounting windows (exclude warmup from utilization).
    pub fn reset_accounting(&self) {
        self.server_cpu.reset_accounting();
        for c in &self.clients {
            c.cpu.reset_accounting();
        }
        if let Some(f) = &self.fabric {
            f.reset_accounting();
        }
        if let Some(t) = &self.tcp {
            t.reset_accounting();
        }
        if let Some(h) = &self.server_hca {
            h.reset_accounting();
        }
        for c in &self.clients {
            if let Some(h) = &c.hca {
                h.reset_accounting();
            }
        }
        if let Some(rs) = &self.rpc_server {
            rs.taskq().reset_accounting();
        }
    }
}

pub(crate) fn build_fs_for(
    sim: &Sim,
    backend: Backend,
) -> (Rc<dyn Vfs>, Option<Rc<Fs<CachedDiskStore>>>) {
    match backend {
        Backend::Tmpfs => {
            let fs: Rc<Fs<MemStore>> = Rc::new(Fs::new(sim, MemStore::default()));
            (Rc::new(fs) as Rc<dyn Vfs>, None)
        }
        Backend::Raid { ram_bytes } => {
            let raid = Raid0::paper_array(sim);
            let cache = ram_bytes.saturating_sub(OS_RESERVE).max(128 << 20);
            let fs: Rc<Fs<CachedDiskStore>> =
                Rc::new(Fs::new(sim, CachedDiskStore::new(raid, cache, 256 * 1024)));
            (Rc::new(fs.clone()) as Rc<dyn Vfs>, Some(fs))
        }
        Backend::WalRaid { ram_bytes } => {
            let raid = Raid0::paper_array(sim);
            let cache = ram_bytes.saturating_sub(OS_RESERVE).max(128 << 20);
            let wal = fs_backend::Wal::new(sim, fs_backend::WalConfig::default());
            let fs: Rc<Fs<CachedDiskStore>> = Rc::new(Fs::new(
                sim,
                CachedDiskStore::with_wal(raid, cache, 256 * 1024, wal),
            ));
            (Rc::new(fs.clone()) as Rc<dyn Vfs>, Some(fs))
        }
    }
}

/// Knobs for [`build_rdma_custom`]: a full transport config plus split
/// registration strategies (the zero-copy ablation runs clients on
/// dynamic registration against an all-physical server) and an optional
/// server-only HCA override (CQ interrupt moderation on the server
/// without touching client completion handling).
pub struct RdmaOpts {
    /// Transport configuration (design, credits, batching knobs).
    pub cfg: RpcRdmaConfig,
    /// Client-side registration strategy.
    pub client_strategy: StrategyKind,
    /// Server-side registration strategy.
    pub server_strategy: StrategyKind,
    /// HCA config for the server node; `None` uses the profile's.
    pub server_hca: Option<ib_verbs::HcaConfig>,
}

/// Build an RPC/RDMA testbed: server at node 0, clients at 1..=n.
pub fn build_rdma(
    sim: &Sim,
    profile: &Profile,
    design: Design,
    strategy: StrategyKind,
    backend: Backend,
    n_clients: usize,
) -> Testbed {
    build_rdma_custom(
        sim,
        profile,
        RdmaOpts {
            cfg: profile.rpc.with_design(design),
            client_strategy: strategy,
            server_strategy: strategy,
            server_hca: None,
        },
        backend,
        n_clients,
    )
}

/// Build an RPC/RDMA testbed with per-side strategies and overridden
/// configs (the batching/zero-copy ablation harness).
pub fn build_rdma_custom(
    sim: &Sim,
    profile: &Profile,
    opts: RdmaOpts,
    backend: Backend,
    n_clients: usize,
) -> Testbed {
    let fabric = Fabric::new(sim);
    let cfg = opts.cfg;

    let server_node = NodeId(0);
    let server_cpu = Cpu::new(sim, "server-cpu", profile.server_cores, profile.server_cpu);
    let server_mem = Rc::new(HostMem::new(server_node, profile.phys, sim.fork_rng()));
    let server_hca = Hca::new(
        sim,
        server_node,
        opts.server_hca.unwrap_or(profile.hca),
        server_cpu.clone(),
        server_mem,
        &fabric,
    );

    let (fs, disk_store) = build_fs_for(sim, backend);
    let server = NfsServer::new(fs.clone());
    let rpc_server = RdmaRpcServer::new(
        sim,
        &server_hca,
        Rc::new(NfsServerHandle(server.clone())),
        Registrar::new(&server_hca, opts.server_strategy),
        cfg,
    );

    let mut clients = Vec::new();
    for i in 1..=n_clients {
        let node = NodeId(i as u32);
        let cpu = Cpu::new(
            sim,
            format!("client{i}-cpu"),
            profile.client_cores,
            profile.client_cpu,
        );
        let mem = Rc::new(HostMem::new(node, profile.phys, sim.fork_rng()));
        let hca = Hca::new(sim, node, profile.hca, cpu.clone(), mem.clone(), &fabric);
        let (qc, qs) = connect(&hca, &server_hca);
        rpc_server.serve_connection(qs.clone());
        let rpc_client = RdmaRpcClient::new(
            sim,
            &hca,
            qc,
            Registrar::new(&hca, opts.client_strategy),
            cfg,
            nfs::NFS_PROGRAM,
            nfs::NFS_VERSION,
        );
        // QP error recovery: tear down the old server half, bring up a
        // fresh QP pair, and hand the server its end (the connection
        // manager's role on a real fabric).
        {
            let qs_cell = std::cell::RefCell::new(qs);
            let hca = hca.clone();
            let server_hca = server_hca.clone();
            let rpc_server = rpc_server.clone();
            rpc_client.set_connector(move || {
                qs_cell.borrow().force_error();
                let (qc, qs) = connect(&hca, &server_hca);
                rpc_server.serve_connection(qs.clone());
                *qs_cell.borrow_mut() = qs;
                qc
            });
        }
        clients.push(ClientHost {
            nfs: Rc::new(NfsClient::over_rdma(rpc_client)),
            mem,
            cpu,
            hca: Some(hca),
        });
    }

    Testbed {
        clients,
        server_cpu,
        server_hca: Some(server_hca),
        server,
        rpc_server: Some(rpc_server),
        fs,
        disk_store,
        fabric: Some(fabric),
        tcp: None,
    }
}

/// Build a TCP testbed (IPoIB or GigE per `tcp_cfg`): server at node
/// 0, clients at 1..=n. Async because connections handshake.
pub async fn build_tcp(
    sim: &Sim,
    profile: &Profile,
    tcp_cfg: TcpConfig,
    backend: Backend,
    n_clients: usize,
) -> Testbed {
    let net = TcpNet::new(sim, tcp_cfg);
    let server_node = NodeId(0);
    let server_cpu = Cpu::new(sim, "server-cpu", profile.server_cores, profile.server_cpu);
    net.attach(server_node, server_cpu.clone());

    let (fs, disk_store) = build_fs_for(sim, backend);
    let server = NfsServer::new(fs.clone());
    let handle = NfsServerHandle(server.clone());
    let mut listener = net.listen(server_node, 2049);
    let sim2 = sim.clone();
    sim.spawn(async move {
        loop {
            let conn = listener.accept().await;
            let svc: BulkServiceRef = Rc::new(handle.clone());
            let sim3 = sim2.clone();
            sim2.spawn(async move {
                serve_stream_bulk_connection(sim3, conn, svc).await;
            });
        }
    });

    let mut clients = Vec::new();
    for i in 1..=n_clients {
        let node = NodeId(i as u32);
        let cpu = Cpu::new(
            sim,
            format!("client{i}-cpu"),
            profile.client_cores,
            profile.client_cpu,
        );
        net.attach(node, cpu.clone());
        let mem = Rc::new(HostMem::new(node, profile.phys, sim.fork_rng()));
        let stream = net.connect(node, server_node, 2049).await;
        let rpc = StreamRpcClient::new(sim, stream, nfs::NFS_PROGRAM, nfs::NFS_VERSION);
        clients.push(ClientHost {
            nfs: Rc::new(NfsClient::over_tcp(rpc)),
            mem,
            cpu,
            hca: None,
        });
    }

    Testbed {
        clients,
        server_cpu,
        server_hca: None,
        server,
        rpc_server: None,
        fs,
        disk_store,
        fabric: None,
        tcp: Some(net),
    }
}
