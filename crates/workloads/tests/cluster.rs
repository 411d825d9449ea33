//! Two-node cluster checks: replication refuses WRITEs its log ring
//! cannot carry, and every server/client `stats` view counts only its
//! own events while the registry series report their sum.

use bytes::Bytes;
use fs_backend::FileId;
use ib_verbs::connect;
use rpcrdma::{BulkParams, RdmaRpcClient, Registrar, StrategyKind};
use sim_core::{Payload, Sim, Simulation};
use workloads::{build_cluster, linux_sdr, Backend, ClusterConfig, ClusterTestbed};

async fn cluster(sim: &Sim, clients: usize, ccfg: ClusterConfig) -> ClusterTestbed {
    let p = linux_sdr();
    build_cluster(
        sim,
        &p,
        p.rpc,
        StrategyKind::Cache,
        Backend::Tmpfs,
        clients,
        ccfg,
    )
    .await
}

#[test]
fn oversized_replicated_write_is_refused_and_replicas_agree() {
    const BIG: u64 = 128 * 1024;
    const SMALL: u64 = 4096;
    let mut sim = Simulation::new(7);
    let h = sim.handle();
    sim.block_on(async move {
        let bed = cluster(&h, 1, ClusterConfig::default()).await;
        let root = bed.nodes[0].server.root_handle();
        let client = &bed.clients[0];
        let fh = client
            .nfs
            .create(root, "big")
            .await
            .expect("create replicates")
            .handle();
        let buf = client.mem.alloc(BIG);
        buf.write(0, Payload::synthetic(1, BIG));
        client
            .nfs
            .write(fh, 0, &buf, 0, SMALL as u32, true)
            .await
            .expect("a small WRITE replicates");
        // Half the default 256 KiB ring is 128 KiB, and the record adds
        // its header to the data: this WRITE cannot be shipped.
        let big = client.nfs.write(fh, 0, &buf, 0, BIG as u32, true).await;
        assert!(big.is_err(), "a WRITE the ring cannot carry is refused");

        bed.stop.set(true);
        let session = bed.session.borrow().clone().expect("replicating cluster");
        session.caught_up(bed.nodes[0].repl.log_len()).await;
        let id = FileId(fh.0);
        let (primary, backup) = (&bed.nodes[0].fs, &bed.nodes[1].fs);
        let size = primary.getattr(id).expect("primary file").size;
        assert_eq!(size, SMALL, "the refused WRITE never reached the primary");
        assert_eq!(backup.getattr(id).expect("backup file").size, size);
        let p = primary.read(id, 0, size).await.expect("primary read");
        let b = backup.read(id, 0, size).await.expect("backup read");
        assert!(p.content_eq(&b), "backup and primary hold the same bytes");
    });
}

#[test]
fn stats_are_per_instance_views_of_registry_series() {
    let mut sim = Simulation::new(5);
    let h = sim.handle();
    sim.block_on(async move {
        let ccfg = ClusterConfig {
            replicate: false,
            ..ClusterConfig::default()
        };
        let bed = cluster(&h, 2, ccfg).await;
        // Client host 0 calls the primary, client host 1 the backup.
        let clients: Vec<RdmaRpcClient> = bed
            .nodes
            .iter()
            .zip(&bed.clients)
            .map(|(node, host)| {
                let hca = host.hca.clone().expect("rdma client host");
                let (qc, qs) = connect(&hca, &node.hca);
                node.rpc.serve_connection(qs);
                RdmaRpcClient::new(
                    &h,
                    &hca,
                    qc,
                    Registrar::new(&hca, StrategyKind::Cache),
                    linux_sdr().rpc,
                    nfs::NFS_PROGRAM,
                    nfs::NFS_VERSION,
                )
            })
            .collect();
        for (calls, client) in [3, 5].into_iter().zip(&clients) {
            for _ in 0..calls {
                client
                    .call(0, Bytes::new(), BulkParams::default())
                    .await
                    .expect("NULL call");
            }
        }

        let (primary, backup) = (&bed.nodes[0].rpc.stats, &bed.nodes[1].rpc.stats);
        assert_eq!((primary.ops.get(), backup.ops.get()), (3, 5));
        assert_eq!((clients[0].stats().calls, clients[1].stats().calls), (3, 5));
        let reg = h.metrics();
        assert_eq!(reg.get("server.ops"), Some(8));
        // The testbed's own (idle) clients add nothing to the series.
        assert_eq!(reg.get("client.calls"), Some(8));
    });
}
