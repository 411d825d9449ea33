//! Log-structured write-ahead log with group commit.
//!
//! The WAL sits beside the page cache in the disk back end: UNSTABLE
//! WRITE data is appended to a volatile tail (no disk time), and a
//! COMMIT triggers a *group commit* — one sequential burst that flushes
//! every pending record followed by a commit marker. Because the log
//! device is written strictly sequentially, small synchronous commits
//! avoid the seek + page-granularity write-back cost that makes
//! fsync-heavy workloads collapse on the plain cached store.
//!
//! Durability model (two-phase, crash-consistent):
//!
//! 1. records flushed to the log device are durable but *uncommitted*
//!    until a marker lands behind them;
//! 2. the commit marker is a single small sequential append; once it is
//!    on the platter the whole batch is committed atomically.
//!
//! A power failure at any point loses the volatile tail and truncates
//! any flushed-but-unmarked records at recovery — committed data
//! survives, uncommitted data is *cleanly* lost (never torn). Replay
//! is idempotent: records are applied in append order, so replaying a
//! prefix twice converges to the same contents.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use sim_core::{Counter, MetricsRegistry, Payload, Sim, SimDuration, SimTime};

use crate::disk::Disk;
use crate::vfs::FileId;

/// One logged write.
#[derive(Clone)]
pub struct WalRecord {
    /// Target file.
    pub file: FileId,
    /// Byte offset within the file.
    pub off: u64,
    /// The data (reference-counted; appending copies nothing).
    pub data: Payload,
}

/// Tuning knobs. The defaults flush on a 1 MiB tail and place no
/// interval bound, matching a throughput-oriented group commit.
#[derive(Clone, Copy)]
pub struct WalConfig {
    /// Flush the volatile tail once it holds this many bytes
    /// (size watermark; 0 flushes every append).
    pub flush_watermark_bytes: u64,
    /// Also flush when this much virtual time has passed since the
    /// last flush (checked lazily at append; no background task).
    pub flush_interval: Option<SimDuration>,
    /// Per-record on-log framing overhead.
    pub record_header_bytes: u64,
    /// Size of the commit marker append.
    pub commit_marker_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            flush_watermark_bytes: 1 << 20,
            flush_interval: None,
            record_header_bytes: 32,
            commit_marker_bytes: 512,
        }
    }
}

/// Counters: this log's instances of the `fs.wal.*` registry series.
pub struct WalStats {
    /// Records appended to the volatile tail.
    pub appends: Rc<Counter>,
    /// Data bytes appended.
    pub appended_bytes: Rc<Counter>,
    /// Tail flushes to the log device.
    pub flushes: Rc<Counter>,
    /// Bytes written to the log device by flushes (with framing).
    pub flushed_bytes: Rc<Counter>,
    /// Group commits (marker appended, batch made durable).
    pub commits: Rc<Counter>,
    /// Records covered by commit markers.
    pub committed_records: Rc<Counter>,
    /// Records dropped by power failure (volatile tail plus
    /// flushed-but-unmarked records truncated at recovery).
    pub truncated_records: Rc<Counter>,
    /// Records replayed by recovery.
    pub replayed_records: Rc<Counter>,
    /// Data bytes replayed by recovery.
    pub replayed_bytes: Rc<Counter>,
    /// Committed records discarded at cluster rejoin because the new
    /// primary's replicated log does not contain them (the node died
    /// after committing locally but before the backup acknowledged).
    /// Reported in the `fs.wal.truncated_records` series together with
    /// the power-failure truncations.
    pub rejoin_truncated_records: Rc<Counter>,
    /// Bytes re-shipped by the primary during rejoin catch-up (the
    /// bounded WAL-tail resync, as opposed to a full cold start).
    pub resync_bytes: Rc<Counter>,
}

impl WalStats {
    fn new(metrics: &MetricsRegistry) -> WalStats {
        WalStats {
            appends: metrics.instance("fs.wal.appends"),
            appended_bytes: metrics.instance("fs.wal.appended_bytes"),
            flushes: metrics.instance("fs.wal.flushes"),
            flushed_bytes: metrics.instance("fs.wal.flushed_bytes"),
            commits: metrics.instance("fs.wal.commits"),
            committed_records: metrics.instance("fs.wal.committed_records"),
            truncated_records: metrics.instance("fs.wal.truncated_records"),
            replayed_records: metrics.instance("fs.wal.replayed_records"),
            replayed_bytes: metrics.instance("fs.wal.replayed_bytes"),
            rejoin_truncated_records: metrics.instance("fs.wal.truncated_records"),
            resync_bytes: metrics.instance("fs.wal.resync_bytes"),
        }
    }
}

/// The write-ahead log. One per store; owns its own (sequential) log
/// device so data traffic on the array never forces a log seek.
pub struct Wal {
    sim: Sim,
    disk: Disk,
    cfg: WalConfig,
    /// Bumped by every power failure; in-flight flush/commit awaits
    /// re-check it and abandon their batch if it moved.
    epoch: Cell<u64>,
    /// Log-device append cursor.
    head_addr: Cell<u64>,
    last_flush: Cell<SimTime>,
    /// Volatile tail: appended, not yet on the log device.
    tail: RefCell<Vec<WalRecord>>,
    tail_bytes: Cell<u64>,
    /// On the log device, awaiting a commit marker.
    flushed: RefCell<Vec<WalRecord>>,
    /// Behind a commit marker: survives power failure.
    committed: RefCell<Vec<WalRecord>>,
    /// Statistics.
    pub stats: WalStats,
}

impl Wal {
    /// A WAL over its own dedicated 30 MB/s log disk.
    pub fn new(sim: &Sim, cfg: WalConfig) -> Rc<Wal> {
        let disk = Disk::new(sim, "wal-log", 30_000_000, SimDuration::from_millis(4));
        Wal::with_disk(sim, disk, cfg)
    }

    /// A WAL over an explicit log device.
    pub fn with_disk(sim: &Sim, disk: Disk, cfg: WalConfig) -> Rc<Wal> {
        Rc::new(Wal {
            sim: sim.clone(),
            disk,
            cfg,
            epoch: Cell::new(0),
            head_addr: Cell::new(0),
            last_flush: Cell::new(sim.now()),
            tail: RefCell::new(Vec::new()),
            tail_bytes: Cell::new(0),
            flushed: RefCell::new(Vec::new()),
            committed: RefCell::new(Vec::new()),
            stats: WalStats::new(&sim.metrics()),
        })
    }

    fn framed(&self, data_len: u64) -> u64 {
        self.cfg.record_header_bytes + data_len
    }

    /// Records in the volatile tail.
    pub fn tail_records(&self) -> u64 {
        self.tail.borrow().len() as u64
    }

    /// Records on the log device awaiting a marker.
    pub fn flushed_records(&self) -> u64 {
        self.flushed.borrow().len() as u64
    }

    /// Records behind a commit marker (what recovery will replay).
    pub fn committed_records(&self) -> u64 {
        self.committed.borrow().len() as u64
    }

    /// Append one write to the volatile tail. Costs no disk time
    /// unless a watermark triggers a flush.
    pub async fn append(&self, file: FileId, off: u64, data: Payload) {
        let n = data.len();
        self.tail.borrow_mut().push(WalRecord { file, off, data });
        self.tail_bytes.set(self.tail_bytes.get() + self.framed(n));
        self.stats.appends.inc();
        self.stats.appended_bytes.add(n);
        let over_size = self.tail_bytes.get() >= self.cfg.flush_watermark_bytes;
        let over_time = self
            .cfg
            .flush_interval
            .is_some_and(|iv| self.sim.now().saturating_since(self.last_flush.get()) >= iv);
        if over_size || over_time {
            self.flush().await;
        }
    }

    /// Flush the volatile tail to the log device (durable but
    /// uncommitted until a marker follows).
    pub async fn flush(&self) {
        let epoch = self.epoch.get();
        let batch: Vec<WalRecord> = std::mem::take(&mut *self.tail.borrow_mut());
        if batch.is_empty() {
            return;
        }
        let bytes: u64 = batch.iter().map(|r| self.framed(r.data.len())).sum();
        self.tail_bytes.set(0);
        let addr = self.head_addr.get();
        self.head_addr.set(addr + bytes);
        self.disk.transfer_at(addr, bytes).await;
        self.last_flush.set(self.sim.now());
        if self.epoch.get() != epoch {
            // Power failed while the burst was in flight: the batch
            // never became durable.
            self.stats.truncated_records.add(batch.len() as u64);
            return;
        }
        self.stats.flushes.inc();
        self.stats.flushed_bytes.add(bytes);
        self.flushed.borrow_mut().extend(batch);
    }

    /// Group commit: flush the tail, then append the commit marker.
    /// Only once the marker is durable does the whole pending batch —
    /// every file's records, in append order — become committed. A
    /// commit with nothing pending is free.
    pub async fn commit(&self) {
        let epoch = self.epoch.get();
        self.flush().await;
        if self.epoch.get() != epoch || self.flushed.borrow().is_empty() {
            return;
        }
        let addr = self.head_addr.get();
        self.head_addr.set(addr + self.cfg.commit_marker_bytes);
        self.disk
            .transfer_at(addr, self.cfg.commit_marker_bytes)
            .await;
        if self.epoch.get() != epoch {
            // Marker never landed: the batch stays uncommitted and
            // recovery will truncate it.
            return;
        }
        let batch: Vec<WalRecord> = std::mem::take(&mut *self.flushed.borrow_mut());
        self.stats.commits.inc();
        self.stats.committed_records.add(batch.len() as u64);
        self.committed.borrow_mut().extend(batch);
    }

    /// Power failure: the volatile tail vanishes, and any flushed
    /// records without a marker behind them are logically truncated
    /// (recovery stops at the last commit marker). In-flight flushes
    /// and commits notice the epoch change and abandon their batches.
    pub fn power_fail(&self) {
        self.epoch.set(self.epoch.get() + 1);
        let lost = self.tail.borrow().len() + self.flushed.borrow().len();
        self.stats.truncated_records.add(lost as u64);
        self.tail.borrow_mut().clear();
        self.tail_bytes.set(0);
        self.flushed.borrow_mut().clear();
    }

    /// Cluster rejoin, step 1: discard committed records beyond the
    /// replicated prefix the new primary acknowledged. A primary that
    /// died between its local group commit and the backup's ack holds
    /// committed records the rest of the cluster never saw; rejoining
    /// as a backup means adopting the survivor's history, so the
    /// divergent tail is truncated before replay (the real-system
    /// analogue: the rejoin handshake compares log sequence numbers
    /// stored in the commit markers).
    pub fn truncate_committed_to(&self, keep_records: u64) {
        let mut committed = self.committed.borrow_mut();
        if (committed.len() as u64) <= keep_records {
            return;
        }
        let dropped = committed.len() as u64 - keep_records;
        committed.truncate(keep_records as usize);
        self.stats.rejoin_truncated_records.add(dropped);
    }

    /// Cluster rejoin, step 2 accounting: `bytes` of log records were
    /// re-shipped by the primary to catch this node's WAL tail up
    /// (bounded catch-up instead of a cold start).
    pub fn note_resync(&self, bytes: u64) {
        self.stats.resync_bytes.add(bytes);
    }

    /// Recovery replay: scan the log sequentially (charged as one
    /// sequential read) and return every committed record in append
    /// order. Applying them in order is idempotent — replaying any
    /// prefix again converges to the same contents.
    pub async fn recover(&self) -> Vec<WalRecord> {
        let records = self.committed.borrow().clone();
        let bytes: u64 = records.iter().map(|r| self.framed(r.data.len())).sum();
        if bytes > 0 {
            self.disk.transfer(bytes).await;
        }
        self.stats.replayed_records.add(records.len() as u64);
        let data: u64 = records.iter().map(|r| r.data.len()).sum();
        self.stats.replayed_bytes.add(data);
        records
    }
}
