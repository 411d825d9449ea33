//! Shared Receive Queues.
//!
//! With per-QP receive queues, a server must pre-post a full credit
//! window of buffers for *every* client connection, even idle ones —
//! the buffer-management scaling problem the paper's future work calls
//! out. An SRQ pools posted receives across all QPs attached to it:
//! buffer demand tracks the *aggregate* arrival rate instead of the
//! connection count. (Linux's NFS/RDMA server adopted SRQs for exactly
//! this reason.)

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use sim_core::stats::Counter;
use sim_core::MetricsRegistry;

use crate::memory::Buffer;
use crate::qp::PostedRecv;
use crate::types::{VerbsError, WrId};

struct SrqInner {
    queue: RefCell<VecDeque<PostedRecv>>,
    /// Buffers consumed by arrivals (diagnostic).
    consumed: Rc<Counter>,
    /// Low-water notification threshold.
    limit: Cell<usize>,
    /// Times the queue dipped below the limit after a pop.
    limit_events: Rc<Counter>,
}

/// A shared receive queue; attach to QPs at connect time.
#[derive(Clone)]
pub struct Srq {
    inner: Rc<SrqInner>,
}

impl Default for Srq {
    fn default() -> Self {
        Self::new()
    }
}

impl Srq {
    /// An empty SRQ.
    pub fn new() -> Srq {
        Srq {
            inner: Rc::new(SrqInner {
                queue: RefCell::new(VecDeque::new()),
                consumed: Rc::default(),
                limit: Cell::new(0),
                limit_events: Rc::default(),
            }),
        }
    }

    /// Post a receive buffer to the shared pool.
    pub fn post_recv(
        &self,
        buffer: Buffer,
        offset: u64,
        len: u64,
        wr_id: WrId,
    ) -> Result<(), VerbsError> {
        if offset + len > buffer.len() {
            return Err(VerbsError::LocalProtection("srq recv range out of buffer"));
        }
        self.inner.queue.borrow_mut().push_back(PostedRecv {
            buffer,
            offset,
            len,
            wr_id,
        });
        Ok(())
    }

    /// Arm the low-water mark: [`Srq::limit_events`] counts pops that
    /// leave fewer than `limit` buffers (consumers use this to re-post
    /// in batches, the classic SRQ-limit pattern).
    pub fn set_limit(&self, limit: usize) {
        self.inner.limit.set(limit);
    }

    /// Buffers currently posted.
    pub fn posted(&self) -> usize {
        self.inner.queue.borrow().len()
    }

    /// Buffers consumed by arrivals so far.
    pub fn consumed(&self) -> u64 {
        self.inner.consumed.get()
    }

    /// Times the pool dipped below the armed limit.
    pub fn limit_events(&self) -> u64 {
        self.inner.limit_events.get()
    }

    /// Report `consumed` / `limit_events` in the registry's
    /// `hca.srq.consumed` / `hca.srq.limit_events` series: the pool's
    /// burn rate and low-water pressure show up in metric snapshots.
    pub fn bind_metrics(&self, registry: &MetricsRegistry) {
        registry.register("hca.srq.consumed", &self.inner.consumed);
        registry.register("hca.srq.limit_events", &self.inner.limit_events);
    }

    pub(crate) fn pop(&self) -> Option<PostedRecv> {
        let r = self.inner.queue.borrow_mut().pop_front();
        if r.is_some() {
            self.inner.consumed.inc();
            if self.inner.queue.borrow().len() < self.inner.limit.get() {
                self.inner.limit_events.inc();
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{HostMem, PhysLayout};
    use crate::types::NodeId;
    use sim_core::SimRng;

    #[test]
    fn bound_metrics_mirror_pool_counters() {
        let mem = HostMem::new(NodeId(0), PhysLayout::default(), SimRng::new(3));
        let srq = Srq::new();
        for i in 0..4u64 {
            srq.post_recv(mem.alloc(256), 0, 256, WrId(i)).unwrap();
        }
        srq.set_limit(2);
        let registry = sim_core::MetricsRegistry::new();
        srq.bind_metrics(&registry);
        for _ in 0..3 {
            assert!(srq.pop().is_some());
        }
        // Three buffers burned; only the pop that left 1 < limit(2)
        // posted buffers counts as a limit event.
        assert_eq!(srq.consumed(), 3);
        assert_eq!(srq.limit_events(), 1);
        assert_eq!(registry.get("hca.srq.consumed"), Some(3));
        assert_eq!(registry.get("hca.srq.limit_events"), Some(1));
    }
}
