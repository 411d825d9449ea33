//! A fixed host workload that shares no code with the program, timed
//! between simulation runs: pointer chasing through a table far larger
//! than the caches, sorting a cache-resident array, and first-touching
//! the pages of a fresh mapping.
//!
//! The hosts this benchmark runs on are shared: their speed drifts by
//! 20 % and more within minutes as other tenants come and go. The
//! ruler slows down and speeds up with the host, while no change to the
//! program can move it. Host-clock metrics are therefore reported in
//! *reference seconds*: host seconds rescaled by how fast the ruler ran
//! next to them, relative to [`PASSES_PER_REF_SECOND`].
//!
//! The page-touch step tracks the kernel's page-fault cost, which
//! drifts apart from the CPU's speed on these hosts. It matters most on
//! commit-write, whose simulations fault in tens of MB of fresh heap
//! each.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::time::Instant;

/// Ruler passes per reference second: a typical ruler speed on the
/// 2-core host the bounds were set on.
pub const PASSES_PER_REF_SECOND: f64 = 17.0;

/// Entries of the pointer-chase table (16 MiB, well past the caches).
const CHAIN: usize = 1 << 22;
/// Dependent loads per pass.
const LOADS: usize = 200_000;
/// Keys sorted per pass (branchy, cache-resident work).
const KEYS: usize = 1 << 16;
/// Bytes of fresh mapping touched per pass. Above the C allocator's
/// largest mmap threshold (32 MiB), so every pass maps, faults in and
/// unmaps new pages and leaves the allocator's heap as it found it.
const TOUCH: usize = 40 << 20;
const PAGE: usize = 4096;

/// The ruler allocates only when built, apart from the page-touch
/// mapping, which bypasses the counting allocator: a pass must not
/// disturb the allocator state or the heap counters the program's runs
/// see.
pub struct Ruler {
    /// One random cycle through every entry.
    chain: Vec<u32>,
    at: u32,
    keys: Vec<u32>,
    scratch: Vec<u32>,
}

impl Ruler {
    pub fn new() -> Ruler {
        // Sattolo's algorithm with a fixed LCG: the same single cycle
        // on every run and every host.
        let mut chain: Vec<u32> = (0..CHAIN as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in (1..CHAIN).rev() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (x >> 33) as usize % i;
            chain.swap(i, j);
        }
        let keys = chain[..KEYS].to_vec();
        Ruler {
            chain,
            at: 0,
            scratch: keys.clone(),
            keys,
        }
    }

    /// Time one pass; returns passes per host second.
    pub fn rate(&mut self) -> f64 {
        let t = Instant::now();
        let mut at = self.at;
        for _ in 0..LOADS {
            at = self.chain[at as usize];
        }
        self.at = at;
        self.scratch.copy_from_slice(&self.keys);
        self.scratch.sort_unstable();
        black_box(&self.scratch);
        touch_fresh_pages();
        1.0 / t.elapsed().as_secs_f64()
    }
}

/// Map [`TOUCH`] bytes, write one byte of every page, unmap.
fn touch_fresh_pages() {
    let layout = Layout::array::<u8>(TOUCH).expect("ruler layout");
    // SAFETY: `layout` has a non-zero size; the pointer is checked for
    // null, written only within the `TOUCH` bytes it owns, and freed
    // once with the same layout.
    unsafe {
        let p = System.alloc(layout);
        assert!(!p.is_null(), "ruler mapping failed");
        for i in (0..TOUCH).step_by(PAGE) {
            p.add(i).write_volatile(1);
        }
        System.dealloc(p, layout);
    }
}

/// Host seconds measured while the ruler ran at `rate` passes per
/// second, in reference seconds.
pub fn reference_seconds(host_s: f64, rate: f64) -> f64 {
    host_s * rate / PASSES_PER_REF_SECOND
}
