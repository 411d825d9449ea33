//! Host-time spans the benchmark records around its calls into each
//! layer. Kept in memory and written out with the run's report as a
//! Chrome `trace_event` document.

use std::time::Instant;

struct Rec {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct HostSpans {
    t0: Instant,
    recs: Vec<Rec>,
    open: Vec<usize>,
}

/// An entered span; hand it back to [`HostSpans::exit`].
#[must_use]
pub struct Open(usize);

impl HostSpans {
    pub fn new() -> HostSpans {
        HostSpans {
            t0: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> Open {
        let id = self.recs.len();
        self.recs.push(Rec {
            layer,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(id)
    }

    pub fn exit(&mut self, span: Open) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(span.0), "host spans must nest");
        self.recs[span.0].end_ns = self.now_ns();
    }

    /// Self time per layer, ns: each span's duration minus the part
    /// its children cover.
    pub fn self_ns_by_layer(&self) -> Vec<(&'static str, u64)> {
        let mut own: Vec<u64> = self.recs.iter().map(|r| r.end_ns - r.start_ns).collect();
        for r in &self.recs {
            if let Some(p) = r.parent {
                own[p] -= r.end_ns - r.start_ns;
            }
        }
        let mut by: Vec<(&'static str, u64)> = Vec::new();
        for (r, ns) in self.recs.iter().zip(own) {
            match by.iter_mut().find(|(l, _)| *l == r.layer) {
                Some(e) => e.1 += ns,
                None => by.push((r.layer, ns)),
            }
        }
        by
    }

    /// Chrome `trace_event` JSON (complete events, µs timestamps).
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .recs
            .iter()
            .map(|r| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":0}}",
                    r.name,
                    r.layer,
                    r.start_ns as f64 / 1e3,
                    (r.end_ns - r.start_ns) as f64 / 1e3
                )
            })
            .collect();
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }
}
