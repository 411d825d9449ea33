//! Hierarchical metrics registry: one namespace for every counter in
//! the simulated stack, and the only store those counters live in.
//!
//! Components register named counters (`server.drc.replays`,
//! `fabric.port3.dropped`, `rpcrdma.regcache.hits`, `executor.polls`,
//! ...) into the simulation's [`MetricsRegistry`] and keep the returned
//! [`Counter`] handle for hot-path bumps — a `Cell` increment, no map
//! lookup, no allocation. Names use dot-separated components, most
//! general first, so prefix filters select whole subsystems.
//!
//! A series has two kinds of handle. [`MetricsRegistry::counter`]
//! returns the one counter every caller of that name shares.
//! [`MetricsRegistry::instance`] returns a fresh counter only its
//! caller bumps ([`MetricsRegistry::register`] adds one a component
//! built without a `Sim` already owns). The series reports the shared
//! counter plus every instance, so the fleet-wide figure (`server.ops`
//! over a primary and a backup) and each component's own figure come
//! from the same bumps. Component `*Stats` structs (`ServerStats`,
//! `WalStats`, `ShipperStats`, ...) hold instance handles: they are
//! per-instance views of registry series, not copies kept beside them.
//!
//! The registry is held by the executor core and reached from any
//! [`crate::Sim`] handle via `Sim::metrics()`, so components need no
//! extra constructor plumbing. Snapshots iterate a `BTreeMap`, which
//! makes the text/JSON dumps deterministic: two same-seed runs produce
//! byte-identical output (pinned by a chaos-harness test).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::stats::Counter;

/// One named series: the counter shared by name plus every
/// per-instance counter registered under the same name.
#[derive(Default)]
struct Series {
    shared: Rc<Counter>,
    instances: Vec<Rc<Counter>>,
}

impl Series {
    fn value(&self) -> u64 {
        self.shared.get() + self.instances.iter().map(|c| c.get()).sum::<u64>()
    }
}

/// A shared, named-counter registry (cheap to clone).
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<BTreeMap<String, Series>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get or create the counter named `name`. Every caller asking for
    /// the same name shares one counter, so independent components can
    /// aggregate into a single series.
    pub fn counter(&self, name: &str) -> Rc<Counter> {
        self.with_series(name, |s| s.shared.clone())
    }

    /// A new counter only the caller bumps, reported as part of the
    /// `name` series. A component keeps it as its own per-instance view
    /// while the series totals every instance (plus the shared
    /// [`MetricsRegistry::counter`]) fleet-wide.
    pub fn instance(&self, name: &str) -> Rc<Counter> {
        let c = Rc::new(Counter::new());
        self.register(name, &c);
        c
    }

    /// Report an existing per-instance `counter` as part of the `name`
    /// series, history included. For components built without a
    /// [`crate::Sim`] that are bound to the registry after
    /// construction; register a counter once, or it is summed twice.
    pub fn register(&self, name: &str, counter: &Rc<Counter>) {
        self.with_series(name, |s| s.instances.push(counter.clone()));
    }

    /// Run `f` on the `name` series, creating it on first use (the key
    /// is only allocated then).
    fn with_series<R>(&self, name: &str, f: impl FnOnce(&mut Series) -> R) -> R {
        let mut map = self.inner.borrow_mut();
        match map.get_mut(name) {
            Some(series) => f(series),
            None => f(map.entry(name.to_string()).or_default()),
        }
    }

    /// Current value of `name`, or `None` if never registered.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.inner.borrow().get(name).map(Series::value)
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// Sorted `(name, value)` snapshot.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.inner
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect()
    }

    /// Sum every series whose name starts with `prefix` and ends with
    /// `suffix` (e.g. `sum_matching("fabric.", ".dropped")` totals the
    /// per-port drop counters).
    pub fn sum_matching(&self, prefix: &str, suffix: &str) -> u64 {
        self.inner
            .borrow()
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| v.value())
            .sum()
    }

    /// Zero every registered counter, instances included (exclude
    /// warmup from a report).
    pub fn reset(&self) {
        for s in self.inner.borrow().values() {
            s.shared.reset();
            s.instances.iter().for_each(|c| c.reset());
        }
    }

    /// Deterministic `name value` text dump, one series per line,
    /// sorted by name.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.snapshot() {
            out.push_str(&k);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }

    /// Deterministic JSON object dump (`{"name": value, ...}`), sorted
    /// by name.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape_json(k));
            out.push_str("\":");
            out.push_str(&v.to_string());
        }
        out.push('}');
        out
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("client.retransmits");
        let b = reg.counter("client.retransmits");
        a.inc();
        b.add(2);
        assert_eq!(reg.get("client.retransmits"), Some(3));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.counter("m.mid").add(3);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.mid", "z.last"]);
        assert_eq!(reg.to_text(), "a.first 2\nm.mid 3\nz.last 1\n");
        assert_eq!(reg.to_json(), r#"{"a.first":2,"m.mid":3,"z.last":1}"#);
    }

    #[test]
    fn sum_matching_filters_prefix_and_suffix() {
        let reg = MetricsRegistry::new();
        reg.counter("fabric.port0.dropped").add(2);
        reg.counter("fabric.port1.dropped").add(3);
        reg.counter("fabric.port1.retransmits").add(7);
        reg.counter("client.dropped").add(100);
        assert_eq!(reg.sum_matching("fabric.", ".dropped"), 5);
        assert_eq!(reg.sum_matching("fabric.", ".retransmits"), 7);
    }

    #[test]
    fn instances_and_shared_counter_sum_into_one_series() {
        let reg = MetricsRegistry::new();
        let primary = reg.instance("server.ops");
        // Counted before it was registered: the history is reported.
        let backup = Rc::new(Counter::new());
        backup.add(2);
        reg.register("server.ops", &backup);
        let shared = reg.counter("server.ops");
        reg.instance("server.bulk_in").add(9);
        primary.add(5);
        shared.inc();
        assert_eq!(
            (primary.get(), backup.get()),
            (5, 2),
            "each view is its own"
        );
        assert_eq!(reg.get("server.ops"), Some(8));
        assert_eq!(reg.len(), 2);
        assert_eq!(
            reg.snapshot(),
            vec![
                ("server.bulk_in".to_string(), 9),
                ("server.ops".to_string(), 8)
            ]
        );
        assert_eq!(reg.sum_matching("server.", ".ops"), 8);
        assert_eq!(reg.sum_matching("server.", ""), 17);
        assert_eq!(reg.to_text(), "server.bulk_in 9\nserver.ops 8\n");
        reg.reset();
        assert_eq!((primary.get(), reg.get("server.ops")), (0, Some(0)));
    }

    #[test]
    fn reset_zeroes_everything() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("executor.polls");
        c.add(10);
        reg.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(reg.get("executor.polls"), Some(0));
    }

    #[test]
    fn clones_share_the_map() {
        let reg = MetricsRegistry::new();
        let reg2 = reg.clone();
        reg.counter("x").inc();
        assert_eq!(reg2.get("x"), Some(1));
    }
}
