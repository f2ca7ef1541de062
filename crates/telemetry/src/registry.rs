//! Named metrics registry: counters and latency histograms.
//!
//! Components register their metrics under dotted names
//! (`verifier.committed_txns`, `shim.3.batcher.released_full`) and keep a
//! cloned handle; the registry and the component share the same atomic, so
//! reads through the registry always see the live value. See
//! `OBSERVABILITY.md` for the naming conventions.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::Histogram;

/// A monotonically increasing counter. `Clone` shares the underlying
/// atomic, so a component and the [`Registry`] observe the same value.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One registered metric.
#[derive(Clone, Debug)]
pub enum Metric {
    /// A monotone counter.
    Counter(Counter),
    /// A latency histogram (microseconds).
    Histogram(Histogram),
}

/// The process-wide (or run-wide) metric namespace. Registration is
/// idempotent: registering an existing name returns a handle to the same
/// metric, so re-wiring a component never forks the count.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or fetches) the counter called `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Registers (or fetches) the histogram called `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Registers an existing histogram handle under `name` — for a
    /// histogram that lives behind shared state, where the handle cannot
    /// be swapped after construction.
    pub fn bind_histogram(&self, name: &str, histogram: &Histogram) {
        self.metrics
            .lock()
            .expect("registry poisoned")
            .insert(name.to_string(), Metric::Histogram(histogram.clone()));
    }

    /// Current value of the counter called `name` (0 when absent — a
    /// component that never registered simply contributes nothing).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.metrics.lock().expect("registry poisoned").get(name) {
            Some(Metric::Counter(c)) => c.get(),
            _ => 0,
        }
    }

    /// Sum of every counter whose dotted name ends in `.suffix` — the
    /// cross-component rollup (`sum_counters("pinned_spawns")` adds the
    /// per-shim invoker counters).
    #[must_use]
    pub fn sum_counters(&self, suffix: &str) -> u64 {
        let dotted = format!(".{suffix}");
        self.metrics
            .lock()
            .expect("registry poisoned")
            .iter()
            .filter(|(name, _)| name.ends_with(&dotted) || name.as_str() == suffix)
            .filter_map(|(_, m)| match m {
                Metric::Counter(c) => Some(c.get()),
                _ => None,
            })
            .sum()
    }

    /// A point-in-time copy of every metric, sorted by name (the
    /// `BTreeMap` order) — the exporter's input.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, Metric)> {
        self.metrics
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Renders the registry as a deterministic `name value` table
    /// (histograms print count/mean/p50/p99).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, metric) in self.snapshot() {
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
                Metric::Histogram(h) => out.push_str(&format!(
                    "{name} count={} mean_us={:.1} p50_us={} p99_us={}\n",
                    h.count(),
                    h.mean_us(),
                    h.percentile_us(0.5),
                    h.percentile_us(0.99),
                )),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let registry = Registry::new();
        let a = registry.counter("x.hits");
        let b = registry.counter("x.hits");
        a.inc();
        b.add(2);
        assert_eq!(registry.counter_value("x.hits"), 3);
    }

    #[test]
    fn suffix_sum_rolls_up_across_components() {
        let registry = Registry::new();
        registry.counter("shim.0.invoker.pinned_spawns").add(3);
        registry.counter("shim.1.invoker.pinned_spawns").add(4);
        registry
            .counter("shim.1.invoker.placement_fallbacks")
            .add(9);
        assert_eq!(registry.sum_counters("pinned_spawns"), 7);
        assert_eq!(registry.sum_counters("placement_fallbacks"), 9);
        assert_eq!(registry.sum_counters("absent"), 0);
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let registry = Registry::new();
        registry.counter("b.second").add(2);
        registry.counter("a.first").add(1);
        registry.counter("c.third").add(3);
        let text = registry.render();
        let first = text.find("a.first 1").expect("a.first missing");
        let second = text.find("b.second 2").expect("b.second missing");
        let third = text.find("c.third 3").expect("c.third missing");
        assert!(first < second && second < third);
    }

    #[test]
    fn histograms_register_and_render() {
        let registry = Registry::new();
        let h = registry.histogram("stage.apply_us");
        h.record(100);
        h.record(200);
        assert!(registry.render().contains("stage.apply_us count=2"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("x");
        registry.histogram("x");
    }
}
