//! Per-layer measurements of a traced run: times taken around calls
//! into each layer, plus the counters and histograms the program
//! exposes through a `sec_obs::Recorder` on `Options::obs`.

use sec_obs::{Counter, Gauge, Histogram, Recorder, Sink, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    peak_rss_mib_of("/proc/self")
}

/// Peak resident memory in MiB of the process whose `/proc` directory
/// is `proc_dir`; 0 if it cannot be read.
pub fn peak_rss_mib_of(proc_dir: &str) -> f64 {
    std::fs::read_to_string(format!("{proc_dir}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Sums the `signals` field of every `check.start` event: the product
/// machine's node count.
#[derive(Default)]
pub struct ProductNodes(AtomicU64);

impl Sink for ProductNodes {
    fn event(&self, _: u64, _: Option<&'static str>, name: &str, fields: &[(&'static str, Value)]) {
        if name != "check.start" {
            return;
        }
        for (k, v) in fields {
            if let (&"signals", Value::U64(n)) = (k, v) {
                self.0.fetch_add(*n, Ordering::Relaxed);
            }
        }
    }
}

/// Accumulated per-layer figures of the traced rounds of a run.
#[derive(Default)]
pub struct Layers {
    pub recorder: Recorder,
    pub product_nodes: Arc<ProductNodes>,
    pub load_s: f64,
    pub product_s: f64,
    pub fingerprint_s: f64,
    pub run_s: f64,
    pub classes: u64,
    pub serve: ServeLayers,
}

/// Figures read from the `sec serve` wire: the `req.*` phase events,
/// `job.start`, `serve.result` and the `metrics` verb.
#[derive(Default)]
pub struct ServeLayers {
    pub accept_ms: Vec<f64>,
    pub queue_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_insertions: u64,
    pub seeded_runs: u64,
    /// Request latency at the client, send to `serve.result`, and
    /// requests per second, both from the run's untraced round.
    pub client_ms: Vec<f64>,
    pub client_rps: f64,
}

/// Per-layer metric names and units, in the order they are printed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.load_ms", "ms"),
    ("netlist.product_ms", "ms"),
    ("netlist.product_nodes", "count"),
    ("netlist.fingerprint_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.self_ms", "ms"),
    ("core.rounds", "count"),
    ("core.splits", "count"),
    ("core.retime_extensions", "count"),
    ("core.classes", "count"),
    ("core.strash_merged", "count"),
    ("core.bank_splits", "count"),
    ("core.batched_calls", "count"),
    ("core.batch_pairs_decoded", "count"),
    ("sat.calls", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.restarts", "count"),
    ("sat.solvers_built", "count"),
    ("sat.busy_ms", "ms"),
    ("sat.call_p50_us", "us"),
    ("sat.call_p90_us", "us"),
    ("sat.call_max_us", "us"),
    ("sim.amplify_patterns", "count"),
    ("sim.amplify_word_hits", "count"),
    ("sim.amplify_hit_ratio", "ratio"),
    ("bdd.nodes_allocated", "count"),
    ("bdd.peak_nodes", "count"),
    ("bdd.gc_runs", "count"),
    ("bdd.busy_ms", "ms"),
    ("bdd.op_p50_us", "us"),
    ("bdd.op_p90_us", "us"),
    ("limits.cancellation_polls", "count"),
    ("serve.run_p50_ms", "ms"),
    ("serve.run_p90_ms", "ms"),
    ("serve.accept_p50_ms", "ms"),
    ("serve.queue_p50_ms", "ms"),
    ("serve.queue_p90_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_insertions", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.seeded_runs", "count"),
    ("serve.client_p50_ms", "ms"),
    ("serve.client_p90_ms", "ms"),
    ("serve.client_rps", "1/s"),
    ("obs.trace_overhead_pct", "%"),
];

impl Layers {
    /// The per-layer metrics, each divided by `rounds` where it is a sum
    /// over the traced rounds, so figures compare across run lengths.
    pub fn metrics(&self, rounds: u64, overhead_pct: f64) -> Vec<(&'static str, f64)> {
        let per = |x: f64| x / rounds.max(1) as f64;
        let c = |k: Counter| per(self.recorder.counter(k) as f64);
        let sat = self.recorder.histogram(Histogram::SatCallUs);
        let bdd = self.recorder.histogram(Histogram::BddOpUs);
        let sat_busy_ms = per(sat.sum as f64 / 1000.0);
        let bdd_busy_ms = per(bdd.sum as f64 / 1000.0);
        let run_ms = per(self.run_s * 1000.0);
        let patterns = self.recorder.counter(Counter::AmplifyPatterns) as f64;
        let hits = self.recorder.counter(Counter::AmplifyWordHits) as f64;
        let s = &self.serve;
        let pct = |xs: &[f64], q: f64| crate::stats::tail_percentile(xs, q).unwrap_or(0.0);
        let lookups = s.cache_hits + s.cache_misses;
        let values = vec![
            per(self.load_s * 1000.0),
            per(self.product_s * 1000.0),
            per(self.product_nodes.0.load(Ordering::Relaxed) as f64),
            per(self.fingerprint_s * 1000.0),
            run_ms,
            run_ms - sat_busy_ms - bdd_busy_ms,
            c(Counter::Rounds),
            c(Counter::Splits),
            c(Counter::RetimeExtensions),
            per(self.classes as f64),
            c(Counter::StrashMerged),
            c(Counter::BankSplits),
            c(Counter::BatchedCalls),
            c(Counter::BatchPairsDecoded),
            c(Counter::SatSolverCalls),
            c(Counter::SatConflicts),
            c(Counter::SatPropagations),
            c(Counter::SatDecisions),
            c(Counter::SatRestarts),
            c(Counter::SatSolverConstructions),
            sat_busy_ms,
            sat.quantile(0.5) as f64,
            sat.quantile(0.9) as f64,
            sat.max as f64,
            per(patterns),
            per(hits),
            if patterns > 0.0 {
                hits / (patterns / 64.0)
            } else {
                0.0
            },
            c(Counter::BddNodesAllocated),
            self.recorder.gauge(Gauge::PeakBddNodes) as f64,
            c(Counter::BddGcRuns),
            bdd_busy_ms,
            bdd.quantile(0.5) as f64,
            bdd.quantile(0.9) as f64,
            c(Counter::CancellationPolls),
            pct(&s.run_ms, 0.5),
            pct(&s.run_ms, 0.9),
            pct(&s.accept_ms, 0.5),
            pct(&s.queue_ms, 0.5),
            pct(&s.queue_ms, 0.9),
            per(s.cache_hits as f64),
            per(s.cache_misses as f64),
            per(s.cache_insertions as f64),
            if lookups > 0 {
                s.cache_hits as f64 / lookups as f64
            } else {
                0.0
            },
            per(s.seeded_runs as f64),
            pct(&s.client_ms, 0.5),
            pct(&s.client_ms, 0.9),
            s.client_rps,
            overhead_pct,
        ];
        assert_eq!(values.len(), PER_LAYER.len(), "one value per metric");
        PER_LAYER.iter().map(|(n, _)| *n).zip(values).collect()
    }
}
