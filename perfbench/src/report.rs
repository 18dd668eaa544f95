//! Metric names, units and the result line every run prints.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a run
//! with `--trace 0` reports every [`END_TO_END`] metric and a run with
//! `--trace 1` every [`PER_LAYER`] metric. A per-layer metric the chosen
//! workload does not exercise reads 0 (see the table in `README.md`).

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Each is defined on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, grouped by the workload that
/// measures them.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Hash pipeline stages, per hash (mine-8k at 8k; sync-128k at 128k).
    ("crypto.gate1_ns", "ns"),
    ("gen.generate_ns", "ns"),
    ("gen.static_insns", "count"),
    ("gen.ns_per_static_insn", "ns"),
    ("vm.prepare_ns", "ns"),
    ("vm.execute_ns", "ns"),
    ("vm.dynamic_insns", "count"),
    ("vm.ns_per_dynamic_insn", "ns"),
    ("vm.output_bytes", "bytes"),
    ("crypto.gate2_ns", "ns"),
    ("core.generation_share", "ratio"),
    // mine-8k only.
    ("core.allocations_per_hash", "count"),
    ("core.parallel_speedup", "ratio"),
    ("bench.trace_coverage", "ratio"),
    // sync-128k only.
    ("core.ibd_pow_evals_per_block", "count"),
    ("chain.ibd_worker_pow_ms_per_block", "ms"),
    ("net.ibd_caller_pow_ms_per_block", "ms"),
    ("net.ibd_non_pow_share", "ratio"),
    ("core.relay_pow_evals_per_block", "count"),
    ("core.restart_pow_evals_per_block", "count"),
    ("core.pow_ms", "ms"),
    ("net.messages_per_ibd_block", "count"),
    ("net.wire_bytes_per_ibd_block", "bytes"),
    ("store.bytes_written_per_block", "bytes"),
    ("store.open_ms", "ms"),
    ("chain.restore_ms", "ms"),
    ("core.allocations_per_ibd_block", "count"),
    ("node.restart_s", "s"),
    // sim-64 only.
    ("net.events", "count"),
    ("net.blocks_mined", "count"),
    ("net.tip_height", "count"),
    ("net.reorgs", "count"),
    ("net.max_reorg_depth", "count"),
    ("net.segments_synced", "count"),
    ("net.segment_blocks", "count"),
    ("net.rejections", "count"),
    ("net.peer_evictions", "count"),
    ("net.anchor_rotations", "count"),
    ("net.stale_share", "ratio"),
    ("net.messages_per_block", "count"),
    ("net.bytes_per_block", "bytes"),
    ("net.events_per_s_1t", "1/s"),
    ("net.parallel_speedup", "ratio"),
    ("core.pow_share", "ratio"),
    ("core.pow_evals_per_event", "count"),
    ("net.sync_wall_share", "ratio"),
    // Every workload.
    ("bench.wall_throughput_per_s", "1/s"),
    ("bench.trace_overhead", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (nonces, blocks, node tips).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    checks: Vec<(String, bool)>,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a correctness check; any failed check makes the run
    /// incorrect. Repeated checks of one name fold into one verdict.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        match self.checks.iter_mut().find(|(n, _)| *n == name) {
            Some((_, verdict)) => *verdict &= ok,
            None => self.checks.push((name, ok)),
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// `true` when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The human-readable report followed by the one-line JSON result.
    ///
    /// With `trace` the metrics are [`PER_LAYER`], otherwise
    /// [`END_TO_END`]. A metric the run did not set reads 0 in a traced
    /// run; a missing or non-finite end-to-end metric makes the run
    /// incorrect.
    pub fn render(&mut self, trace: bool) -> String {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let mut values = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = self.metrics.iter().rev().find(|(n, _)| *n == name);
            let value = match value {
                Some(&(_, v)) if v.is_finite() => v,
                Some(_) => {
                    self.check(format!("{name} is finite"), false);
                    0.0
                }
                None if trace => 0.0,
                None => {
                    self.check(format!("{name} was measured"), false);
                    0.0
                }
            };
            values.push((name, unit, value));
        }

        let mut out = String::new();
        for (name, ok) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAILED" };
            let _ = writeln!(out, "check {name:<48} {verdict}");
        }
        for &(name, unit, value) in &values {
            let _ = writeln!(out, "{name:<36} {value:>16.6} {unit}");
        }
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit, value)) in values.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}
