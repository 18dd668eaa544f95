//! # hashcore-bench
//!
//! Shared measurement machinery for the experiment harnesses.
//!
//! Every table and figure of the paper has a corresponding binary in
//! `src/bin/` (see DESIGN.md §4 and EXPERIMENTS.md for the index). The
//! binaries share the widget-measurement loop implemented here: build the
//! Leela-like reference profile from the Go-engine kernel, generate `n`
//! widgets from random hash seeds, execute each one, and measure it on the
//! simulated Ivy Bridge-class core — exactly the methodology of Section V of
//! the paper, with the hardware PMU replaced by the `hashcore-sim` model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod simbench;

use hashcore_crypto::sha256;
use hashcore_gen::{GenScratch, GeneratedWidget, PipelineScratch, WidgetGenerator};
use hashcore_profile::{HashSeed, PerformanceProfile, ProfileDistance};
use hashcore_sim::{CoreConfig, CoreModel, WorkloadProfiler};
use hashcore_vm::{ExecStats, Executor};
use hashcore_workloads::{Workload, WorkloadParams};

/// Measurements taken from one generated widget.
#[derive(Debug, Clone)]
pub struct WidgetMeasurement {
    /// Index of the widget in the experiment (also its seed counter).
    pub index: usize,
    /// Instructions per cycle on the simulated core.
    pub ipc: f64,
    /// Branch-prediction hit rate on the simulated core.
    pub branch_hit_rate: f64,
    /// Branch mispredictions per thousand instructions.
    pub branch_mpki: f64,
    /// Dynamic instruction count.
    pub dynamic_instructions: u64,
    /// Widget output size in bytes.
    pub output_bytes: usize,
    /// Number of register snapshots emitted.
    pub snapshots: u64,
    /// Static code size of the encoded widget program, in bytes.
    pub code_bytes: usize,
    /// Distance between the widget's measured profile and its noised target.
    pub fidelity: ProfileDistance,
    /// L1 data-cache miss rate.
    pub l1d_miss_rate: f64,
}

/// The experiment context: reference workload profile plus its own measured
/// IPC / branch behaviour on the simulated core.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The reference profile (from the Go-engine kernel by default).
    pub reference: PerformanceProfile,
    /// Core configuration used for all measurements.
    pub core: CoreConfig,
    generator: WidgetGenerator,
}

impl Experiment {
    /// Builds the standard experiment context: the Leela-like Go-engine
    /// kernel profiled on the Ivy Bridge-like core.
    pub fn standard() -> Self {
        Self::with_workload(Workload::GoEngine)
    }

    /// Builds an experiment context around any reference workload.
    pub fn with_workload(workload: Workload) -> Self {
        let core = CoreConfig::ivy_bridge_like();
        let reference = workload
            .reference_profile(&WorkloadParams::reference(), core)
            .expect("reference kernels always execute");
        let generator = WidgetGenerator::new(reference.clone());
        Self {
            reference,
            core,
            generator,
        }
    }

    /// The widget generator targeting the reference profile.
    pub fn generator(&self) -> &WidgetGenerator {
        &self.generator
    }

    /// The hash seed of the `index`-th experiment widget (seeds are the
    /// SHA-256 digests of the index, mirroring the paper's "randomly
    /// generated one thousand hash seeds").
    pub fn widget_seed(&self, index: usize) -> HashSeed {
        HashSeed::new(sha256(
            format!("hashcore-experiment-widget-{index}").as_bytes(),
        ))
    }

    /// Generates the `index`-th experiment widget.
    pub fn widget(&self, index: usize) -> GeneratedWidget {
        let mut scratch = GenScratch::new();
        let mut out = GeneratedWidget::default();
        self.widget_into(index, &mut scratch, &mut out);
        out
    }

    /// Generates the `index`-th experiment widget into reusable scratch
    /// state — the buffer-reusing form of [`Experiment::widget`] for
    /// harnesses sweeping many widgets.
    pub fn widget_into(&self, index: usize, scratch: &mut GenScratch, out: &mut GeneratedWidget) {
        self.generator
            .generate_into(&self.widget_seed(index), scratch, out);
    }

    /// Generates, executes and measures one widget.
    ///
    /// Convenience wrapper over [`Experiment::measure_widget_with`] with
    /// fresh scratch state.
    pub fn measure_widget(&self, index: usize) -> WidgetMeasurement {
        self.measure_widget_with(index, &mut PipelineScratch::new())
    }

    /// Generates the `index`-th experiment widget into `scratch.widget`
    /// (its [`hashcore_isa::Program`] included, for the simulator and the
    /// profiler) and executes it on the prepared path with the dynamic
    /// trace collected into `scratch.exec`.
    pub fn run_widget(&self, index: usize, scratch: &mut PipelineScratch) -> ExecStats {
        self.widget_into(index, &mut scratch.gen, &mut scratch.widget);
        scratch
            .prepared
            .prepare(&scratch.widget.program)
            .expect("generated widgets validate");
        Executor::new(scratch.widget.exec_config())
            .execute_prepared(&scratch.prepared, &mut scratch.exec)
            .expect("generated widgets always execute")
    }

    /// Generates, executes and measures one widget through reusable scratch
    /// state: the widget runs on the prepared-execution path and the
    /// simulator and profiler replay the trace straight out of the
    /// scratch's execution buffer, so sweeping many widgets re-allocates no
    /// trace, output or program storage.
    pub fn measure_widget_with(
        &self,
        index: usize,
        scratch: &mut PipelineScratch,
    ) -> WidgetMeasurement {
        let stats = self.run_widget(index, scratch);
        let widget = &scratch.widget;
        let trace = scratch.exec.trace();
        let sim = CoreModel::new(self.core).simulate(&widget.program, trace);
        let measured_profile =
            WorkloadProfiler::new(self.core).profile("widget", &widget.program, trace);
        WidgetMeasurement {
            index,
            ipc: sim.counters.ipc(),
            branch_hit_rate: sim.counters.branch_hit_rate(),
            branch_mpki: sim.counters.branch_mpki(),
            dynamic_instructions: stats.dynamic_instructions,
            output_bytes: scratch.exec.output().len(),
            snapshots: stats.snapshot_count,
            code_bytes: hashcore_isa::encode(&widget.program).len(),
            fidelity: ProfileDistance::between(&measured_profile, &widget.target.profile),
            l1d_miss_rate: sim.counters.l1d.miss_rate(),
        }
    }

    /// Measures `n` widgets (indices `0..n`) through one shared scratch.
    pub fn measure_widgets(&self, n: usize) -> Vec<WidgetMeasurement> {
        let mut scratch = PipelineScratch::new();
        (0..n)
            .map(|i| self.measure_widget_with(i, &mut scratch))
            .collect()
    }
}

/// Reads the widget count for a figure harness from the command line
/// (first positional argument), falling back to `default` — the paper uses
/// 1000 widgets; the default keeps a laptop run short.
pub fn widget_count_from_args(default: usize) -> usize {
    std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_experiment_measures_widgets() {
        let experiment = Experiment::standard();
        let m = experiment.measure_widget(0);
        assert!(m.ipc > 0.0);
        assert!(m.branch_hit_rate > 0.5);
        assert!(m.output_bytes > 0);
        assert!(m.code_bytes > 100);
        assert!(m.fidelity.mix_l1 < 0.5);
    }

    #[test]
    fn widget_count_defaults_when_unparsable() {
        assert_eq!(widget_count_from_args(123), 123);
    }
}
