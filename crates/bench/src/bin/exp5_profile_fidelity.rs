//! Experiment E5 — profile fidelity of generated widgets.
//!
//! Section V-B's claim is that widget performance metrics are "centred
//! around the original workload's value". This harness quantifies it: for N
//! widgets it measures each widget's profile (instruction mix, branch
//! behaviour, memory behaviour) and reports the distance to (a) the widget's
//! own noised target profile and (b) the original reference profile, plus a
//! per-class instruction-mix error table.
//!
//! Usage: `exp5_profile_fidelity [N]` (default 200).

use hashcore_bench::{widget_count_from_args, Experiment};
use hashcore_gen::PipelineScratch;
use hashcore_isa::OpClass;
use hashcore_profile::stats::Summary;
use hashcore_profile::{per_class_error, ProfileDistance};
use hashcore_sim::WorkloadProfiler;

fn main() {
    let n = widget_count_from_args(200);
    let experiment = Experiment::standard();
    println!("== Experiment E5: profile fidelity ({n} widgets) ==\n");
    println!("reference profile:\n{}\n", experiment.reference);

    let profiler = WorkloadProfiler::new(experiment.core);
    let mut to_target = Vec::new();
    let mut to_reference = Vec::new();
    let mut class_errors: Vec<Vec<f64>> = vec![Vec::new(); OpClass::ALL.len()];

    // Prepared-execution scratch: generation, pre-decode and trace buffers
    // are reused across all N widgets instead of re-allocated per widget.
    let mut scratch = PipelineScratch::new();

    for i in 0..n {
        experiment.run_widget(i, &mut scratch);
        let widget = &scratch.widget;
        let measured = profiler.profile("widget", &widget.program, scratch.exec.trace());
        to_target.push(ProfileDistance::between(&measured, &widget.target.profile).mix_l1);
        to_reference.push(ProfileDistance::between(&measured, &experiment.reference).mix_l1);
        for (slot, (_, err)) in class_errors
            .iter_mut()
            .zip(per_class_error(&measured, &experiment.reference))
        {
            slot.push(err);
        }
    }

    println!(
        "instruction-mix L1 distance to the widget's own (noised) target: {}",
        Summary::from_values(&to_target).expect("non-empty")
    );
    println!(
        "instruction-mix L1 distance to the original reference profile:   {}\n",
        Summary::from_values(&to_reference).expect("non-empty")
    );

    println!(
        "{:<10} {:>10} {:>14} {:>14}",
        "class", "reference", "widget mean", "mean error"
    );
    for (class, errors) in OpClass::ALL.iter().zip(&class_errors) {
        let summary = Summary::from_values(errors).expect("non-empty");
        let reference = experiment.reference.mix.fraction(*class);
        println!(
            "{:<10} {:>10.4} {:>14.4} {:>+14.4}",
            class.name(),
            reference,
            reference + summary.mean,
            summary.mean
        );
    }

    println!("\nPaper: widget metrics form a distribution centred on the reference value,");
    println!("with positive-only noise on the instruction-type counts.");
}
