//! Property-based equivalence of the scratch-reuse generation paths: for
//! any stream of seeds, `generate_into` driven through one long-lived
//! scratch and output widget must produce exactly what fresh-allocation
//! `generate` produces — program bytes, target profile, snapshot
//! expectation, all of it — and `PipelineScratch::run`, which pre-decodes
//! straight from the program builder, must prepare exactly what
//! `PreparedProgram::new` makes of that program.

use hashcore_gen::{GenScratch, GeneratedWidget, PipelineScratch, WidgetGenerator};
use hashcore_isa::encode;
use hashcore_profile::{HashSeed, PerformanceProfile};
use hashcore_vm::{ExecConfig, Executor, PreparedProgram};
use proptest::prelude::*;

fn small_generator(target_instructions: u64) -> WidgetGenerator {
    let mut profile = PerformanceProfile::leela_like();
    profile.target_dynamic_instructions = target_instructions.clamp(2_000, 30_000);
    WidgetGenerator::new(profile)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `generate_into` ≡ `generate`: identical `Program` for an identical
    /// seed, even when the scratch and output widget are reused across a
    /// stream of different seeds (the mining-loop usage).
    #[test]
    fn generate_into_matches_generate_for_seed_streams(
        seeds in prop::collection::vec(prop::collection::vec(any::<u8>(), 32..33), 1..5),
        target in 2_000u64..30_000,
    ) {
        let generator = small_generator(target);
        let mut scratch = GenScratch::new();
        let mut widget = GeneratedWidget::default();
        for bytes in &seeds {
            let mut raw = [0u8; 32];
            raw.copy_from_slice(bytes);
            let seed = HashSeed::new(raw);

            let fresh = generator.generate(&seed);
            generator.generate_into(&seed, &mut scratch, &mut widget);

            prop_assert_eq!(&widget.program, &fresh.program);
            prop_assert_eq!(encode(&widget.program), encode(&fresh.program));
            prop_assert_eq!(&widget.target, &fresh.target);
            prop_assert_eq!(widget.seed, fresh.seed);
            prop_assert_eq!(widget.expected_snapshots, fresh.expected_snapshots);
            prop_assert!(widget.program.validate().is_ok());
        }
    }

    /// The fused generate→prepare path ≡ `PreparedProgram::new` over
    /// `generate`'s program, at both benchmark widget sizes, through one
    /// pipeline reused across a stream of seeds; executing either gives the
    /// same output.
    #[test]
    fn fused_prepare_matches_preparing_the_generated_program(
        seeds in prop::collection::vec(prop::array::uniform32(any::<u8>()), 1..4),
        large in any::<bool>(),
    ) {
        let mut profile = PerformanceProfile::leela_like();
        profile.target_dynamic_instructions = if large { 128_000 } else { 8_000 };
        let generator = WidgetGenerator::new(profile);
        let mut pipeline = PipelineScratch::new();
        for raw in seeds {
            let seed = HashSeed::new(raw);
            let stats = pipeline.run(&generator, &seed, false).unwrap();

            let fresh = generator.generate(&seed);
            prop_assert!(fresh.program.validate().is_ok());
            let reference = PreparedProgram::new(&fresh.program).unwrap();
            prop_assert_eq!(&pipeline.prepared, &reference);
            prop_assert_eq!(&pipeline.widget.target, &fresh.target);
            prop_assert_eq!(pipeline.widget.seed, fresh.seed);
            prop_assert_eq!(pipeline.widget.expected_snapshots, fresh.expected_snapshots);

            let execution = Executor::new(ExecConfig {
                collect_trace: false,
                ..fresh.exec_config()
            })
            .execute(&fresh.program)
            .unwrap();
            prop_assert_eq!(pipeline.exec.output(), &execution.output[..]);
            prop_assert_eq!(stats.dynamic_instructions, execution.dynamic_instructions);
        }
    }

    /// The generator's worst-case bounds dominate every actual widget.
    #[test]
    fn generation_bounds_dominate_actual_widgets(
        fill in any::<u8>(),
        target in 2_000u64..30_000,
    ) {
        let generator = small_generator(target);
        let bounds = generator.bounds();
        let widget = generator.generate(&HashSeed::new([fill; 32]));
        prop_assert!(widget.program.blocks().len() <= bounds.max_blocks);
        let longest = widget
            .program
            .blocks()
            .iter()
            .map(|b| b.instructions.len())
            .max()
            .unwrap_or(0);
        prop_assert!(longest <= bounds.max_block_len, "{longest} > {}", bounds.max_block_len);
        prop_assert!(widget.program.memory_size() <= bounds.max_memory_bytes);
        prop_assert!(widget.expected_output_bytes() <= bounds.max_output_bytes);
    }
}
