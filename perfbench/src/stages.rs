//! The stage runner: one HashCore evaluation run stage by stage through a
//! [`PipelineScratch`]'s public fields, with each stage timed.
//!
//! The stages are the ones `HashCore::hash_nonce_batch_with_scratch` and
//! `HashCore::hash_from_seed_with_scratch` compose: gate 1
//! ([`sha256_x4_parts`], four lanes at a time), widget generation
//! ([`WidgetGenerator::generate_into`]), pre-decoding
//! ([`PreparedProgram::prepare`]), execution
//! ([`Executor::execute_prepared`]) and gate 2 ([`Sha256`] over the seed
//! and the widget output). Every digest the runner produces is checked
//! against `HashCore::hash_with_scratch` by its callers.
//!
//! [`WidgetGenerator::generate_into`]: hashcore_gen::WidgetGenerator::generate_into
//! [`PreparedProgram::prepare`]: hashcore_vm::PreparedProgram::prepare

use crate::report::Outcome;
use hashcore::{HashCore, NONCE_LANES};
use hashcore_crypto::{sha256_x4_parts, Digest256, Sha256};
use hashcore_gen::PipelineScratch;
use hashcore_profile::HashSeed;
use hashcore_vm::{ExecConfig, Executor};
use std::time::Instant;

/// Stage times and sizes summed over every hash the runner ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTotals {
    /// Hashes evaluated.
    pub hashes: u64,
    /// Seconds in gate 1 (a four-lane pass is split evenly over its lanes).
    pub gate1_s: f64,
    /// Seconds in widget generation.
    pub generate_s: f64,
    /// Seconds in pre-decoding.
    pub prepare_s: f64,
    /// Seconds in execution.
    pub execute_s: f64,
    /// Seconds in gate 2.
    pub gate2_s: f64,
    /// Static instructions generated (terminators excluded).
    pub static_insns: u64,
    /// Dynamic instructions retired.
    pub dynamic_insns: u64,
    /// Widget output bytes.
    pub output_bytes: u64,
}

impl StageTotals {
    /// Seconds per hash summed over all five stages.
    pub fn seconds_per_hash(&self) -> f64 {
        (self.gate1_s + self.generate_s + self.prepare_s + self.execute_s + self.gate2_s)
            / self.hashes as f64
    }

    /// Records the per-hash stage metrics.
    pub fn report(&self, out: &mut Outcome) {
        let n = self.hashes as f64;
        let ns = |seconds: f64| seconds * 1e9 / n;
        out.set("crypto.gate1_ns", ns(self.gate1_s));
        out.set("gen.generate_ns", ns(self.generate_s));
        out.set("gen.static_insns", self.static_insns as f64 / n);
        out.set(
            "gen.ns_per_static_insn",
            self.generate_s * 1e9 / self.static_insns as f64,
        );
        out.set("vm.prepare_ns", ns(self.prepare_s));
        out.set("vm.execute_ns", ns(self.execute_s));
        out.set("vm.dynamic_insns", self.dynamic_insns as f64 / n);
        out.set(
            "vm.ns_per_dynamic_insn",
            self.execute_s * 1e9 / self.dynamic_insns as f64,
        );
        out.set("vm.output_bytes", self.output_bytes as f64 / n);
        out.set("crypto.gate2_ns", ns(self.gate2_s));
        out.set(
            "core.generation_share",
            self.generate_s / (self.seconds_per_hash() * n),
        );
    }
}

/// Runs HashCore evaluations stage by stage.
#[derive(Debug)]
pub struct StageRunner<'a> {
    pow: &'a HashCore,
    pipeline: PipelineScratch,
    /// What the runner has measured so far.
    pub totals: StageTotals,
}

impl<'a> StageRunner<'a> {
    /// A runner for `pow` whose buffers are pre-sized to the generator's
    /// worst-case bounds, as `HashScratch` is on its first hash, so the
    /// stages allocate nothing.
    ///
    /// # Panics
    ///
    /// Panics if `pow` evaluates more than one widget per hash (the runner
    /// times the single-widget pipeline).
    pub fn new(pow: &'a HashCore) -> Self {
        assert_eq!(
            pow.widgets_per_hash(),
            1,
            "the stage runner times one widget"
        );
        let bounds = pow.generator().bounds();
        let mut pipeline = PipelineScratch::new();
        pipeline.widget.program.reserve_blocks(bounds.max_blocks);
        pipeline.prepared.prime(
            bounds.max_blocks * (bounds.max_block_len + 1),
            bounds.max_blocks,
        );
        pipeline
            .exec
            .prime(bounds.max_memory_bytes, bounds.max_output_bytes);
        Self {
            pow,
            pipeline,
            totals: StageTotals::default(),
        }
    }

    /// Evaluates four inputs, lane `i` being the concatenation of
    /// `lanes[i]`, and returns their digests.
    ///
    /// # Errors
    ///
    /// A widget that fails to validate or execute.
    pub fn lanes(
        &mut self,
        lanes: [&[&[u8]]; NONCE_LANES],
    ) -> Result<[Digest256; NONCE_LANES], String> {
        let started = Instant::now();
        let seeds = sha256_x4_parts(lanes);
        self.totals.gate1_s += started.elapsed().as_secs_f64();
        let mut digests = [[0u8; 32]; NONCE_LANES];
        for (digest, seed) in digests.iter_mut().zip(seeds) {
            *digest = self.widget_and_gate2(HashSeed::new(seed))?;
        }
        Ok(digests)
    }

    fn widget_and_gate2(&mut self, seed: HashSeed) -> Result<Digest256, String> {
        let generator = self.pow.generator();
        let p = &mut self.pipeline;
        let t0 = Instant::now();
        generator.generate_into(&seed, &mut p.gen, &mut p.widget);
        let t1 = Instant::now();
        p.prepared
            .prepare(&p.widget.program)
            .map_err(|e| format!("prepare: {e:?}"))?;
        let t2 = Instant::now();
        let stats = Executor::new(ExecConfig {
            collect_trace: false,
            ..p.widget.exec_config()
        })
        .execute_prepared(&p.prepared, &mut p.exec)
        .map_err(|e| format!("execute: {e:?}"))?;
        let t3 = Instant::now();
        let mut gate = Sha256::new();
        gate.update(seed.as_bytes());
        gate.update(p.exec.output());
        let digest = gate.finalize();
        let t4 = Instant::now();

        let totals = &mut self.totals;
        totals.hashes += 1;
        totals.generate_s += (t1 - t0).as_secs_f64();
        totals.prepare_s += (t2 - t1).as_secs_f64();
        totals.execute_s += (t3 - t2).as_secs_f64();
        totals.gate2_s += (t4 - t3).as_secs_f64();
        totals.static_insns += p
            .widget
            .program
            .blocks()
            .iter()
            .map(|b| b.len() as u64)
            .sum::<u64>();
        totals.dynamic_insns += stats.dynamic_instructions;
        totals.output_bytes += p.exec.output().len() as u64;
        Ok(digest)
    }
}
