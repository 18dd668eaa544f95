//! Prepared execution: validate-once, pre-decoded programs plus reusable
//! execution state.
//!
//! The naive [`crate::Executor::execute`] path pays per-run costs that the
//! mining hot loop (hash → generate → execute → hash, once per nonce) cannot
//! afford: it re-validates the program, re-derives the block-major pc
//! layout, allocates and re-seeds a fresh [`MachineState`], and allocates
//! fresh output/trace buffers. [`PreparedProgram`] and [`ExecScratch`] split
//! those costs out:
//!
//! * [`PreparedProgram`] validates the program once and flattens its blocks
//!   into a block-major slot array in which the array index *is* the static
//!   program counter and every terminator's successor is resolved to the
//!   target's slot index — the dispatch loop never chases
//!   `BlockId → block → instruction iterator` indirection again. The mining
//!   path flattens straight out of the widget generator's
//!   [`ProgramBuilder`] ([`PreparedProgram::prepare_built`]), skipping both
//!   the [`Program`] and its re-validation;
//! * [`ExecScratch`] owns the machine state and the output/trace buffers and
//!   is re-seeded in place, so repeated executions perform no heap
//!   allocation once the buffers have grown to their steady-state sizes.
//!
//! [`crate::Executor::execute_prepared`] is the entry point; the classic
//! [`crate::Executor::execute`] is a thin wrapper that prepares, runs and
//! moves the scratch buffers into an owned [`crate::Execution`]. Both paths
//! retire the identical instruction sequence and therefore produce
//! byte-identical output, traces and statistics (asserted by the
//! equivalence tests in `tests/proptest_executor.rs`).

use crate::state::MachineState;
use hashcore_isa::{
    BlockId, BranchCond, Instruction, IntReg, Program, ProgramBuilder, Terminator, ValidateError,
};

/// One pre-decoded slot of a [`PreparedProgram`].
///
/// The slot array is block-major — each block contributes its body
/// instructions followed by one terminator slot — so a slot's index equals
/// the static program counter the naive executor would assign it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Slot {
    /// A straight-line body instruction.
    Inst(Instruction),
    /// An unconditional jump, resolved to the target block's first slot.
    Jump {
        /// Slot index (= static pc) of the target block's first slot.
        target: u32,
    },
    /// A conditional branch with both successors resolved.
    Branch {
        /// Comparison applied to the two source registers.
        cond: BranchCond,
        /// First comparison operand.
        src1: IntReg,
        /// Second comparison operand.
        src2: IntReg,
        /// Slot index of the successor when the condition holds.
        taken: u32,
        /// Slot index of the successor when the condition does not hold.
        not_taken: u32,
    },
    /// Terminates execution.
    Halt,
}

/// A validated, pre-decoded widget program ready for repeated execution.
///
/// Construction from a [`Program`] runs [`Program::validate`] exactly once;
/// afterwards the interpreter dispatch loop indexes straight into the
/// flattened slot array. Reuse one value across runs via
/// [`PreparedProgram::prepare`] or [`PreparedProgram::prepare_built`] to
/// keep the slot buffer's allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PreparedProgram {
    pub(crate) slots: Vec<Slot>,
    pub(crate) entry_pc: u32,
    pub(crate) memory_size: usize,
    block_count: usize,
    /// Reused by [`PreparedProgram::prepare`] so re-preparation is
    /// allocation-free at steady state.
    block_starts_buf: Vec<u32>,
}

impl PreparedProgram {
    /// Validates and pre-decodes `program`.
    ///
    /// # Errors
    ///
    /// Returns the [`ValidateError`] of [`Program::validate`] when the
    /// program is structurally invalid.
    pub fn new(program: &Program) -> Result<Self, ValidateError> {
        let mut prepared = Self::default();
        prepared.prepare(program)?;
        Ok(prepared)
    }

    /// Re-prepares `self` from `program` in place, reusing the slot buffer.
    ///
    /// This is the zero-allocation path for callers that hold a
    /// [`Program`]: once the buffer has grown to the steady-state program
    /// size, preparation performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns the [`ValidateError`] of [`Program::validate`] when the
    /// program is structurally invalid; `self` is left unspecified but safe
    /// to reuse.
    pub fn prepare(&mut self, program: &Program) -> Result<(), ValidateError> {
        program.validate()?;
        self.flatten(
            program
                .blocks()
                .iter()
                .map(|block| (&block.instructions[..], block.terminator)),
            program.entry(),
            program.memory_size(),
        );
        Ok(())
    }

    /// Re-prepares `self` straight from a finished [`ProgramBuilder`]: the
    /// result equals `prepare(&builder.finish(entry))`, but no [`Program`]
    /// is built and nothing is validated again.
    ///
    /// This is the mining path's input: the widget generator's output is
    /// valid by construction (a debug build still checks it), so the
    /// validation pass and the copy into per-block buffers are skipped.
    ///
    /// # Panics
    ///
    /// Panics if a block is still open or a reserved block was never
    /// populated, as [`ProgramBuilder::finish`] does.
    pub fn prepare_built(&mut self, builder: &ProgramBuilder, entry: BlockId) {
        debug_assert_eq!(builder.validate(entry), Ok(()));
        self.flatten(builder.blocks(), entry, builder.memory_size());
    }

    /// Lays `blocks` (in id order, each as its body and terminator) out as
    /// the block-major slot array, resolving every successor to its
    /// target's first slot. The caller has established that the blocks
    /// form a valid program.
    fn flatten<'a, I>(&mut self, blocks: I, entry: BlockId, memory_size: usize)
    where
        I: ExactSizeIterator<Item = (&'a [Instruction], Terminator)> + Clone,
    {
        // First pass: compute the slot index of every block's first slot.
        let mut next = 0u32;
        let mut block_starts = std::mem::take(&mut self.block_starts_buf);
        block_starts.clear();
        block_starts.reserve(blocks.len());
        for (body, _) in blocks.clone() {
            block_starts.push(next);
            next += body.len() as u32 + 1;
        }

        // Second pass: emit body instructions and resolved terminators.
        self.slots.clear();
        self.slots.reserve(next as usize);
        let resolve = |id: BlockId| block_starts[id.index()];
        for (body, terminator) in blocks {
            self.slots.extend(body.iter().map(|&inst| Slot::Inst(inst)));
            self.slots.push(match terminator {
                Terminator::Halt => Slot::Halt,
                Terminator::Jump(target) => Slot::Jump {
                    target: resolve(target),
                },
                Terminator::Branch {
                    cond,
                    src1,
                    src2,
                    taken,
                    not_taken,
                } => Slot::Branch {
                    cond,
                    src1,
                    src2,
                    taken: resolve(taken),
                    not_taken: resolve(not_taken),
                },
            });
        }

        self.entry_pc = block_starts[entry.index()];
        self.memory_size = memory_size;
        self.block_count = block_starts.len();
        self.block_starts_buf = block_starts;
    }

    /// Size of the program's data segment in bytes.
    pub fn memory_size(&self) -> usize {
        self.memory_size
    }

    /// Number of basic blocks in the source program.
    pub fn block_count(&self) -> usize {
        self.block_count
    }

    /// Total number of static pc slots (equals
    /// [`Program::pc_slot_count`] of the source program).
    pub fn pc_slot_count(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Pre-sizes the slot array for programs of up to `slots` pc slots and
    /// `blocks` blocks, so a caller with a worst-case bound pays all growth
    /// up front instead of on whichever program first hits the maximum.
    pub fn prime(&mut self, slots: usize, blocks: usize) {
        if self.slots.capacity() < slots {
            self.slots.reserve_exact(slots - self.slots.len());
        }
        if self.block_starts_buf.capacity() < blocks {
            self.block_starts_buf
                .reserve_exact(blocks - self.block_starts_buf.len());
        }
    }
}

/// Reusable execution state: the machine state plus output and trace
/// buffers.
///
/// A scratch is the per-worker unit of parallel mining: each mining thread
/// owns one and re-seeds it for every nonce, so the whole hash evaluation
/// allocates nothing once buffers reach steady state.
#[derive(Debug, Clone)]
pub struct ExecScratch {
    pub(crate) state: MachineState,
    pub(crate) output: Vec<u8>,
    pub(crate) trace: crate::trace::Trace,
}

impl Default for ExecScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            state: MachineState::new(8),
            output: Vec::new(),
            trace: crate::trace::Trace::new(),
        }
    }

    /// The widget output bytes of the most recent execution.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// The dynamic trace of the most recent execution (empty unless the
    /// executor was configured with `collect_trace`).
    pub fn trace(&self) -> &crate::trace::Trace {
        &self.trace
    }

    /// The architectural state at halt of the most recent execution.
    pub fn final_state(&self) -> &MachineState {
        &self.state
    }

    /// Pre-sizes the machine memory and output buffer, so a caller that
    /// knows upper bounds over every program it will run (the widget
    /// generator's noise caps bound both) pays all growth up front instead
    /// of on whichever run first hits the maximum.
    pub fn prime(&mut self, memory_size: usize, output_bytes: usize) {
        self.state.reset(memory_size.max(8).next_power_of_two());
        if self.output.capacity() < output_bytes {
            self.output.reserve_exact(output_bytes - self.output.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecConfig, Executor};
    use hashcore_isa::{IntAluOp, ProgramBuilder, Terminator};

    fn two_block_program() -> Program {
        two_block_builder().0.finish(BlockId(0))
    }

    /// The builder of [`two_block_program`], with its entry block opened
    /// second so arena order differs from id order.
    fn two_block_builder() -> (ProgramBuilder, BlockId) {
        let mut b = ProgramBuilder::new(256);
        let entry = b.reserve_block();
        let second = b.begin_block();
        b.int_alu(IntAluOp::Add, IntReg(2), IntReg(0), IntReg(1));
        b.snapshot();
        b.terminate(Terminator::Halt);
        b.begin_reserved(entry);
        b.load_imm(IntReg(0), 1);
        b.load_imm(IntReg(1), 2);
        b.terminate(Terminator::Jump(second));
        (b, entry)
    }

    #[test]
    fn preparing_from_the_builder_equals_preparing_the_program() {
        let (builder, entry) = two_block_builder();
        let reference = PreparedProgram::new(&builder.clone().finish(entry)).expect("validates");
        // Into a fresh value and into one still holding a larger program.
        let mut prepared = PreparedProgram::default();
        prepared.prepare_built(&builder, entry);
        assert_eq!(prepared, reference);
        let mut reused = PreparedProgram::new(&larger_program()).expect("validates");
        reused.prepare_built(&builder, entry);
        assert_eq!(reused, reference);
    }

    #[test]
    #[should_panic(expected = "reserved block bb1 was never populated")]
    fn preparing_from_the_builder_rejects_unpopulated_blocks() {
        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        let dangling = b.reserve_block();
        b.terminate(Terminator::Jump(dangling));
        PreparedProgram::default().prepare_built(&b, entry);
    }

    fn larger_program() -> Program {
        let mut b = ProgramBuilder::new(4096);
        let entry = b.begin_block();
        for i in 0..8 {
            b.load_imm(IntReg(i), i64::from(i));
        }
        let blocks = [b.reserve_block(), b.reserve_block()];
        b.terminate(Terminator::Jump(blocks[0]));
        b.begin_reserved(blocks[0]);
        b.int_alu(IntAluOp::Xor, IntReg(3), IntReg(1), IntReg(2));
        b.terminate(Terminator::Jump(blocks[1]));
        b.begin_reserved(blocks[1]);
        b.snapshot();
        b.terminate(Terminator::Halt);
        b.finish(entry)
    }

    #[test]
    fn slot_indices_equal_the_block_major_pc_layout() {
        let program = two_block_program();
        let prepared = PreparedProgram::new(&program).expect("validates");
        // Block 0: two instructions at pc 0,1 and the jump at pc 2;
        // block 1 starts at pc 3 with two instructions and halt at pc 5.
        assert_eq!(prepared.pc_slot_count(), program.pc_slot_count());
        assert_eq!(prepared.entry_pc, 0);
        assert_eq!(prepared.block_count(), 2);
        assert_eq!(prepared.memory_size(), 256);
        assert!(matches!(prepared.slots[2], Slot::Jump { target: 3 }));
        assert!(matches!(prepared.slots[5], Slot::Halt));
    }

    #[test]
    fn invalid_programs_are_rejected_once_at_preparation() {
        let invalid = Program::new(Vec::new(), BlockId(0), 64);
        assert!(PreparedProgram::new(&invalid).is_err());
        // A failed re-preparation leaves the value safe to reuse.
        let valid = two_block_program();
        let mut prepared = PreparedProgram::new(&valid).expect("validates");
        assert!(prepared.prepare(&invalid).is_err());
        prepared.prepare(&valid).expect("validates again");
        let mut scratch = ExecScratch::new();
        let stats = Executor::new(ExecConfig::default())
            .execute_prepared(&prepared, &mut scratch)
            .expect("executes");
        assert_eq!(stats.snapshot_count, 1);
        assert_eq!(scratch.final_state().int_regs[2], 3);
    }

    #[test]
    fn preparing_a_smaller_program_reuses_the_slot_buffer() {
        let program = two_block_program();
        let mut prepared = PreparedProgram::new(&program).expect("validates");
        let capacity = prepared.slots.capacity();

        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        b.snapshot();
        b.terminate(Terminator::Halt);
        let tiny = b.finish(entry);

        prepared.prepare(&tiny).expect("validates");
        assert_eq!(prepared.pc_slot_count(), 2);
        assert_eq!(prepared.memory_size(), 64);
        assert!(prepared.slots.capacity() >= capacity, "capacity retained");
    }
}
