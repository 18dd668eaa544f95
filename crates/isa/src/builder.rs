//! Ergonomic construction of widget programs.

use crate::block::{BasicBlock, BlockId, Terminator};
use crate::inst::{BranchCond, FpOp, Instruction, IntAluOp, IntMulOp, VecOp};
use crate::program::{validate_blocks, Program, ValidateError};
use crate::reg::{FpReg, IntReg, VecReg};

/// Incremental builder for [`Program`]s.
///
/// Blocks are opened with [`ProgramBuilder::begin_block`] (which returns the
/// id that branches can target, even before the block is populated),
/// populated with the instruction helpers, and closed with
/// [`ProgramBuilder::terminate`]. Both the reference workloads and the widget
/// generator construct programs through this type.
///
/// Block bodies are appended to one flat instruction arena and each block id
/// maps to its span of it, so building a program copies no instruction and
/// a reused builder allocates nothing once the arena has grown.
/// [`ProgramBuilder::blocks`] reads the finished program in place; that is
/// how the mining path pre-decodes a widget without materialising a
/// [`Program`].
///
/// # Examples
///
/// ```
/// use hashcore_isa::{ProgramBuilder, IntReg, IntAluOp, BranchCond, Terminator};
///
/// // A counted loop: r0 counts down from 10, r1 accumulates.
/// let mut b = ProgramBuilder::new(1 << 12);
/// let entry = b.begin_block();
/// b.load_imm(IntReg(0), 10);
/// b.load_imm(IntReg(1), 0);
/// let body = b.reserve_block();
/// let exit = b.reserve_block();
/// b.terminate(Terminator::Jump(body));
///
/// b.begin_reserved(body);
/// b.int_alu_imm(IntAluOp::Add, IntReg(1), IntReg(1), 3);
/// b.int_alu_imm(IntAluOp::Sub, IntReg(0), IntReg(0), 1);
/// b.load_imm(IntReg(2), 0);
/// b.terminate(Terminator::Branch {
///     cond: BranchCond::Ne,
///     src1: IntReg(0),
///     src2: IntReg(2),
///     taken: body,
///     not_taken: exit,
/// });
///
/// b.begin_reserved(exit);
/// b.snapshot();
/// b.terminate(Terminator::Halt);
///
/// let program = b.finish(entry);
/// assert!(program.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    /// Every block body, back to back in the order the blocks were opened;
    /// the open block's body is the tail.
    arena: Vec<Instruction>,
    /// Per block id: its body's span of `arena` and its terminator, or
    /// `None` until the block is terminated.
    spans: Vec<Option<BlockSpan>>,
    /// The open block and the arena offset where its body starts.
    current: Option<(BlockId, usize)>,
    memory_size: usize,
}

/// A terminated block: `arena[start..end]` plus its terminator.
#[derive(Debug, Clone, Copy)]
struct BlockSpan {
    start: usize,
    end: usize,
    terminator: Terminator,
}

impl Default for ProgramBuilder {
    /// An empty builder with the minimum 8-byte data segment; callers that
    /// reuse a default-constructed builder start it with
    /// [`ProgramBuilder::reset`].
    fn default() -> Self {
        Self::new(8)
    }
}

impl ProgramBuilder {
    /// Creates a builder whose program owns a data segment of
    /// `memory_size` bytes (rounded up to the next power of two).
    pub fn new(memory_size: usize) -> Self {
        Self {
            arena: Vec::new(),
            spans: Vec::new(),
            current: None,
            memory_size: memory_size.max(8).next_power_of_two(),
        }
    }

    /// Clears the builder for a new program with a `memory_size`-byte data
    /// segment, retaining the instruction arena's and block table's
    /// allocations.
    pub fn reset(&mut self, memory_size: usize) {
        self.arena.clear();
        self.spans.clear();
        self.current = None;
        self.memory_size = memory_size.max(8).next_power_of_two();
    }

    /// Pre-sizes the builder for programs of up to `blocks` blocks of up to
    /// `block_capacity` instructions each: the arena is reserved to
    /// `blocks × block_capacity` instructions and the block table to
    /// `blocks` entries.
    ///
    /// A caller that knows an upper bound on every program it will ever
    /// build — the widget generator's seed-noise caps bound the block count
    /// and block sizes over *all* seeds — primes the builder once and every
    /// later build is allocation-free, rather than allocation-free only
    /// after the (unbounded-tail) empirical warm-up has happened to visit
    /// the worst case.
    pub fn prime(&mut self, blocks: usize, block_capacity: usize) {
        let instructions = blocks.saturating_mul(block_capacity);
        if self.arena.capacity() < instructions {
            self.arena.reserve_exact(instructions - self.arena.len());
        }
        if self.spans.capacity() < blocks {
            self.spans.reserve_exact(blocks - self.spans.len());
        }
    }

    /// Reserves a block id without opening it, so forward branches can refer
    /// to blocks that will be populated later.
    pub fn reserve_block(&mut self) -> BlockId {
        let id = BlockId(self.spans.len() as u32);
        self.spans.push(None);
        id
    }

    /// Reserves and immediately opens a new block, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if another block is currently open.
    pub fn begin_block(&mut self) -> BlockId {
        let id = self.reserve_block();
        self.begin_reserved(id);
        id
    }

    /// Opens a previously reserved block.
    ///
    /// # Panics
    ///
    /// Panics if another block is open or the id was already populated.
    pub fn begin_reserved(&mut self, id: BlockId) {
        assert!(self.current.is_none(), "a block is already open");
        assert!(
            self.spans[id.index()].is_none(),
            "block {id} was already populated"
        );
        self.current = Some((id, self.arena.len()));
    }

    /// Appends a raw instruction to the open block.
    ///
    /// # Panics
    ///
    /// Panics if no block is open.
    pub fn push(&mut self, inst: Instruction) {
        assert!(self.current.is_some(), "no block is open");
        self.arena.push(inst);
    }

    /// Appends `dst = op(src1, src2)` on the integer ALU.
    pub fn int_alu(&mut self, op: IntAluOp, dst: IntReg, src1: IntReg, src2: IntReg) {
        self.push(Instruction::IntAlu {
            op,
            dst,
            src1,
            src2,
        });
    }

    /// Appends `dst = op(src, imm)` on the integer ALU.
    pub fn int_alu_imm(&mut self, op: IntAluOp, dst: IntReg, src: IntReg, imm: i32) {
        self.push(Instruction::IntAluImm { op, dst, src, imm });
    }

    /// Appends an integer multiply.
    pub fn int_mul(&mut self, op: IntMulOp, dst: IntReg, src1: IntReg, src2: IntReg) {
        self.push(Instruction::IntMul {
            op,
            dst,
            src1,
            src2,
        });
    }

    /// Appends `dst = imm`.
    pub fn load_imm(&mut self, dst: IntReg, imm: i64) {
        self.push(Instruction::LoadImm { dst, imm });
    }

    /// Appends a floating-point operation.
    pub fn fp(&mut self, op: FpOp, dst: FpReg, src1: FpReg, src2: FpReg) {
        self.push(Instruction::Fp {
            op,
            dst,
            src1,
            src2,
        });
    }

    /// Appends an int→fp conversion.
    pub fn fp_from_int(&mut self, dst: FpReg, src: IntReg) {
        self.push(Instruction::FpFromInt { dst, src });
    }

    /// Appends an fp→int conversion.
    pub fn fp_to_int(&mut self, dst: IntReg, src: FpReg) {
        self.push(Instruction::FpToInt { dst, src });
    }

    /// Appends a 64-bit load.
    pub fn load(&mut self, dst: IntReg, base: IntReg, offset: i32) {
        self.push(Instruction::Load { dst, base, offset });
    }

    /// Appends a 64-bit store.
    pub fn store(&mut self, src: IntReg, base: IntReg, offset: i32) {
        self.push(Instruction::Store { src, base, offset });
    }

    /// Appends a floating-point load.
    pub fn fp_load(&mut self, dst: FpReg, base: IntReg, offset: i32) {
        self.push(Instruction::FpLoad { dst, base, offset });
    }

    /// Appends a floating-point store.
    pub fn fp_store(&mut self, src: FpReg, base: IntReg, offset: i32) {
        self.push(Instruction::FpStore { src, base, offset });
    }

    /// Appends a vector operation.
    pub fn vec(&mut self, op: VecOp, dst: VecReg, src1: VecReg, src2: VecReg) {
        self.push(Instruction::Vec {
            op,
            dst,
            src1,
            src2,
        });
    }

    /// Appends a vector load.
    pub fn vec_load(&mut self, dst: VecReg, base: IntReg, offset: i32) {
        self.push(Instruction::VecLoad { dst, base, offset });
    }

    /// Appends a vector store.
    pub fn vec_store(&mut self, src: VecReg, base: IntReg, offset: i32) {
        self.push(Instruction::VecStore { src, base, offset });
    }

    /// Appends a register-state snapshot.
    pub fn snapshot(&mut self) {
        self.push(Instruction::Snapshot);
    }

    /// Closes the open block with `terminator`.
    ///
    /// # Panics
    ///
    /// Panics if no block is open.
    pub fn terminate(&mut self, terminator: Terminator) {
        let (id, start) = self.current.take().expect("no block is open");
        self.spans[id.index()] = Some(BlockSpan {
            start,
            end: self.arena.len(),
            terminator,
        });
    }

    /// Convenience: close the open block with a conditional branch.
    pub fn branch(
        &mut self,
        cond: BranchCond,
        src1: IntReg,
        src2: IntReg,
        taken: BlockId,
        not_taken: BlockId,
    ) {
        self.terminate(Terminator::Branch {
            cond,
            src1,
            src2,
            taken,
            not_taken,
        });
    }

    /// Number of blocks reserved so far.
    pub fn block_count(&self) -> usize {
        self.spans.len()
    }

    /// Size of the program's data segment in bytes.
    pub fn memory_size(&self) -> usize {
        self.memory_size
    }

    /// The program's blocks in id order, each as its body and terminator:
    /// the program [`ProgramBuilder::finish`] would return, read in place.
    ///
    /// # Panics
    ///
    /// Panics if a block is still open, and — when the iteration reaches it
    /// — if a reserved block was never populated.
    pub fn blocks(
        &self,
    ) -> impl ExactSizeIterator<Item = (&[Instruction], Terminator)> + Clone + '_ {
        assert!(self.current.is_none(), "a block is still open");
        self.spans.iter().enumerate().map(|(i, span)| {
            let span = span.unwrap_or_else(|| panic!("reserved block bb{i} was never populated"));
            (&self.arena[span.start..span.end], span.terminator)
        })
    }

    /// Checks the program [`ProgramBuilder::finish`] would return for
    /// `entry` against [`Program::validate`]'s invariants, without building
    /// it.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateError`] found, if any.
    ///
    /// # Panics
    ///
    /// Panics if a block is still open or a reserved block was never
    /// populated.
    pub fn validate(&self, entry: BlockId) -> Result<(), ValidateError> {
        let blocks = self
            .blocks()
            .enumerate()
            .map(|(i, (body, terminator))| (BlockId(i as u32), body, terminator));
        validate_blocks(blocks, entry, self.memory_size)
    }

    /// Finishes the program with `entry` as its entry block.
    ///
    /// # Panics
    ///
    /// Panics if a block is still open or any reserved block was never
    /// populated.
    pub fn finish(self, entry: BlockId) -> Program {
        let mut out = Program::default();
        self.finish_into(entry, &mut out);
        out
    }

    /// Finishes the program into `out`, reusing `out`'s storage.
    ///
    /// The previous contents of `out` are discarded, but block `i` of the
    /// new program reuses the instruction buffer of block `i` of the old
    /// one, so rebuilding programs of similar shape into the same `out`
    /// stops allocating once those buffers have grown. The builder is left
    /// as it was; [`ProgramBuilder::reset`] starts the next program.
    ///
    /// The resulting program is byte-identical to what
    /// [`ProgramBuilder::finish`] returns for the same builder state.
    ///
    /// # Panics
    ///
    /// Panics if a block is still open or any reserved block was never
    /// populated.
    pub fn finish_into(&self, entry: BlockId, out: &mut Program) {
        let blocks = self.blocks();
        out.blocks.truncate(blocks.len());
        for (i, (body, terminator)) in blocks.enumerate() {
            let id = BlockId(i as u32);
            match out.blocks.get_mut(i) {
                Some(block) => {
                    block.id = id;
                    block.instructions.clear();
                    block.instructions.extend_from_slice(body);
                    block.terminator = terminator;
                }
                None => out
                    .blocks
                    .push(BasicBlock::new(id, body.to_vec(), terminator)),
            }
        }
        out.entry = entry;
        out.memory_size = self.memory_size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_size_rounded_to_power_of_two() {
        let mut b = ProgramBuilder::new(1000);
        let e = b.begin_block();
        b.snapshot();
        b.terminate(Terminator::Halt);
        let p = b.finish(e);
        assert_eq!(p.memory_size(), 1024);
    }

    #[test]
    fn forward_references_resolve() {
        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        let exit = b.reserve_block();
        b.terminate(Terminator::Jump(exit));
        b.begin_reserved(exit);
        b.terminate(Terminator::Halt);
        let p = b.finish(entry);
        assert!(p.validate().is_ok());
        assert_eq!(p.blocks().len(), 2);
    }

    #[test]
    #[should_panic(expected = "a block is already open")]
    fn double_open_panics() {
        let mut b = ProgramBuilder::new(64);
        b.begin_block();
        b.begin_block();
    }

    #[test]
    #[should_panic(expected = "no block is open")]
    fn push_without_block_panics() {
        let mut b = ProgramBuilder::new(64);
        b.snapshot();
    }

    #[test]
    #[should_panic(expected = "never populated")]
    fn unpopulated_reserved_block_panics() {
        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        let dangling = b.reserve_block();
        b.terminate(Terminator::Jump(dangling));
        b.finish(entry);
    }

    #[test]
    fn validate_matches_validating_the_finished_program() {
        // A valid program, one without a halt, and one with a bad entry.
        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        let exit = b.reserve_block();
        b.terminate(Terminator::Jump(exit));
        b.begin_reserved(exit);
        b.snapshot();
        b.terminate(Terminator::Halt);
        let mut looping = ProgramBuilder::new(64);
        let spin = looping.begin_block();
        looping.terminate(Terminator::Jump(spin));
        for (builder, entry) in [(&b, entry), (&looping, spin), (&b, BlockId(2))] {
            let expected = builder.clone().finish(entry).validate();
            assert_eq!(builder.validate(entry), expected);
        }
        assert_eq!(b.validate(entry), Ok(()));
        assert_eq!(looping.validate(spin), Err(ValidateError::NoHalt));
    }

    fn counted_loop(b: &mut ProgramBuilder, iters: i64) -> Program {
        let entry = b.begin_block();
        b.load_imm(IntReg(0), iters);
        b.load_imm(IntReg(1), 0);
        let body = b.reserve_block();
        let exit = b.reserve_block();
        b.terminate(Terminator::Jump(body));
        b.begin_reserved(body);
        b.int_alu_imm(IntAluOp::Add, IntReg(1), IntReg(1), 3);
        b.int_alu_imm(IntAluOp::Sub, IntReg(0), IntReg(0), 1);
        b.branch(BranchCond::Ne, IntReg(0), IntReg(1), body, exit);
        b.begin_reserved(exit);
        b.snapshot();
        b.terminate(Terminator::Halt);
        let mut out = Program::default();
        b.finish_into(entry, &mut out);
        out
    }

    #[test]
    fn reset_and_finish_into_match_the_one_shot_path() {
        let mut b = ProgramBuilder::new(128);
        let reference = counted_loop(&mut b, 10);

        // Rebuilding the same program through reset + finish_into must be
        // identical, and a different program built afterwards must not be
        // contaminated by reused buffers.
        let mut reused = ProgramBuilder::new(4096);
        let mut out = Program::default();
        for iters in [3, 10, 7, 10] {
            reused.reset(128);
            let entry = reused.begin_block();
            reused.load_imm(IntReg(0), iters);
            reused.load_imm(IntReg(1), 0);
            let body = reused.reserve_block();
            let exit = reused.reserve_block();
            reused.terminate(Terminator::Jump(body));
            reused.begin_reserved(body);
            reused.int_alu_imm(IntAluOp::Add, IntReg(1), IntReg(1), 3);
            reused.int_alu_imm(IntAluOp::Sub, IntReg(0), IntReg(0), 1);
            reused.branch(BranchCond::Ne, IntReg(0), IntReg(1), body, exit);
            reused.begin_reserved(exit);
            reused.snapshot();
            reused.terminate(Terminator::Halt);
            reused.finish_into(entry, &mut out);
            assert!(out.validate().is_ok());
            if iters == 10 {
                assert_eq!(out, reference);
            } else {
                assert_ne!(out, reference);
            }
        }
    }

    #[test]
    fn reset_recycles_unfinished_blocks() {
        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 1);
        b.terminate(Terminator::Halt);
        // Never finished: reset must discard the terminated block and allow
        // a clean rebuild.
        b.reset(256);
        let entry2 = b.begin_block();
        b.snapshot();
        b.terminate(Terminator::Halt);
        let p = b.finish(entry2);
        assert_eq!(p.memory_size(), 256);
        assert_eq!(p.blocks().len(), 1);
        assert_eq!(p.block(entry2).instructions.len(), 1);
        let _ = entry;
    }

    #[test]
    fn arena_reuse_keeps_programs_separate() {
        // Alternate a program with one large and one small block and a
        // program with the sizes swapped through one builder and one output
        // program: the second and later rounds reuse the arena and the
        // output's block buffers, and every round must equal the program a
        // fresh builder produces.
        fn build(b: &mut ProgramBuilder, big_first: bool) -> BlockId {
            b.reset(64);
            let entry = b.begin_block();
            let len = if big_first { 32 } else { 1 };
            for i in 0..len {
                b.load_imm(IntReg((i % 8) as u8), i);
            }
            let exit = b.reserve_block();
            b.terminate(Terminator::Jump(exit));
            b.begin_reserved(exit);
            for i in 0..33 - len {
                b.load_imm(IntReg((i % 8) as u8), -i);
            }
            b.terminate(Terminator::Halt);
            entry
        }
        let mut b = ProgramBuilder::new(64);
        let mut out = Program::default();
        for round in 0..4 {
            let big_first = round % 2 == 0;
            let entry = build(&mut b, big_first);
            b.finish_into(entry, &mut out);
            let mut fresh = ProgramBuilder::new(64);
            let fresh_entry = build(&mut fresh, big_first);
            assert_eq!(out, fresh.finish(fresh_entry), "round {round}");
            assert_eq!(
                out.block(entry).instructions.len(),
                if big_first { 32 } else { 1 }
            );
        }
    }

    #[test]
    fn helpers_emit_expected_instructions() {
        let mut b = ProgramBuilder::new(64);
        let entry = b.begin_block();
        b.load_imm(IntReg(0), 42);
        b.int_alu(IntAluOp::Xor, IntReg(1), IntReg(0), IntReg(0));
        b.int_mul(IntMulOp::MulHi, IntReg(2), IntReg(0), IntReg(0));
        b.fp_from_int(FpReg(0), IntReg(0));
        b.fp(FpOp::Mul, FpReg(1), FpReg(0), FpReg(0));
        b.fp_to_int(IntReg(3), FpReg(1));
        b.load(IntReg(4), IntReg(0), 8);
        b.store(IntReg(4), IntReg(0), 16);
        b.vec(VecOp::Add, VecReg(0), VecReg(1), VecReg(2));
        b.snapshot();
        b.terminate(Terminator::Halt);
        let p = b.finish(entry);
        assert_eq!(p.block(entry).instructions.len(), 10);
        assert!(p.validate().is_ok());
    }
}
