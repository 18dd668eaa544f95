//! Workspace integration tests: the full HashCore pipeline across crates
//! (crypto → profile → gen → vm → core), including determinism, verification
//! and the security-relevant properties of the composition.

use hashcore::{HashCore, Target};
use hashcore_crypto::sha256;
use hashcore_gen::WidgetGenerator;
use hashcore_profile::{HashSeed, PerformanceProfile};
use hashcore_vm::Executor;
use proptest::prelude::*;

fn fast_profile() -> PerformanceProfile {
    let mut profile = PerformanceProfile::leela_like();
    profile.target_dynamic_instructions = 5_000;
    profile
}

#[test]
fn end_to_end_hash_is_reproducible_across_instances() {
    // Two independently constructed instances (e.g. two different full nodes)
    // must agree on every digest.
    let node_a = HashCore::new(fast_profile());
    let node_b = HashCore::new(fast_profile());
    for input in [b"block-1".as_ref(), b"block-2".as_ref(), b"".as_ref()] {
        assert_eq!(
            node_a.hash_digest(input).unwrap(),
            node_b.hash_digest(input).unwrap()
        );
    }
}

#[test]
fn widget_is_regenerated_identically_from_the_seed_alone() {
    // A verifier that only knows the block header re-derives the exact same
    // widget program the miner executed.
    let profile = fast_profile();
    let miner_side = WidgetGenerator::new(profile.clone());
    let verifier_side = WidgetGenerator::new(profile);
    let seed = HashSeed::new(sha256(b"header"));
    let a = miner_side.generate(&seed);
    let b = verifier_side.generate(&seed);
    assert_eq!(
        hashcore_isa::encode(&a.program),
        hashcore_isa::encode(&b.program)
    );

    let out_a = Executor::new(a.exec_config())
        .execute(&a.program)
        .unwrap()
        .output;
    let out_b = Executor::new(b.exec_config())
        .execute(&b.program)
        .unwrap()
        .output;
    assert_eq!(out_a, out_b);
}

#[test]
fn tampering_with_widget_output_changes_the_digest() {
    // H(x) = G(s || W(s)): if a miner lies about even one byte of the widget
    // output, the digest no longer matches.
    let pow = HashCore::new(fast_profile());
    let input = b"tamper-check";
    let honest = pow.hash(input).unwrap();

    let seed = HashSeed::new(sha256(input));
    let widget = pow.generator().generate(&seed);
    let mut output = Executor::new(widget.exec_config())
        .execute(&widget.program)
        .unwrap()
        .output;
    output[0] ^= 1;
    let mut gate = hashcore_crypto::Sha256::new();
    gate.update(seed.as_bytes());
    gate.update(&output);
    assert_ne!(gate.finalize(), honest.digest);
}

#[test]
fn mining_and_verification_agree_across_difficulties() {
    let pow = HashCore::new(fast_profile());
    for bits in [1u32, 3] {
        let target = Target::from_leading_zero_bits(bits);
        let found = pow
            .mine(b"difficulty-sweep", target, 0, 512)
            .unwrap()
            .expect("low difficulties are quickly met");
        assert!(pow
            .verify(b"difficulty-sweep", found.nonce, target)
            .unwrap()
            .is_some());
        // The same nonce must fail under a different header.
        assert!(pow
            .verify(
                b"difficulty-sweep-other",
                found.nonce,
                Target::from_leading_zero_bits(200)
            )
            .unwrap()
            .is_none());
    }
}

/// Golden HashCore digests: `leela_like` at two widget sizes, header bytes
/// `0..80`, `HashCore::mining_input(header, nonce)`. Any change to seed
/// noise, widget generation, pre-decoding, execution or the hash gates that
/// alters consensus output moves one of these.
#[test]
fn hashcore_digests_are_pinned() {
    const GOLDEN: [(u64, u64, &str, usize); 6] = [
        (
            8_000,
            0,
            "488603a9c020b009ad9fb0ea1c4098934701e6fbdaefbe1eb6f19ba772dfa3cd",
            1044,
        ),
        (
            8_000,
            1,
            "c0ebd6145f931ab4d621c41fdf22f0d71e22bbb948732694d38df2e1c202edb2",
            1044,
        ),
        (
            8_000,
            0xdead_beef,
            "fd6faa5af314f7d9b13737defb1c7a082417b27d50cb4c17746cd6ace8e86b84",
            1023,
        ),
        (
            128_000,
            0,
            "3ed65e59b4bda84519083ef0cbc509255e09ad51ee9f31f464e2ff75858cc8c9",
            969,
        ),
        (
            128_000,
            1,
            "74db2eda258900b064ad195671a854fcea5f1f6409a34f060ae71642e13c1d86",
            996,
        ),
        (
            128_000,
            0xdead_beef,
            "4ddc5f29847f912ae84c9e78a8c59699246c423ebd53018b4da21f2d4552de56",
            963,
        ),
    ];
    let header: Vec<u8> = (0..80u8).collect();
    for (instructions, nonce, digest, blocks) in GOLDEN {
        let mut profile = PerformanceProfile::leela_like();
        profile.target_dynamic_instructions = instructions;
        let out = HashCore::new(profile)
            .hash(&HashCore::mining_input(&header, nonce))
            .unwrap();
        let case = format!("{instructions} instructions, nonce {nonce:#x}");
        assert_eq!(hashcore_crypto::hex::encode(&out.digest), digest, "{case}");
        assert_eq!(out.widget.program_blocks, blocks, "{case}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full pipeline is deterministic and total for arbitrary inputs.
    #[test]
    fn pipeline_is_total_and_deterministic(input in proptest::collection::vec(any::<u8>(), 0..128)) {
        let pow = HashCore::new(fast_profile());
        let a = pow.hash(&input).unwrap();
        let b = pow.hash(&input).unwrap();
        prop_assert_eq!(a.digest, b.digest);
        prop_assert!(a.widget.output_bytes > 0);
    }

    /// The reusable-scratch fast path is digest-identical to the naive
    /// path for arbitrary inputs (the optimization changes no semantics).
    #[test]
    fn scratch_path_matches_naive_path(inputs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..4)) {
        let pow = HashCore::new(fast_profile());
        let mut scratch = hashcore::HashScratch::new();
        for input in &inputs {
            prop_assert_eq!(
                pow.hash_with_scratch(input, &mut scratch).unwrap(),
                pow.hash(input).unwrap()
            );
        }
    }

    /// Every seed produces a structurally valid widget that halts within its
    /// step limit and emits at least one snapshot.
    #[test]
    fn every_seed_yields_a_valid_halting_widget(seed_bytes in proptest::array::uniform32(any::<u8>())) {
        let generator = WidgetGenerator::new(fast_profile());
        let widget = generator.generate(&HashSeed::new(seed_bytes));
        prop_assert!(widget.program.validate().is_ok());
        let execution = Executor::new(widget.exec_config()).execute(&widget.program).unwrap();
        prop_assert!(execution.snapshot_count >= 1);
        prop_assert_eq!(execution.output.len() % hashcore_vm::SNAPSHOT_BYTES, 0);
    }
}
