//! The counting adaptor is transparent: wrapped and bare PoW functions
//! give identical digests, costs and scan hits, and a simulation run with
//! wrapped PoW replays the bare run exactly — while the recorder counts
//! every evaluation.

use hashcore::{MiningInput, Target};
use hashcore_baselines::{HashCorePow, PowFunction, PreparedPow, Sha256dPow};
use hashcore_net::{CostPolicyConfig, RetargetConfig, SimConfig, Simulation};
use hashcore_perfbench::counted::{Counted, Recorder};
use hashcore_perfbench::mine::hashcore;

const INPUTS: [&[u8]; 3] = [
    b"",
    b"genesis",
    b"a longer header with more bytes than one block..",
];

fn assert_transparent<P: PreparedPow + Clone>(bare: P) {
    let recorder = Recorder::new();
    let wrapped = Counted::new(bare.clone(), recorder.clone());
    assert_eq!(wrapped.name(), bare.name());
    assert_eq!(wrapped.dominant_resource(), bare.dominant_resource());
    assert_eq!(wrapped.nominal_cost(), bare.nominal_cost());

    let (mut s1, mut s2) = (P::Scratch::default(), P::Scratch::default());
    for input in INPUTS {
        assert_eq!(wrapped.pow_hash(input), bare.pow_hash(input));
        assert_eq!(
            wrapped.pow_hash_scratch(input, &mut s1),
            bare.pow_hash_scratch(input, &mut s2)
        );
        assert_eq!(
            wrapped.pow_hash_cost_scratch(input, &mut s1),
            bare.pow_hash_cost_scratch(input, &mut s2)
        );
    }
    assert_eq!(recorder.take().len(), 3 * INPUTS.len());

    // Scans: a target most nonces miss, so hits land mid-range, and an
    // unreachable one, so the whole range is evaluated and counted.
    for (bits, attempts) in [(3, 64u64), (255, 10)] {
        let target = Target::from_leading_zero_bits(bits);
        let header = b"scan header";
        let mut input = MiningInput::new(header);
        let a = wrapped.scan_nonces(&mut input, target, 5, attempts, &mut s1);
        let b = bare.scan_nonces(&mut input, target, 5, attempts, &mut s2);
        assert_eq!(a, b);
        let c = wrapped.scan_nonce_batch(&mut input, target, 5, attempts, &mut s1);
        let d = bare.scan_nonce_batch(&mut input, target, 5, attempts, &mut s2);
        assert_eq!(c, d);
        assert_eq!(a, c, "scalar and batch scans agree");
        assert_eq!(
            wrapped.mine(header, target, attempts),
            bare.mine(header, target, attempts)
        );
        let spans = recorder.take();
        assert_eq!(spans.len(), 3);
        let expected = a.map_or(attempts, |(nonce, _)| nonce - 5 + 1);
        assert_eq!(spans[0].evaluations, expected);
        assert_eq!(spans[1].evaluations, expected);
    }
}

#[test]
fn counted_hashcore_is_transparent() {
    assert_transparent(HashCorePow::new(hashcore(2_000)));
}

#[test]
fn counted_sha256d_is_transparent() {
    assert_transparent(Sha256dPow);
}

fn short_sim(nodes: usize) -> SimConfig {
    SimConfig {
        nodes,
        seed: 7,
        difficulty_bits: 6,
        attempts_per_slice: 8,
        duration_ms: 6_000,
        sync_threads: 2,
        threads: 2,
        ..SimConfig::default()
    }
}

#[test]
fn counted_sha256d_sim_replays_the_bare_run() {
    let config = short_sim(8);
    let bare = Simulation::new(config.clone(), |_| Sha256dPow).run();
    let recorder = Recorder::new();
    let counted = Counted::new(Sha256dPow, recorder.clone());
    let wrapped = Simulation::new(config, |_| counted.clone()).run();
    assert_eq!(wrapped.fingerprint_extended(), bare.fingerprint_extended());
    assert!(!recorder.take().is_empty());
}

#[test]
fn counted_hashcore_cost_aware_sim_replays_the_bare_run() {
    // Cost-aware retargeting: admission verdicts depend on the forwarded
    // widget costs, so any distortion would change the outcome.
    let config = SimConfig {
        retarget: Some(RetargetConfig {
            target_block_time_ms: 1_000.0,
            gain: 0.5,
        }),
        cost_policy: Some(CostPolicyConfig {
            cost_gain: 0.5,
            response: 2.0,
        }),
        difficulty_bits: 3,
        attempts_per_slice: 2,
        ..short_sim(3)
    };
    let pow = HashCorePow::new(hashcore(1_000));
    let bare = Simulation::new(config.clone(), |_| pow.clone()).run();
    let counted = Counted::new(pow, Recorder::new());
    let wrapped = Simulation::new(config, |_| counted.clone()).run();
    assert!(bare.blocks_mined > 0, "the short run must mine");
    assert_eq!(wrapped.fingerprint_extended(), bare.fingerprint_extended());
    assert_eq!(wrapped.tip_mean_cost_ratio, bare.tip_mean_cost_ratio);
    assert_eq!(wrapped.seeds_inadmissible, bare.seeds_inadmissible);
}
