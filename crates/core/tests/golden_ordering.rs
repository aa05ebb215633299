//! Golden ordering permutations.
//!
//! `order_groups` is pinned, plain and routing-aware, at lookahead 1, 10 and
//! 20, on Table-I group sets, seeded random group sets (narrow and wide
//! registers) and a hand-built set with Clifford seams and 1Q-only groups.
//! Each line records the permutation's length, its first entries and an
//! FNV-1a digest of the whole permutation. The expected table was recorded
//! before ordering switched to per-group seam summaries; the ordering must
//! reproduce it bit for bit.

use phoenix_circuit::{Circuit, Gate};
use phoenix_core::group::group_by_support;
use phoenix_core::order::{order_groups, OrderOptions};
use phoenix_core::simplify::simplify_terms;
use phoenix_core::synth::synthesize_group;
use phoenix_hamil::{uccsd, Molecule};
use phoenix_mathkit::Xoshiro256;
use phoenix_pauli::{Clifford2Q, Clifford2QKind, Pauli, PauliString};

/// The simplified, synthesized subcircuit of every support group.
fn group_circuits(n: usize, terms: &[(PauliString, f64)]) -> Vec<Circuit> {
    group_by_support(n, terms)
        .iter()
        .map(|g| synthesize_group(&simplify_terms(n, g.terms())))
        .collect()
}

/// `count` seeded random terms of weight 1..=`max_weight` on qubits
/// `0..span` of an `n`-qubit register.
fn random_terms(
    n: usize,
    span: usize,
    count: usize,
    max_weight: usize,
    seed: u64,
) -> Vec<(PauliString, f64)> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut terms = Vec::new();
    for _ in 0..count {
        let weight = 1 + rng.next_below(max_weight);
        let base = rng.next_below(span - weight + 1);
        let mut qubits: Vec<usize> = (base..span).collect();
        rng.shuffle(&mut qubits);
        let pairs: Vec<(usize, Pauli)> = qubits[..weight]
            .iter()
            .map(|&q| (q, [Pauli::X, Pauli::Y, Pauli::Z][rng.next_below(3)]))
            .collect();
        terms.push((
            PauliString::from_sparse(n, &pairs),
            rng.next_range_f64(-1.0, 1.0),
        ));
    }
    terms
}

/// Hand-built blocks: facing Clifford pairs that cancel across the seam,
/// 1Q-only blocks (empty 2Q support) and an empty block.
fn seam_blocks() -> Vec<Circuit> {
    let n = 6;
    let cl = |k, a, b| Gate::Clifford2(Clifford2Q::new(k, a, b));
    let block = |gates: Vec<Gate>| Circuit::from_gates(n, gates);
    vec![
        block(vec![
            cl(Clifford2QKind::Czx, 0, 1),
            Gate::Rz(1, 0.3),
            cl(Clifford2QKind::Czx, 0, 1),
        ]),
        block(vec![
            cl(Clifford2QKind::Czx, 0, 1),
            Gate::Rz(1, 0.2),
            cl(Clifford2QKind::Czx, 0, 1),
        ]),
        block(vec![
            cl(Clifford2QKind::Czz, 2, 3),
            cl(Clifford2QKind::Cxy, 4, 5),
            Gate::Rx(3, 0.1),
            cl(Clifford2QKind::Czz, 3, 2),
        ]),
        block(vec![
            cl(Clifford2QKind::Czz, 3, 2),
            Gate::Ry(2, 0.4),
            cl(Clifford2QKind::Cxy, 4, 5),
            cl(Clifford2QKind::Czz, 2, 3),
        ]),
        block(vec![Gate::Rz(0, 0.5), Gate::H(4)]),
        block(vec![Gate::Cnot(0, 5), Gate::Cnot(5, 4), Gate::Cnot(1, 2)]),
        block(vec![]),
        block(vec![Gate::Cnot(1, 2), Gate::Cnot(3, 4), Gate::Cnot(0, 5)]),
    ]
}

fn group_sets() -> Vec<(String, Vec<Circuit>)> {
    let mut sets = Vec::new();
    for (mol, frozen, enc) in [
        (Molecule::lih(), true, uccsd::Encoding::JordanWigner),
        (Molecule::nh(), true, uccsd::Encoding::BravyiKitaev),
        (Molecule::ch2(), false, uccsd::Encoding::JordanWigner),
    ] {
        let h = uccsd::ansatz(mol, frozen, enc, 7);
        sets.push((
            h.name().to_string(),
            group_circuits(h.num_qubits(), h.terms()),
        ));
    }
    for seed in [1u64, 2, 3] {
        let terms = random_terms(10, 10, 150, 6, seed);
        sets.push((format!("random10 seed={seed}"), group_circuits(10, &terms)));
    }
    let terms = random_terms(160, 160, 60, 4, 11);
    sets.push(("wide160".to_string(), group_circuits(160, &terms)));
    sets.push(("seam-blocks".to_string(), seam_blocks()));
    sets
}

fn digest(perm: &[usize]) -> u64 {
    perm.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &i| {
        (h ^ i as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn actual_table() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, circuits) in group_sets() {
        for routing_aware in [false, true] {
            for lookahead in [1usize, 10, 20] {
                let perm = order_groups(
                    &circuits,
                    &OrderOptions {
                        lookahead,
                        routing_aware,
                    },
                );
                let head: Vec<usize> = perm.iter().copied().take(10).collect();
                lines.push(format!(
                    "{name} routing_aware={routing_aware} lookahead={lookahead}: \
                     len={} head={head:?} digest={:#018x}",
                    perm.len(),
                    digest(&perm)
                ));
            }
        }
    }
    lines
}

const EXPECTED: &[&str] = &[
    "LiH_frz_JW routing_aware=false lookahead=1: len=24 head=[11, 3, 7, 10, 14, 17, 2, 6, 9, 13] digest=0x0bfec32588be7a0f",
    "LiH_frz_JW routing_aware=false lookahead=10: len=24 head=[11, 6, 7, 2, 1, 5, 3, 8, 12, 15] digest=0x503c9039f9fc3f8f",
    "LiH_frz_JW routing_aware=false lookahead=20: len=24 head=[11, 5, 6, 0, 1, 4, 7, 2, 3, 8] digest=0xbea8d8d1f7b4feef",
    "LiH_frz_JW routing_aware=true lookahead=1: len=24 head=[11, 3, 7, 10, 14, 17, 2, 6, 9, 13] digest=0x0bfec32588be7a0f",
    "LiH_frz_JW routing_aware=true lookahead=10: len=24 head=[11, 6, 7, 2, 1, 5, 3, 8, 15, 12] digest=0xe9757c79fa6ed5d7",
    "LiH_frz_JW routing_aware=true lookahead=20: len=24 head=[11, 5, 6, 0, 1, 4, 7, 2, 3, 8] digest=0x0113912e818f4bcf",
    "NH_frz_BK routing_aware=false lookahead=1: len=114 head=[26, 39, 84, 17, 33, 42, 43, 51, 62, 87] digest=0xada3a9a784ce5ec6",
    "NH_frz_BK routing_aware=false lookahead=10: len=114 head=[26, 33, 16, 19, 30, 88, 41, 44, 47, 52] digest=0xe3876833bf09e0b4",
    "NH_frz_BK routing_aware=false lookahead=20: len=114 head=[26, 44, 63, 30, 47, 89, 92, 86, 64, 41] digest=0x2854ecd2ad0fd0be",
    "NH_frz_BK routing_aware=true lookahead=1: len=114 head=[26, 39, 84, 17, 33, 42, 43, 51, 62, 87] digest=0xada3a9a784ce5ec6",
    "NH_frz_BK routing_aware=true lookahead=10: len=114 head=[26, 33, 16, 19, 30, 88, 41, 44, 47, 52] digest=0xa4f0c872f689cf4e",
    "NH_frz_BK routing_aware=true lookahead=20: len=114 head=[26, 63, 30, 44, 47, 89, 92, 86, 41, 64] digest=0xe96430ea6dac5774",
    "CH2_cmplt_JW routing_aware=false lookahead=1: len=204 head=[62, 2, 5, 50, 58, 61, 64, 66, 95, 103] digest=0x19b2ab39e01981ab",
    "CH2_cmplt_JW routing_aware=false lookahead=10: len=204 head=[62, 2, 1, 4, 5, 11, 8, 38, 46, 49] digest=0x857b118a545dc13b",
    "CH2_cmplt_JW routing_aware=false lookahead=20: len=204 head=[62, 1, 11, 4, 5, 8, 2, 38, 46, 49] digest=0x63942cfe91fb6c49",
    "CH2_cmplt_JW routing_aware=true lookahead=1: len=204 head=[62, 2, 5, 50, 58, 61, 64, 66, 95, 103] digest=0x19b2ab39e01981ab",
    "CH2_cmplt_JW routing_aware=true lookahead=10: len=204 head=[62, 2, 1, 61, 4, 5, 11, 38, 8, 131] digest=0x558200eadd91b68d",
    "CH2_cmplt_JW routing_aware=true lookahead=20: len=204 head=[62, 1, 2, 8, 131, 11, 5, 4, 83, 95] digest=0x3ac309adba694479",
    "random10 seed=1 routing_aware=false lookahead=1: len=85 head=[1, 4, 21, 32, 35, 42, 43, 44, 50, 51] digest=0xfc567c6562296573",
    "random10 seed=1 routing_aware=false lookahead=10: len=85 head=[1, 43, 44, 53, 51, 59, 60, 21, 4, 63] digest=0xbfa3c9812b99c98f",
    "random10 seed=1 routing_aware=false lookahead=20: len=85 head=[1, 43, 65, 50, 84, 13, 31, 51, 59, 60] digest=0xc2edcbd15fe85d7d",
    "random10 seed=1 routing_aware=true lookahead=1: len=85 head=[1, 4, 21, 32, 35, 42, 43, 44, 50, 51] digest=0xfc567c6562296573",
    "random10 seed=1 routing_aware=true lookahead=10: len=85 head=[1, 43, 44, 53, 51, 60, 59, 21, 65, 50] digest=0xd8e1cefeb7fcdf3d",
    "random10 seed=1 routing_aware=true lookahead=20: len=85 head=[1, 43, 65, 9, 32, 27, 81, 18, 33, 13] digest=0x6fe2b0b45ea09e81",
    "random10 seed=2 routing_aware=false lookahead=1: len=89 head=[0, 8, 10, 14, 20, 29, 30, 34, 35, 38] digest=0xddbb38b3ccbe2833",
    "random10 seed=2 routing_aware=false lookahead=10: len=89 head=[0, 34, 39, 14, 45, 20, 8, 35, 38, 66] digest=0x3c3e9f125cfc547b",
    "random10 seed=2 routing_aware=false lookahead=20: len=89 head=[0, 34, 39, 4, 35, 2, 25, 68, 26, 12] digest=0xe17f347f745dd671",
    "random10 seed=2 routing_aware=true lookahead=1: len=89 head=[0, 8, 10, 14, 20, 29, 30, 34, 35, 38] digest=0xddbb38b3ccbe2833",
    "random10 seed=2 routing_aware=true lookahead=10: len=89 head=[0, 34, 39, 14, 45, 29, 60, 53, 8, 20] digest=0xa704d662b2f64b7d",
    "random10 seed=2 routing_aware=true lookahead=20: len=89 head=[0, 34, 2, 8, 20, 84, 38, 4, 25, 43] digest=0x9dc74cd625fc26b5",
    "random10 seed=3 routing_aware=false lookahead=1: len=86 head=[2, 7, 8, 20, 28, 32, 37, 46, 51, 59] digest=0x4760825f68c02938",
    "random10 seed=3 routing_aware=false lookahead=10: len=86 head=[2, 51, 46, 37, 74, 20, 32, 3, 75, 64] digest=0x0777d682d807b8ce",
    "random10 seed=3 routing_aware=false lookahead=20: len=86 head=[2, 51, 46, 53, 26, 3, 47, 54, 8, 41] digest=0x1d3a1b06d8cd4642",
    "random10 seed=3 routing_aware=true lookahead=1: len=86 head=[2, 7, 8, 20, 28, 32, 37, 46, 51, 59] digest=0x4760825f68c02938",
    "random10 seed=3 routing_aware=true lookahead=10: len=86 head=[2, 51, 46, 20, 74, 64, 75, 3, 79, 8] digest=0x56523e0cda09702a",
    "random10 seed=3 routing_aware=true lookahead=20: len=86 head=[2, 51, 3, 26, 53, 54, 47, 55, 41, 78] digest=0xfb122a7cb70df9a2",
    "wide160 routing_aware=false lookahead=1: len=59 head=[0, 4, 5, 7, 8, 11, 12, 17, 18, 27] digest=0x86908f7c76c6fa70",
    "wide160 routing_aware=false lookahead=10: len=59 head=[0, 4, 5, 7, 11, 18, 48, 6, 10, 3] digest=0x8ea03b1007fde2d6",
    "wide160 routing_aware=false lookahead=20: len=59 head=[0, 4, 5, 7, 11, 18, 48, 6, 10, 22] digest=0x88b039d0eeb7e9c2",
    "wide160 routing_aware=true lookahead=1: len=59 head=[0, 4, 5, 7, 8, 11, 12, 17, 18, 27] digest=0x86908f7c76c6fa70",
    "wide160 routing_aware=true lookahead=10: len=59 head=[0, 4, 5, 7, 11, 18, 48, 6, 10, 3] digest=0x368727b5bb233d74",
    "wide160 routing_aware=true lookahead=20: len=59 head=[0, 4, 5, 7, 11, 18, 48, 6, 10, 22] digest=0x56f22d0a630ab6fc",
    "seam-blocks routing_aware=false lookahead=1: len=8 head=[7, 5, 2, 3, 0, 1, 4, 6] digest=0xca72e9086ff75ac3",
    "seam-blocks routing_aware=false lookahead=10: len=8 head=[7, 4, 6, 5, 2, 3, 0, 1] digest=0xf080037fe3bc0b1f",
    "seam-blocks routing_aware=false lookahead=20: len=8 head=[7, 4, 6, 5, 2, 3, 0, 1] digest=0xf080037fe3bc0b1f",
    "seam-blocks routing_aware=true lookahead=1: len=8 head=[7, 5, 2, 3, 0, 1, 4, 6] digest=0xca72e9086ff75ac3",
    "seam-blocks routing_aware=true lookahead=10: len=8 head=[7, 4, 6, 0, 1, 2, 3, 5] digest=0x99a4e4c478af88df",
    "seam-blocks routing_aware=true lookahead=20: len=8 head=[7, 4, 6, 0, 1, 2, 3, 5] digest=0x99a4e4c478af88df",
];

#[test]
fn ordering_matches_recorded_goldens() {
    let actual = actual_table();
    if actual != EXPECTED {
        let mut msg = String::from("ordering goldens changed; actual table:\n");
        for line in &actual {
            msg.push_str(&format!("    {line:?},\n"));
        }
        for (i, (a, e)) in actual.iter().zip(EXPECTED).enumerate() {
            if a != e {
                msg.push_str(&format!(
                    "first difference at line {i}:\n  got  {a}\n  want {e}\n"
                ));
                break;
            }
        }
        panic!("{msg}");
    }
}
