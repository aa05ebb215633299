//! The correctness gate. Every output is checked with the independent
//! `phoenix-verify` engine (product-state spot checks, coupling legality),
//! never against the compiler itself.

use phoenix_circuit::Circuit;
use phoenix_core::Device;
use phoenix_mathkit::Xoshiro256;
use phoenix_pauli::PauliString;
use phoenix_verify::engine::{check_coupling_legal, check_states_vs_order, Outcome};

/// Infidelity allowed between the circuit and the exact Trotter product of
/// its own emitted term order (round-off only).
const STATE_TOL: f64 = 1e-6;

/// Random product states evolved per spot check.
const STATES: usize = 1;

/// The output quality of one distinct compile: what a user gets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub two_qubit: usize,
    pub depth_2q: usize,
    /// 2Q gates before routing (equal to `two_qubit` when nothing is routed).
    pub logical_2q: usize,
    pub swaps: usize,
    pub fidelity: f64,
}

impl Quality {
    /// Quality of an unrouted output, with its predicted fidelity on `reference`.
    pub fn logical(c: &Circuit, reference: &Device) -> Self {
        let two_qubit = c.counts().two_qubit();
        Quality {
            two_qubit,
            depth_2q: c.depth_2q(),
            logical_2q: two_qubit,
            swaps: 0,
            fidelity: reference.predicted_fidelity(c),
        }
    }

    /// One line naming every field exactly, for the repeat check.
    pub fn fingerprint(&self) -> String {
        format!(
            "2q={} depth2q={} logical2q={} swaps={} fidelity={:016x}",
            self.two_qubit,
            self.depth_2q,
            self.logical_2q,
            self.swaps,
            self.fidelity.to_bits()
        )
    }
}

/// `order` must be a permutation of `input`: the same terms with the same
/// coefficients, bit for bit.
fn same_terms(input: &[(PauliString, f64)], order: &[(PauliString, f64)]) -> Result<(), String> {
    let key = |t: &[(PauliString, f64)]| {
        let mut v: Vec<(PauliString, u64)> =
            t.iter().map(|(p, c)| (p.clone(), c.to_bits())).collect();
        v.sort();
        v
    };
    if key(input) == key(order) {
        Ok(())
    } else {
        Err(format!(
            "emitted term order is not a permutation of the {} input terms",
            input.len()
        ))
    }
}

fn outcome(o: Outcome, what: &str) -> Result<(), String> {
    match o {
        Outcome::Fail { detail, .. } => Err(format!("{what}: {detail}")),
        Outcome::Pass(_) | Outcome::Skipped(_) => Ok(()),
    }
}

/// A logical-register output: the emitted order covers the input, and the
/// circuit matches the Trotter product of that order on random product
/// states.
fn logical_output(
    circuit: &Circuit,
    input: &[(PauliString, f64)],
    order: &[(PauliString, f64)],
    seed: u64,
) -> Result<(), String> {
    same_terms(input, order)?;
    let mut rng = Xoshiro256::seed_from_u64(seed);
    outcome(
        check_states_vs_order(circuit, order, STATE_TOL, STATES, &mut rng),
        "state spot check",
    )
}

/// A state spot check of one logical-register output, run after the timed
/// phase by [`run_spot_checks`].
pub struct SpotCheck {
    pub name: String,
    pub circuit: Circuit,
    pub input: Vec<(PauliString, f64)>,
    pub order: Vec<(PauliString, f64)>,
}

/// Runs [`logical_output`] on every distinct check, spread over the
/// available cores; returns one message per failure.
pub fn run_spot_checks(checks: Vec<SpotCheck>, seed: u64) -> Vec<String> {
    let mut unique: Vec<SpotCheck> = Vec::new();
    for c in checks {
        let seen = unique
            .iter()
            .any(|u| u.circuit == c.circuit && u.order == c.order && u.input == c.input);
        if !seen {
            unique.push(c);
        }
    }
    let threads = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .clamp(1, unique.len().max(1));
    let unique = &unique;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    unique
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .filter_map(|c| {
                            logical_output(&c.circuit, &c.input, &c.order, seed)
                                .err()
                                .map(|e| format!("{}: {e}", c.name))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|_| vec!["spot check panicked".to_string()])
            })
            .collect()
    })
}

/// A routed output: the circuit spans the device and every 2Q gate sits on
/// a device edge.
pub fn coupling(physical: &Circuit, device: &Device) -> Result<(), String> {
    if physical.num_qubits() != device.graph().num_qubits() {
        return Err(format!(
            "routed circuit has {} qubits, device {} has {}",
            physical.num_qubits(),
            device.name(),
            device.graph().num_qubits()
        ));
    }
    outcome(check_coupling_legal(physical, device.graph()), "coupling")
}
