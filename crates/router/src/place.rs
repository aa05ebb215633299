//! Initial-layout search (the SabreLayout strategy).
//!
//! Routing quality depends heavily on the starting placement. This module
//! provides the standard two-step search: a greedy interaction-weighted
//! seed placement, refined by forward/backward SABRE routing iterations
//! (each pass routes the circuit, adopts the final layout, and routes the
//! reversed circuit back).

use crate::sabre::route_lowered;
use crate::{Layout, RouteError, RoutedCircuit, RouterOptions};
use phoenix_circuit::Circuit;
use phoenix_topology::CouplingGraph;
use std::collections::BTreeMap;
use std::time::Instant;

/// Greedy seed: logical qubits are placed in decreasing interaction weight,
/// each onto the free physical qubit minimizing the weighted distance to
/// its already placed partners.
pub fn greedy_layout(circuit: &Circuit, device: &CouplingGraph) -> Layout {
    let n_log = circuit.num_qubits();
    let n_phys = device.num_qubits();
    assert!(n_log <= n_phys, "device too small");

    // Interaction weights.
    let mut w: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut strength = vec![0.0f64; n_log];
    for g in circuit.gates() {
        if let (a, Some(b)) = g.qubits() {
            *w.entry((a.min(b), a.max(b))).or_insert(0.0) += 1.0;
            strength[a] += 1.0;
            strength[b] += 1.0;
        }
    }
    let mut order: Vec<usize> = (0..n_log).collect();
    order.sort_by(|&a, &b| strength[b].total_cmp(&strength[a]));

    // Device center: minimum eccentricity.
    let center = (0..n_phys)
        .min_by_key(|&p| {
            (0..n_phys)
                .map(|q| device.distance(p, q))
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0);

    let mut assignment = vec![usize::MAX; n_log];
    let mut free: Vec<usize> = (0..n_phys).collect();
    for (rank, &l) in order.iter().enumerate() {
        let best = if rank == 0 {
            free.iter().position(|&p| p == center).unwrap_or(0)
        } else {
            let mut best_pos = 0;
            let mut best_cost = f64::INFINITY;
            for (pos, &p) in free.iter().enumerate() {
                let mut cost = 0.0;
                for (&(a, b), &weight) in &w {
                    let partner = if a == l {
                        b
                    } else if b == l {
                        a
                    } else {
                        continue;
                    };
                    if assignment[partner] != usize::MAX {
                        cost += weight * device.distance(p, assignment[partner]) as f64;
                    }
                }
                if cost < best_cost {
                    best_cost = cost;
                    best_pos = pos;
                }
            }
            best_pos
        };
        assignment[l] = free.remove(best);
    }
    Layout::from_assignment(assignment, n_phys)
}

/// SabreLayout-style refinement: starting from [`greedy_layout`], route
/// forward and backward `iters` times, adopting final layouts, and return
/// the layout that produced the fewest forward swaps.
///
/// Candidates whose trial routing fails (e.g. the SWAP budget runs out on
/// a pathological instance) are skipped rather than aborting the search;
/// if every candidate fails the greedy seed is returned and the caller's
/// own routing attempt surfaces the error.
pub fn search_layout(
    circuit: &Circuit,
    device: &CouplingGraph,
    opts: &RouterOptions,
    iters: usize,
) -> Layout {
    search_lowered(&circuit.lower_to_cnot(), device, opts, iters)
}

/// [`search_layout`] on an already lowered circuit. The trials only count
/// swaps and track the final layout; they build no output gates.
fn search_lowered(
    lowered: &Circuit,
    device: &CouplingGraph,
    opts: &RouterOptions,
    iters: usize,
) -> Layout {
    let trial = |c: &Circuit, layout: Layout| route_lowered(c, device, layout, opts, false);
    let reversed = Circuit::from_gates(
        lowered.num_qubits(),
        lowered.gates().iter().rev().cloned().collect(),
    );
    let seed = greedy_layout(lowered, device);
    let mut current = seed.clone();
    let mut best = seed.clone();
    let mut best_swaps = usize::MAX;
    for _ in 0..iters.max(1) {
        let fwd = match trial(lowered, current.clone()) {
            Ok(r) => r,
            Err(_) => return if best_swaps == usize::MAX { seed } else { best },
        };
        if fwd.num_swaps < best_swaps {
            best_swaps = fwd.num_swaps;
            best = current.clone();
        }
        match trial(&reversed, fwd.final_layout) {
            Ok(bwd) => current = bwd.final_layout,
            Err(_) => return best,
        }
    }
    // Final check on the last candidate.
    if let Ok(fwd) = trial(lowered, current.clone()) {
        if fwd.num_swaps < best_swaps {
            best = current;
        }
    }
    best
}

/// One abandoned routing attempt inside [`route_with_retry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteRetry {
    /// Which layout strategy was tried (`"searched"`, `"greedy-seed"`,
    /// `"trivial"`).
    pub strategy: &'static str,
    /// Why the attempt was abandoned.
    pub error: RouteError,
}

/// One routing attempt of the retry ladder, timed: the instrumentation
/// record [`route_with_attempt_log`] returns for every attempt it made,
/// successful or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteAttempt {
    /// Which layout strategy was tried (`"searched"`, `"greedy-seed"`,
    /// `"trivial"`).
    pub strategy: &'static str,
    /// Wall-clock of the attempt — layout construction (including the
    /// refinement search for `"searched"`) plus the routing itself — in
    /// microseconds.
    pub micros: u64,
    /// SWAPs the attempt inserted, when it succeeded.
    pub swaps: Option<usize>,
    /// Why the attempt was abandoned, when it failed.
    pub error: Option<RouteError>,
}

/// Routing with a graceful-degradation ladder instead of a panic: try the
/// refined [`search_layout`] placement first, then the plain greedy seed
/// (an alternate starting point that often escapes a budget blow-up), and
/// finally the trivial layout with a quadrupled SWAP budget. Returns the
/// first success together with a per-attempt log (the last entry is the
/// successful one), or the last error when even the trivial fallback fails
/// (the instance is genuinely unroutable, e.g. a disconnected device
/// region).
///
/// Layouts are constructed lazily per attempt, so the log's timings
/// attribute layout-search cost to the attempt that paid it.
pub fn route_with_attempt_log(
    circuit: &Circuit,
    device: &CouplingGraph,
    opts: &RouterOptions,
    layout_trials: usize,
) -> Result<(RoutedCircuit, Vec<RouteAttempt>), RouteError> {
    let lowered = circuit.lower_to_cnot();
    let n_log = lowered.num_qubits();
    let n_phys = device.num_qubits();
    if n_log > n_phys {
        return Err(RouteError::DeviceTooSmall {
            logical: n_log,
            physical: n_phys,
        });
    }
    let mut relaxed = opts.clone();
    relaxed.max_swaps = opts
        .swap_budget(lowered.counts().two_qubit(), n_phys)
        .saturating_mul(4);
    let mut attempts = Vec::new();
    let mut last_err = None;
    for strategy in ["searched", "greedy-seed", "trivial"] {
        let t0 = Instant::now();
        let (layout, o) = match strategy {
            "searched" => (search_lowered(&lowered, device, opts, layout_trials), opts),
            "greedy-seed" => (greedy_layout(&lowered, device), opts),
            _ => (Layout::trivial(n_log, n_phys), &relaxed),
        };
        let result = route_lowered(&lowered, device, layout, o, true);
        let micros = t0.elapsed().as_micros() as u64;
        match result {
            Ok(routed) => {
                attempts.push(RouteAttempt {
                    strategy,
                    micros,
                    swaps: Some(routed.num_swaps),
                    error: None,
                });
                return Ok((routed, attempts));
            }
            Err(error) => {
                attempts.push(RouteAttempt {
                    strategy,
                    micros,
                    swaps: None,
                    error: Some(error.clone()),
                });
                last_err = Some(error);
            }
        }
    }
    Err(last_err.expect("all three attempts recorded an error"))
}

/// [`route_with_attempt_log`] reduced to the legacy shape: the first
/// success plus the *abandoned* attempts only.
pub fn route_with_retry(
    circuit: &Circuit,
    device: &CouplingGraph,
    opts: &RouterOptions,
    layout_trials: usize,
) -> Result<(RoutedCircuit, Vec<RouteRetry>), RouteError> {
    route_with_attempt_log(circuit, device, opts, layout_trials).map(|(routed, attempts)| {
        let retries = attempts
            .into_iter()
            .filter_map(|a| {
                a.error.map(|error| RouteRetry {
                    strategy: a.strategy,
                    error,
                })
            })
            .collect();
        (routed, retries)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route;
    use phoenix_circuit::Gate;

    fn program(n: usize, pairs: &[(usize, usize)]) -> Circuit {
        let mut c = Circuit::new(n);
        for &(a, b) in pairs {
            c.push(Gate::Cnot(a, b));
        }
        c
    }

    #[test]
    fn greedy_places_interacting_pairs_adjacent() {
        // Two hot pairs on a line device: both should be adjacent.
        let c = program(4, &[(0, 3), (0, 3), (0, 3), (1, 2)]);
        let dev = CouplingGraph::line(6);
        let l = greedy_layout(&c, &dev);
        assert_eq!(dev.distance(l.phys(0).unwrap(), l.phys(3).unwrap()), 1);
    }

    #[test]
    fn search_layout_beats_trivial_on_scrambled_program() {
        // A program whose hot pairs are far apart under the identity map.
        let pairs: Vec<(usize, usize)> = (0..8).map(|i| (i, (i + 4) % 8)).collect();
        let many: Vec<(usize, usize)> = pairs
            .iter()
            .flat_map(|&p| std::iter::repeat_n(p, 4))
            .collect();
        let c = program(8, &many);
        let dev = CouplingGraph::grid(2, 4);
        let opts = RouterOptions::default();
        let trivial = route(&c, &dev, Layout::trivial(8, 8), &opts).num_swaps;
        let searched = search_layout(&c, &dev, &opts, 3);
        let smart = route(&c, &dev, searched, &opts).num_swaps;
        assert!(smart <= trivial, "searched {smart} vs trivial {trivial}");
    }

    #[test]
    fn layout_is_valid_bijection() {
        let c = program(5, &[(0, 4), (1, 3)]);
        let dev = CouplingGraph::manhattan65();
        let l = search_layout(&c, &dev, &RouterOptions::default(), 2);
        let mut seen = std::collections::BTreeSet::new();
        for q in 0..5 {
            assert!(seen.insert(l.phys(q).unwrap()), "physical slot reused");
        }
    }

    #[test]
    fn retry_ladder_succeeds_on_a_routable_program() {
        let c = program(5, &[(0, 4), (1, 3), (0, 2)]);
        let dev = CouplingGraph::line(5);
        let (routed, retries) =
            route_with_retry(&c, &dev, &RouterOptions::default(), 2).expect("routable");
        assert!(retries.is_empty(), "first attempt should succeed");
        assert!(routed.circuit.len() >= c.len());
    }

    #[test]
    fn retry_ladder_falls_back_when_the_budget_is_tight() {
        // A budget of 1 makes the searched and greedy attempts fail on a
        // program needing several swaps; the trivial fallback gets 4×.
        let pairs: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 3) % 6)).collect();
        let c = program(6, &pairs);
        let dev = CouplingGraph::line(6);
        let opts = RouterOptions {
            max_swaps: 1,
            ..RouterOptions::default()
        };
        match route_with_retry(&c, &dev, &opts, 1) {
            Ok((_, retries)) => assert!(!retries.is_empty(), "must have retried"),
            Err(RouteError::SwapBudgetExceeded { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn retry_ladder_reports_unroutable_instances() {
        // All three logical qubits interact pairwise but physical qubit 2
        // is isolated: whichever logical lands there is stranded, so no
        // layout can route the whole program.
        let c = program(3, &[(0, 1), (1, 2), (0, 2)]);
        let dev = CouplingGraph::from_edges(3, [(0, 1)]);
        let err = route_with_retry(&c, &dev, &RouterOptions::default(), 1)
            .expect_err("disconnected region is unroutable");
        assert!(matches!(
            err,
            RouteError::SwapBudgetExceeded { .. } | RouteError::NoSwapCandidate { .. }
        ));
    }
}
