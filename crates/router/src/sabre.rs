//! The SABRE-style swap router.

use crate::Layout;
use phoenix_circuit::{Circuit, Gate};
use phoenix_topology::CouplingGraph;
use std::fmt;

/// Tuning knobs for the router.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterOptions {
    /// Size of the lookahead (extended) gate set.
    pub extended_set_size: usize,
    /// Relative weight of the extended set in the swap score.
    pub extended_weight: f64,
    /// Per-swap decay added to recently moved qubits (discourages
    /// ping-ponging); reset every [`RouterOptions::decay_reset`] swaps.
    pub decay: f64,
    /// Number of swaps between decay resets.
    pub decay_reset: usize,
    /// Execute distance-2 CNOTs through an ancilla-free *bridge* (4 CNOTs,
    /// no layout change — Itoko et al.) when the pair does not recur in the
    /// lookahead window; otherwise fall back to SWAPs.
    pub use_bridge: bool,
    /// Hard cap on inserted SWAPs before the router gives up with
    /// [`RouteError::SwapBudgetExceeded`] instead of looping on a
    /// pathological instance. `0` selects an automatic budget generous
    /// enough for any legitimately routable program (see
    /// [`RouterOptions::swap_budget`]).
    pub max_swaps: usize,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            extended_set_size: 20,
            extended_weight: 0.5,
            decay: 0.001,
            decay_reset: 5,
            use_bridge: false,
            max_swaps: 0,
        }
    }
}

impl RouterOptions {
    /// The effective SWAP budget for a circuit with `num_2q` two-qubit
    /// gates on an `n_phys`-qubit device: `max_swaps` when nonzero,
    /// otherwise an automatic bound. Every 2Q gate needs at most
    /// `diameter − 1 < n_phys` swaps, so the automatic budget is only hit
    /// when routing cannot make progress (e.g. a disconnected region).
    pub fn swap_budget(&self, num_2q: usize, n_phys: usize) -> usize {
        if self.max_swaps != 0 {
            return self.max_swaps;
        }
        64usize.saturating_add(num_2q.saturating_mul(n_phys.max(1)))
    }
}

/// Why routing was rejected or abandoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The circuit uses more qubits than the device offers.
    DeviceTooSmall {
        /// Logical qubits required.
        logical: usize,
        /// Physical qubits available.
        physical: usize,
    },
    /// The initial layout maps a different number of logical qubits than
    /// the circuit declares.
    LayoutMismatch {
        /// Logical qubits of the layout.
        layout: usize,
        /// Logical qubits of the circuit.
        circuit: usize,
    },
    /// A blocked 2Q gate has no candidate SWAP — one of its qubits sits on
    /// an isolated physical qubit.
    NoSwapCandidate {
        /// The blocked logical pair.
        pair: (usize, usize),
    },
    /// The SWAP budget ran out before all gates executed — the instance is
    /// pathological (typically a disconnected device region) or the
    /// configured [`RouterOptions::max_swaps`] was too tight.
    SwapBudgetExceeded {
        /// The budget that was exhausted.
        budget: usize,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::DeviceTooSmall { logical, physical } => write!(
                f,
                "device too small: {logical} logical qubits vs {physical} physical"
            ),
            RouteError::LayoutMismatch { layout, circuit } => write!(
                f,
                "layout maps {layout} logical qubits but the circuit uses {circuit}"
            ),
            RouteError::NoSwapCandidate { pair: (a, b) } => write!(
                f,
                "no swap candidate for blocked gate on logical pair ({a}, {b}); \
                 is the device region disconnected?"
            ),
            RouteError::SwapBudgetExceeded { budget } => {
                write!(
                    f,
                    "swap budget of {budget} exhausted before routing finished"
                )
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// The result of routing: a physical circuit plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedCircuit {
    /// Physical-indexed circuit containing the original gates (relabelled)
    /// and inserted [`Gate::Swap`]s.
    pub circuit: Circuit,
    /// Number of inserted SWAPs.
    pub num_swaps: usize,
    /// Layout before the first gate — the placement the routed circuit's
    /// semantics are defined against (logical qubit `l` enters at physical
    /// qubit `initial_layout.phys(l)`). Needed for permutation-aware
    /// equivalence checking of routed circuits.
    pub initial_layout: Layout,
    /// Layout after the last gate (logical qubit `l` ends at physical
    /// qubit `final_layout.phys(l)`).
    pub final_layout: Layout,
}

/// Routes a logical circuit onto a coupling graph starting from
/// `initial_layout`, inserting SWAPs so every 2Q gate acts on coupled
/// physical qubits.
///
/// The input is lowered to `{1Q, CNOT}` first. The algorithm is the SABRE
/// heuristic: execute the front layer greedily; when stuck, apply the swap
/// (among edges touching front-layer qubits) minimizing the summed
/// front-layer distance plus a weighted lookahead term, with a decay factor
/// discouraging repeated moves of the same qubit.
///
/// # Panics
///
/// Panics on any [`RouteError`] — use [`try_route`] for graceful rejection.
pub fn route(
    logical: &Circuit,
    device: &CouplingGraph,
    initial_layout: Layout,
    opts: &RouterOptions,
) -> RoutedCircuit {
    try_route(logical, device, initial_layout, opts)
        .unwrap_or_else(|e| panic!("routing failed: {e}"))
}

/// Fallible [`route`]: rejects undersized devices, mismatched layouts, and
/// instances whose SWAP budget runs out (disconnected regions included)
/// with a typed [`RouteError`] instead of panicking or looping.
pub fn try_route(
    logical: &Circuit,
    device: &CouplingGraph,
    initial_layout: Layout,
    opts: &RouterOptions,
) -> Result<RoutedCircuit, RouteError> {
    route_lowered(&logical.lower_to_cnot(), device, initial_layout, opts, true)
}

/// Second-qubit marker of a 1Q gate in [`Queues::qubits`].
const NONE: usize = usize::MAX;

/// Per-qubit gate queues in CSR form. Gate `g` is *ready* when it heads the
/// queue of each of its qubits; popping advances a cursor.
struct Queues {
    /// Qubits of each gate (`NONE` as the second entry of a 1Q gate).
    qubits: Vec<(usize, usize)>,
    /// `list[start[q]..start[q + 1]]` holds the gates on qubit `q`, in order.
    start: Vec<usize>,
    list: Vec<usize>,
    /// `list[head[q]]` is the front gate of qubit `q`.
    head: Vec<usize>,
}

impl Queues {
    fn new(gates: &[Gate], n: usize) -> Self {
        let qubits: Vec<(usize, usize)> = gates
            .iter()
            .map(|g| match g.qubits() {
                (a, Some(b)) => (a, b),
                (a, None) => (a, NONE),
            })
            .collect();
        let mut start = vec![0usize; n + 1];
        for &(a, b) in &qubits {
            start[a + 1] += 1;
            if b != NONE {
                start[b + 1] += 1;
            }
        }
        for q in 0..n {
            start[q + 1] += start[q];
        }
        let mut fill = start.clone();
        let mut list = vec![0usize; start[n]];
        for (gi, &(a, b)) in qubits.iter().enumerate() {
            list[fill[a]] = gi;
            fill[a] += 1;
            if b != NONE {
                list[fill[b]] = gi;
                fill[b] += 1;
            }
        }
        let head = start[..n].to_vec();
        Queues {
            qubits,
            start,
            list,
            head,
        }
    }

    #[inline]
    fn front(&self, q: usize) -> Option<usize> {
        let h = self.head[q];
        (h < self.start[q + 1]).then(|| self.list[h])
    }

    /// The other qubit of `q`'s front gate, when that gate is 2Q.
    #[inline]
    fn front_partner(&self, q: usize) -> Option<usize> {
        let (a, b) = self.qubits[self.front(q)?];
        match (a == q, b) {
            (_, NONE) => None,
            (true, b) => Some(b),
            (false, _) => Some(a),
        }
    }
}

/// `base` re-evaluated as if the occupants of physical qubits `s1` and `s2`
/// were exchanged: only gates touching `s1` or `s2` change distance.
/// Integer sums keep the result exact whatever the evaluation order.
#[inline]
fn swapped_sum(
    device: &CouplingGraph,
    base: u64,
    phys: &[(usize, usize, u32)],
    s1: usize,
    s2: usize,
) -> u64 {
    let mv = |p: usize| {
        if p == s1 {
            s2
        } else if p == s2 {
            s1
        } else {
            p
        }
    };
    let mut sum = base;
    for &(pa, pb, d) in phys {
        if pa == s1 || pa == s2 || pb == s1 || pb == s2 {
            sum = sum - u64::from(d) + u64::from(device.distance(mv(pa), mv(pb)));
        }
    }
    sum
}

/// Routes an already lowered `{1Q, CNOT}` circuit — the engine behind
/// [`try_route`] and the layout search.
///
/// With `emit == false` no output gates are built and the returned
/// circuit is empty: layout-search trials read only `num_swaps` and
/// `final_layout`. Only emitting routings that succeed feed the
/// process-wide `sabre_swaps_total` / `sabre_bridges_total` counters.
pub(crate) fn route_lowered(
    lowered: &Circuit,
    device: &CouplingGraph,
    initial_layout: Layout,
    opts: &RouterOptions,
    emit: bool,
) -> Result<RoutedCircuit, RouteError> {
    let n_log = lowered.num_qubits();
    let n_phys = device.num_qubits();
    if n_log > n_phys {
        return Err(RouteError::DeviceTooSmall {
            logical: n_log,
            physical: n_phys,
        });
    }
    if initial_layout.num_logical() != n_log {
        return Err(RouteError::LayoutMismatch {
            layout: initial_layout.num_logical(),
            circuit: n_log,
        });
    }
    // Arity was just validated, so every logical qubit of the circuit maps.
    let ph = |layout: &Layout, l: usize| -> usize {
        layout.phys(l).expect("layout arity validated above")
    };
    let gates = lowered.gates();
    let mut queues = Queues::new(gates, n_log);
    // The 2Q gates in program order, for the extended set.
    let (twoq_index, twoq_pairs): (Vec<usize>, Vec<(usize, usize)>) = queues
        .qubits
        .iter()
        .enumerate()
        .filter(|(_, &(_, b))| b != NONE)
        .map(|(gi, &pair)| (gi, pair))
        .unzip();
    let budget = opts.swap_budget(twoq_index.len(), n_phys);

    let start_layout = initial_layout.clone();
    let mut layout = initial_layout;
    let mut out = Circuit::new(n_phys);
    let mut num_swaps = 0usize;
    let mut num_bridges = 0usize;
    let mut decay = vec![0.0f64; n_phys];
    let mut swaps_since_reset = 0usize;
    let mut last_swap: Option<(usize, usize)> = None;

    // Reused across steps: the drain's work sets and per-qubit pass stamp,
    // the front layer, and the physical endpoints (with distance) of the
    // front and extended gates.
    let mut examine = vec![false; n_log];
    let mut next = vec![false; n_log];
    let mut popped_in_pass = vec![0usize; n_log];
    let mut pass = 0usize;
    let mut front: Vec<(usize, usize)> = Vec::new();
    let mut front_phys: Vec<(usize, usize, u32)> = Vec::new();
    let mut ext_phys: Vec<(usize, usize, u32)> = Vec::new();

    loop {
        // Phase 1: drain everything executable. Semantically a pass scans
        // the front of every queue in qubit order and executes each
        // scanned gate that is ready and coupled at that moment; newly
        // exposed fronts wait for the next pass. A qubit whose front gate,
        // and whose front gate's partner front, did not change since it was
        // last scanned cannot execute, so after the first (full) pass only
        // qubits touched by a pop are scanned. A pop that makes a later
        // qubit's pass-start front ready scans that qubit in the same pass.
        let mut any_executed = false;
        examine.fill(true);
        loop {
            pass += 1;
            next.fill(false);
            let mut progressed = false;
            for q in 0..n_log {
                // Skip unmarked qubits, and those popped earlier in this
                // pass: their pass-start front already executed.
                if !std::mem::take(&mut examine[q]) || popped_in_pass[q] == pass {
                    continue;
                }
                let Some(gi) = queues.front(q) else { continue };
                let (a, b) = queues.qubits[gi];
                if b != NONE {
                    let other = if a == q { b } else { a };
                    if queues.front(other) != Some(gi)
                        || device.distance(ph(&layout, a), ph(&layout, b)) != 1
                    {
                        continue;
                    }
                }
                if emit {
                    out.push(gates[gi].map_qubits(&mut |x| ph(&layout, x)));
                }
                for x in [a, b] {
                    if x != NONE {
                        queues.head[x] += 1;
                        popped_in_pass[x] = pass;
                        next[x] = true;
                    }
                }
                // After both pops, a new front gate's partner may have become
                // ready to run.
                for x in [a, b] {
                    if x == NONE {
                        continue;
                    }
                    if let Some(c) = queues.front_partner(x) {
                        next[c] = true;
                        if c > q && popped_in_pass[c] != pass {
                            examine[c] = true;
                        }
                    }
                }
                progressed = true;
            }
            if !progressed {
                break;
            }
            any_executed = true;
            std::mem::swap(&mut examine, &mut next);
        }
        if any_executed {
            last_swap = None;
        }

        // Front layer: ready-but-blocked 2Q gates, by control qubit; and
        // the smallest pending gate index.
        front.clear();
        let mut min_pending = usize::MAX;
        for q in 0..n_log {
            if let Some(gi) = queues.front(q) {
                min_pending = min_pending.min(gi);
                let (a, b) = queues.qubits[gi];
                if b != NONE && a == q && queues.front(b) == Some(gi) {
                    front.push((a, b));
                }
            }
        }
        if front.is_empty() {
            break; // all gates executed
        }

        // Extended set: the first `extended_set_size` 2Q gates from the
        // smallest pending index in program order. This window includes
        // 2Q gates that already executed (their qubits moved on); it is
        // kept as is, since changing it changes routing decisions.
        let first = twoq_index.partition_point(|&gi| gi < min_pending);
        let last = (first + opts.extended_set_size).min(twoq_pairs.len());
        let extended = &twoq_pairs[first..last];

        // Bridge option: a distance-2 CNOT whose pair does not recur soon
        // is cheaper as 4 CNOTs through the middle qubit than as SWAPs.
        if opts.use_bridge {
            let mut bridged = false;
            for &(a, b) in &front {
                let (pa, pb) = (ph(&layout, a), ph(&layout, b));
                if device.distance(pa, pb) != 2 {
                    continue;
                }
                let recurs = extended
                    .iter()
                    .filter(|&&(ea, eb)| (ea, eb) == (a, b) || (ea, eb) == (b, a))
                    .count()
                    > 1;
                if recurs {
                    continue;
                }
                if emit {
                    let path = device
                        .shortest_path(pa, pb)
                        .expect("distance-2 pair is connected");
                    let m = path[1];
                    // CX(pa,pb) = CX(pa,m)·CX(m,pb)·CX(pa,m)·CX(m,pb) in circuit order.
                    for _ in 0..2 {
                        out.push(Gate::Cnot(pa, m));
                        out.push(Gate::Cnot(m, pb));
                    }
                }
                num_bridges += 1;
                // Retire the logical gate.
                debug_assert_eq!(queues.front(a), queues.front(b));
                queues.head[a] += 1;
                queues.head[b] += 1;
                bridged = true;
                break;
            }
            if bridged {
                last_swap = None;
                continue;
            }
        }

        // Candidate swaps: device edges touching any front-layer qubit,
        // scored by the summed front-layer distance plus the weighted mean
        // extended-set distance, times the decay factor. Distance sums are
        // integers, converted to f64 once per candidate, so the score (and
        // the strict `<` tie-break) equals a float accumulation exactly.
        // The swap that would undo the previous one is excluded to rule out
        // ping-pong livelock (it can never be the sole candidate: the edge
        // that was just swapped still offers its other-endpoint moves).
        let locate = |pairs: &[(usize, usize)], buf: &mut Vec<(usize, usize, u32)>| -> u64 {
            buf.clear();
            let mut sum = 0u64;
            for &(a, b) in pairs {
                let (pa, pb) = (ph(&layout, a), ph(&layout, b));
                let d = device.distance(pa, pb);
                sum += u64::from(d);
                buf.push((pa, pb, d));
            }
            sum
        };
        let front_base = locate(&front, &mut front_phys);
        let ext_base = locate(extended, &mut ext_phys);
        let mut best: Option<((usize, usize), f64)> = None;
        for &(a, b) in &front {
            for &l in &[a, b] {
                let p = ph(&layout, l);
                for &nb in device.neighbors(p).unwrap_or(&[]) {
                    let edge = (p.min(nb), p.max(nb));
                    if Some(edge) == last_swap {
                        continue;
                    }
                    let mut score =
                        swapped_sum(device, front_base, &front_phys, edge.0, edge.1) as f64;
                    if !extended.is_empty() {
                        let ext = swapped_sum(device, ext_base, &ext_phys, edge.0, edge.1) as f64;
                        score += opts.extended_weight * ext / extended.len() as f64;
                    }
                    score *= 1.0 + decay[edge.0] + decay[edge.1];
                    if best.is_none_or(|(_, s)| score < s) {
                        best = Some((edge, score));
                    }
                }
            }
        }
        let ((p1, p2), _) = best.ok_or(RouteError::NoSwapCandidate { pair: front[0] })?;
        if num_swaps >= budget {
            return Err(RouteError::SwapBudgetExceeded { budget });
        }
        if emit {
            out.push(Gate::Swap(p1, p2));
        }
        layout.swap_physical(p1, p2);
        last_swap = Some((p1, p2));
        num_swaps += 1;
        decay[p1] += opts.decay;
        decay[p2] += opts.decay;
        swaps_since_reset += 1;
        if swaps_since_reset >= opts.decay_reset {
            decay.iter_mut().for_each(|d| *d = 0.0);
            swaps_since_reset = 0;
        }
    }

    if emit && phoenix_obs::metrics::enabled() {
        use phoenix_obs::metrics::{global, MetricId};
        global().add(MetricId::SabreSwapsTotal, num_swaps as u64);
        global().add(MetricId::SabreBridgesTotal, num_bridges as u64);
    }
    Ok(RoutedCircuit {
        circuit: out,
        num_swaps,
        initial_layout: start_layout,
        final_layout: layout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_circuit::Gate;

    fn opts() -> RouterOptions {
        RouterOptions::default()
    }

    /// The routed circuit, with swaps replayed, must execute every original
    /// CNOT on coupled qubits and preserve the logical gate sequence.
    fn verify_routing(logical: &Circuit, device: &CouplingGraph, routed: &RoutedCircuit) {
        let lowered = logical.lower_to_cnot();
        let mut layout = Layout::trivial(lowered.num_qubits(), device.num_qubits());
        let mut replay: Vec<Gate> = Vec::new();
        for g in routed.circuit.gates() {
            match g {
                Gate::Swap(p1, p2) => {
                    assert!(device.contains_edge(*p1, *p2), "swap on non-edge");
                    layout.swap_physical(*p1, *p2);
                }
                Gate::Cnot(pa, pb) => {
                    assert!(device.contains_edge(*pa, *pb), "cnot on non-edge");
                    let la = layout.logical(*pa).expect("control is mapped");
                    let lb = layout.logical(*pb).expect("target is mapped");
                    replay.push(Gate::Cnot(la, lb));
                }
                one_q => {
                    let (p, _) = one_q.qubits();
                    let l = layout.logical(p).expect("qubit is mapped");
                    replay.push(one_q.map_qubits(&mut |_| l));
                }
            }
        }
        // The router may reorder gates on disjoint qubits (that commutes);
        // semantics are preserved iff every qubit sees the same gate
        // subsequence as in the original program.
        assert_eq!(replay.len(), lowered.len(), "gate count preserved");
        let per_qubit = |gates: &[Gate]| -> Vec<Vec<Gate>> {
            let mut v = vec![Vec::new(); lowered.num_qubits()];
            for g in gates {
                let (a, b) = g.qubits();
                v[a].push(g.clone());
                if let Some(b) = b {
                    v[b].push(g.clone());
                }
            }
            v
        };
        assert_eq!(
            per_qubit(&replay),
            per_qubit(lowered.gates()),
            "per-qubit gate sequences preserved"
        );
    }

    #[test]
    fn all_to_all_needs_no_swaps() {
        let mut c = Circuit::new(4);
        c.push(Gate::Cnot(0, 3));
        c.push(Gate::Cnot(1, 2));
        let dev = CouplingGraph::all_to_all(4);
        let r = route(&c, &dev, Layout::trivial(4, 4), &opts());
        assert_eq!(r.num_swaps, 0);
        verify_routing(&c, &dev, &r);
    }

    #[test]
    fn adjacent_gate_passes_through() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(0, 1));
        let dev = CouplingGraph::line(3);
        let r = route(&c, &dev, Layout::trivial(3, 3), &opts());
        assert_eq!(r.num_swaps, 0);
        assert_eq!(r.circuit.counts().cnot, 1);
    }

    #[test]
    fn distant_gate_inserts_swaps() {
        let mut c = Circuit::new(5);
        c.push(Gate::Cnot(0, 4));
        let dev = CouplingGraph::line(5);
        let r = route(&c, &dev, Layout::trivial(5, 5), &opts());
        assert!(r.num_swaps >= 3, "distance 4 needs ≥3 swaps");
        verify_routing(&c, &dev, &r);
    }

    #[test]
    fn routing_preserves_semantics_on_random_program() {
        let mut rng = phoenix_mathkit::Xoshiro256::seed_from_u64(9);
        let n = 8;
        let mut c = Circuit::new(n);
        for _ in 0..40 {
            let a = rng.next_below(n);
            let mut b = rng.next_below(n);
            while b == a {
                b = rng.next_below(n);
            }
            c.push(Gate::Cnot(a, b));
            c.push(Gate::Rz(a, rng.next_f64()));
        }
        let dev = CouplingGraph::grid(2, 4);
        let r = route(&c, &dev, Layout::trivial(n, 8), &opts());
        verify_routing(&c, &dev, &r);
    }

    #[test]
    fn heavy_hex_routing_terminates_and_verifies() {
        let mut c = Circuit::new(16);
        for i in 0..15 {
            c.push(Gate::Cnot(i, (i + 5) % 16));
        }
        let dev = CouplingGraph::manhattan65();
        let r = route(&c, &dev, Layout::trivial(16, 65), &opts());
        verify_routing(&c, &dev, &r);
        assert!(r.num_swaps > 0);
    }

    #[test]
    fn bridge_executes_distance2_cnot_without_swaps() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(0, 2)); // distance 2 on a line
        let dev = CouplingGraph::line(3);
        let mut o = opts();
        o.use_bridge = true;
        let r = route(&c, &dev, Layout::trivial(3, 3), &o);
        assert_eq!(r.num_swaps, 0, "bridge avoids swaps");
        assert_eq!(r.circuit.counts().cnot, 4, "bridge costs 4 CNOTs");
        // The bridge implements the same unitary as the original CNOT.
        let u = phoenix_sim::circuit_unitary(&c);
        let v = phoenix_sim::circuit_unitary(&r.circuit);
        assert!(u.approx_eq(&v, 1e-12));
    }

    #[test]
    fn bridge_defers_to_swaps_when_pair_recurs() {
        let mut c = Circuit::new(3);
        for _ in 0..4 {
            c.push(Gate::Cnot(0, 2));
            c.push(Gate::Rx(2, 0.3)); // block trivial cancellation
        }
        let dev = CouplingGraph::line(3);
        let mut o = opts();
        o.use_bridge = true;
        let r = route(&c, &dev, Layout::trivial(3, 3), &o);
        assert!(
            r.num_swaps >= 1,
            "recurring pair should be moved, not bridged"
        );
    }

    #[test]
    fn try_route_rejects_undersized_device() {
        let mut c = Circuit::new(4);
        c.push(Gate::Cnot(0, 3));
        let dev = CouplingGraph::line(2);
        let err = try_route(&c, &dev, Layout::trivial(2, 2), &opts()).unwrap_err();
        assert_eq!(
            err,
            RouteError::DeviceTooSmall {
                logical: 4,
                physical: 2
            }
        );
    }

    #[test]
    fn try_route_rejects_mismatched_layout() {
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(0, 1));
        let dev = CouplingGraph::line(3);
        let err = try_route(&c, &dev, Layout::trivial(2, 3), &opts()).unwrap_err();
        assert!(matches!(
            err,
            RouteError::LayoutMismatch {
                layout: 2,
                circuit: 3
            }
        ));
    }

    #[test]
    fn tight_swap_budget_is_reported_not_looped() {
        let mut c = Circuit::new(5);
        c.push(Gate::Cnot(0, 4)); // needs ≥3 swaps on a line
        let dev = CouplingGraph::line(5);
        let mut o = opts();
        o.max_swaps = 1;
        let err = try_route(&c, &dev, Layout::trivial(5, 5), &o).unwrap_err();
        assert_eq!(err, RouteError::SwapBudgetExceeded { budget: 1 });
    }

    #[test]
    fn disconnected_region_errs_instead_of_hanging() {
        // Qubit 2 is isolated; the gate can never execute, and without a
        // budget the router would ping-pong forever.
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot(0, 2));
        let dev = CouplingGraph::from_edges(3, [(0, 1)]);
        let err = try_route(&c, &dev, Layout::trivial(3, 3), &opts()).unwrap_err();
        assert!(matches!(
            err,
            RouteError::SwapBudgetExceeded { .. } | RouteError::NoSwapCandidate { .. }
        ));
    }

    #[test]
    fn default_budget_never_trips_on_routable_programs() {
        let o = opts();
        assert_eq!(o.swap_budget(10, 8), 64 + 80);
        let mut tight = opts();
        tight.max_swaps = 7;
        assert_eq!(tight.swap_budget(10, 8), 7);
    }

    #[test]
    fn oneq_only_circuit_routes_trivially() {
        let mut c = Circuit::new(3);
        c.push(Gate::H(0));
        c.push(Gate::Rz(2, 0.4));
        let dev = CouplingGraph::line(3);
        let r = route(&c, &dev, Layout::trivial(3, 3), &opts());
        assert_eq!(r.num_swaps, 0);
        assert_eq!(r.circuit.len(), 2);
    }
}
