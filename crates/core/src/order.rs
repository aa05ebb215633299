//! Stage 3: Tetris-like IR group ordering (§IV-C).
//!
//! Simplified groups are abstracted into Tetris-block-like shapes; assembly
//! greedily minimizes a uniform cost combining
//!
//! 1. the **depth overhead** of abutting the candidate block against the
//!    already-assembled circuit — how many 2Q layers the block adds when it
//!    slides into the assembled frontier (the endian-vector picture of
//!    Fig. 3: a block whose left endian meshes with the frontier's right
//!    endian adds fewer layers);
//! 2. a credit for Hermitian Clifford2Q pairs cancelling across the seam
//!    (Fig. 4(a)), including extra credit when the cancellation clears a
//!    whole facing layer;
//! 3. in hardware-aware mode, division by the interaction-graph similarity
//!    factor of Eq. (7) (Fig. 4(b)).
//!
//! *Transcription note:* the paper's printed formula reads
//! `cost = SUM(e_r + e_l')` to be minimized, but taken literally that
//! prefers colliding blocks over side-by-side packing, contradicting the
//! stated goal of minimizing circuit depth (and the depth-optimal QAOA
//! claim of §V-E). We therefore implement the quantity the endian vectors
//! are introduced to measure — the depth increase of the assembly — which
//! reproduces the paper's reported behaviour.
//!
//! Groups are pre-sorted by descending width, then assembled with a bounded
//! lookahead window.

use phoenix_circuit::interaction::{head_edges, support_2q, tail_edges};
use phoenix_circuit::{Circuit, Gate};
use phoenix_pauli::{Clifford2Q, QubitMask};
use std::collections::{BTreeSet, VecDeque};

/// Ordering parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderOptions {
    /// How many upcoming groups are scored against the last assembled one.
    pub lookahead: usize,
    /// Whether to apply the Eq. (7) routing-similarity factor.
    pub routing_aware: bool,
}

impl Default for OrderOptions {
    fn default() -> Self {
        OrderOptions {
            lookahead: 10,
            routing_aware: false,
        }
    }
}

/// The per-qubit 2Q-layer frontier of an assembled prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frontier {
    layers: Vec<usize>,
    depth: usize,
}

impl Frontier {
    /// An empty frontier over `n` qubits.
    pub fn new(n: usize) -> Self {
        Frontier {
            layers: vec![0; n],
            depth: 0,
        }
    }

    /// Current 2Q depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Pushes every 2Q gate of `c` onto the frontier.
    pub fn push(&mut self, c: &Circuit) {
        for g in c.gates() {
            if let (a, Some(b)) = g.qubits() {
                let layer = self.layers[a].max(self.layers[b]) + 1;
                self.layers[a] = layer;
                self.layers[b] = layer;
                self.depth = self.depth.max(layer);
            }
        }
    }

    /// 2Q layers added if `c` were appended (ASAP scheduling), without
    /// mutating the frontier.
    pub fn depth_added(&self, c: &Circuit) -> usize {
        let (support, pairs) = two_qubit_pairs(c);
        self.pairs_depth_added(&support, &pairs, &mut Vec::new())
    }

    /// [`Frontier::depth_added`] for 2Q gates given as positions in
    /// `support`. Trial layers live in `scratch`, sized to the support,
    /// not to the register.
    fn pairs_depth_added(
        &self,
        support: &[usize],
        pairs: &[(u32, u32)],
        scratch: &mut Vec<usize>,
    ) -> usize {
        scratch.clear();
        scratch.extend(support.iter().map(|&q| self.layers[q]));
        let mut depth = self.depth;
        for &(a, b) in pairs {
            let (a, b) = (a as usize, b as usize);
            let layer = scratch[a].max(scratch[b]) + 1;
            scratch[a] = layer;
            scratch[b] = layer;
            depth = depth.max(layer);
        }
        depth - self.depth
    }
}

/// The 2Q support of `c` (ascending) and its 2Q gates in program order,
/// as positions in that support.
fn two_qubit_pairs(c: &Circuit) -> (Vec<usize>, Vec<(u32, u32)>) {
    let support = support_2q(c).to_indices();
    let pos = |q: usize| {
        let i = support.binary_search(&q).expect("qubit is in the support");
        u32::try_from(i).expect("2Q support fits in u32")
    };
    let pairs = c
        .gates()
        .iter()
        .filter_map(|g| match g.qubits() {
            (a, Some(b)) => Some((pos(a), pos(b))),
            _ => None,
        })
        .collect();
    (support, pairs)
}

/// Marks a pair disconnected in a [`Seam`] distance table.
const UNREACHED: u32 = u32::MAX;

/// Everything [`assembly_cost`] reads from one group, computed once per
/// group instead of once per (prev, candidate) pair. Storage is
/// O(|support|²), never O(n²), so wide registers stay cheap.
struct Seam {
    /// Qubits touched by 2Q gates, ascending.
    support: Vec<usize>,
    /// The 2Q gates in program order, as positions in `support`.
    pairs: Vec<(u32, u32)>,
    /// Frontier Clifford2Qs reachable from the head / from the tail.
    head_cliffords: Vec<Clifford2Q>,
    tail_cliffords: Vec<Clifford2Q>,
    /// The first 2Q layer from each end; `None` marks a non-Clifford gate.
    head_layer: Vec<Option<Clifford2Q>>,
    tail_layer: Vec<Option<Clifford2Q>>,
    /// Row-major `|support|²` BFS distances over the head / tail
    /// interaction graphs ([`UNREACHED`] for disconnected pairs); empty
    /// unless built for routing-aware ordering.
    head_dist: Vec<u32>,
    tail_dist: Vec<u32>,
}

impl Seam {
    fn new(c: &Circuit, routing_aware: bool) -> Self {
        let (support, pairs) = two_qubit_pairs(c);
        let (head_dist, tail_dist) = if routing_aware {
            (
                support_distances(&support, &head_edges(c)),
                support_distances(&support, &tail_edges(c)),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        Seam {
            head_cliffords: frontier_cliffords(c.gates().iter()),
            tail_cliffords: frontier_cliffords(c.gates().iter().rev()),
            head_layer: first_layer(c.gates().iter()),
            tail_layer: first_layer(c.gates().iter().rev()),
            support,
            pairs,
            head_dist,
            tail_dist,
        }
    }
}

/// BFS distances between the `support` qubits over `edges`, row-major.
fn support_distances(support: &[usize], edges: &BTreeSet<(usize, usize)>) -> Vec<u32> {
    let k = support.len();
    let pos = |q: usize| support.binary_search(&q).expect("edge inside the support");
    let mut adj = vec![Vec::new(); k];
    for &(a, b) in edges {
        adj[pos(a)].push(pos(b));
        adj[pos(b)].push(pos(a));
    }
    let mut dist = vec![UNREACHED; k * k];
    let mut queue = VecDeque::new();
    for (s, row) in dist.chunks_exact_mut(k.max(1)).enumerate() {
        row[s] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if row[v] == UNREACHED {
                    row[v] = row[u] + 1;
                    queue.push_back(v);
                }
            }
        }
    }
    dist
}

/// The assembling cost of placing `next` after the assembled prefix whose
/// frontier is `frontier` and whose last block is `prev`.
///
/// Lower is better; Clifford-cancellation credits can push it negative.
pub fn assembly_cost(
    frontier: &Frontier,
    prev: &Circuit,
    next: &Circuit,
    opts: &OrderOptions,
) -> f64 {
    seam_cost(
        frontier,
        &Seam::new(prev, opts.routing_aware),
        &Seam::new(next, opts.routing_aware),
        opts,
        &mut Vec::new(),
    )
}

/// [`assembly_cost`] over precomputed seams.
fn seam_cost(
    frontier: &Frontier,
    prev: &Seam,
    next: &Seam,
    opts: &OrderOptions,
    scratch: &mut Vec<usize>,
) -> f64 {
    let mut cost = frontier.pairs_depth_added(&next.support, &next.pairs, scratch) as f64;

    // Clifford2Q cancellation credit.
    let (m, prev_layer_cleared, next_layer_cleared) = clifford_cancellations(prev, next);
    cost -= 2.0 * m as f64;
    if prev_layer_cleared {
        cost -= 1.0;
    }
    if next_layer_cleared {
        cost -= 1.0;
    }

    if opts.routing_aware {
        let s = mean_similarity(prev, next).clamp(0.05, 1.0);
        cost = if cost >= 0.0 { cost / s } else { cost * s };
    }
    cost
}

/// Eq. (7) similarity normalized to a mean row cosine in `[0, 1]`: the
/// tail distance matrix of `prev` against the head distance matrix of
/// `next`, over the union of their 2Q supports, where a pair unreachable
/// in a graph (or outside its support) sits at distance `k` = union size.
///
/// Equals `interaction::routing_similarity(prev, next) / k` bit for bit:
/// each row's dot product and squared norms are sums of integers, exact in
/// any order, so they are accumulated as integers and converted once.
fn mean_similarity(prev: &Seam, next: &Seam) -> f64 {
    // Union nodes with their positions in each support.
    let mut union: Vec<(Option<usize>, Option<usize>)> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < prev.support.len() || j < next.support.len() {
        let p = prev.support.get(i).copied().unwrap_or(usize::MAX);
        let q = next.support.get(j).copied().unwrap_or(usize::MAX);
        union.push(((p <= q).then_some(i), (q <= p).then_some(j)));
        i += usize::from(p <= q);
        j += usize::from(q <= p);
    }
    let k = union.len();
    if k == 0 {
        return 1.0;
    }
    let far = k as u64;
    let entry = |table: &[u32], width: usize, a: Option<usize>, b: Option<usize>| -> u64 {
        match (a, b) {
            (Some(a), Some(b)) if table[a * width + b] != UNREACHED => {
                u64::from(table[a * width + b])
            }
            _ => far,
        }
    };
    let (kp, kn) = (prev.support.len(), next.support.len());
    let mut s = 0.0;
    for (r, &(pr, nr)) in union.iter().enumerate() {
        let (mut dot, mut sq1, mut sq2) = (0u64, 0u64, 0u64);
        for (c, &(pc, nc)) in union.iter().enumerate() {
            if r == c {
                continue; // the diagonal is 0 in both matrices
            }
            let d1 = entry(&prev.tail_dist, kp, pr, pc);
            let d2 = entry(&next.head_dist, kn, nr, nc);
            dot += d1 * d2;
            sq1 += d1 * d1;
            sq2 += d2 * d2;
        }
        let n1 = (sq1 as f64).sqrt();
        let n2 = (sq2 as f64).sqrt();
        if n1 > 0.0 && n2 > 0.0 {
            s += dot as f64 / (n1 * n2);
        }
    }
    s / k as f64
}

/// Counts Hermitian Clifford2Q pairs that cancel across the seam and
/// whether the cancellation clears the facing 2Q layer on either side.
fn clifford_cancellations(prev: &Seam, next: &Seam) -> (usize, bool, bool) {
    let mut trailing = prev.tail_cliffords.clone();
    let mut matched = 0usize;
    let mut matched_gates: Vec<Clifford2Q> = Vec::new();
    for l in &next.head_cliffords {
        if let Some(pos) = trailing.iter().position(|t| cancels(t, l)) {
            matched_gates.push(trailing.remove(pos));
            matched_gates.push(*l);
            matched += 1;
        }
    }
    if matched == 0 {
        return (0, false, false);
    }
    let prev_cleared = layer_cleared(&prev.tail_layer, &matched_gates);
    let next_cleared = layer_cleared(&next.head_layer, &matched_gates);
    (matched, prev_cleared, next_cleared)
}

/// The frontier 2Q Cliffords reachable from one end without crossing any
/// other gate on their qubits.
fn frontier_cliffords<'a>(gates: impl Iterator<Item = &'a Gate>) -> Vec<Clifford2Q> {
    let mut blocked = QubitMask::default();
    let mut out = Vec::new();
    for g in gates {
        let (a, b) = g.qubits();
        let hit = blocked.bit(a) || b.is_some_and(|b| blocked.bit(b));
        if let Gate::Clifford2(c) = g {
            if !hit {
                out.push(*c);
            }
        }
        blocked.set_bit(a);
        if let Some(b) = b {
            blocked.set_bit(b);
        }
    }
    out
}

/// The first 2Q layer from one end — 2Q gates seen before any qubit
/// overlap — as each gate's Clifford (`None` for other 2Q gates).
fn first_layer<'a>(gates: impl Iterator<Item = &'a Gate>) -> Vec<Option<Clifford2Q>> {
    let mut blocked = QubitMask::default();
    let mut layer = Vec::new();
    for g in gates {
        let (a, b) = g.qubits();
        let Some(b) = b else { continue };
        if blocked.bit(a) || blocked.bit(b) {
            break;
        }
        blocked.set_bit(a);
        blocked.set_bit(b);
        layer.push(match g {
            Gate::Clifford2(c) => Some(*c),
            _ => None,
        });
    }
    layer
}

/// Whether a facing 2Q layer consists entirely of cancelled gates.
fn layer_cleared(layer: &[Option<Clifford2Q>], cancelled: &[Clifford2Q]) -> bool {
    !layer.is_empty()
        && layer
            .iter()
            .all(|g| matches!(g, Some(c) if cancelled.contains(c)))
}

/// Whether two Clifford2Q gates are inverse (= equal, they are Hermitian) up
/// to the qubit exchange symmetry of the `C(σ,σ)` generators.
fn cancels(a: &Clifford2Q, b: &Clifford2Q) -> bool {
    if a.kind != b.kind {
        return false;
    }
    if a.a == b.a && a.b == b.b {
        return true;
    }
    // C(σ,σ) is symmetric under qubit exchange.
    a.kind.sigma0() == a.kind.sigma1() && a.a == b.b && a.b == b.a
}

/// Orders group subcircuits: descending-width pre-sort, then greedy
/// lookahead assembly against the running frontier. Returns the permutation
/// of input indices.
pub fn order_groups(circuits: &[Circuit], opts: &OrderOptions) -> Vec<usize> {
    order_groups_interruptible(circuits, opts, &mut || false)
        .expect("a never-true interrupt cannot abort the ordering")
}

/// [`order_groups`] with a cooperative interruption point before each
/// greedy placement: when `interrupted` returns `true` the partial ordering
/// is abandoned and `None` is returned (the caller keeps whatever ordering
/// it already holds — a half-greedy permutation is not meaningfully better
/// than none). The closure is the hook through which the anytime deepening
/// rounds and the ordering pass observe `CancelToken`s mid-loop.
pub fn order_groups_interruptible(
    circuits: &[Circuit],
    opts: &OrderOptions,
    interrupted: &mut dyn FnMut() -> bool,
) -> Option<Vec<usize>> {
    let mut remaining: Vec<usize> = (0..circuits.len()).collect();
    remaining.sort_by_key(|&i| std::cmp::Reverse(circuits[i].support_mask().count_ones()));
    if remaining.is_empty() {
        return Some(remaining);
    }
    let n = circuits.iter().map(Circuit::num_qubits).max().unwrap_or(0);
    // Seams are built when a group enters the lookahead window and dropped
    // once a later group is placed after it: at most `lookahead + 1` live.
    let mut seams: Vec<Option<Seam>> = circuits.iter().map(|_| None).collect();
    let mut scratch = Vec::new();
    let mut frontier = Frontier::new(n);
    let first = remaining.remove(0);
    seams[first] = Some(Seam::new(&circuits[first], opts.routing_aware));
    frontier.push(&circuits[first]);
    let mut result = vec![first];
    while !remaining.is_empty() {
        if interrupted() {
            return None;
        }
        let last = *result.last().expect("result is nonempty");
        let window = remaining.len().min(opts.lookahead.max(1));
        for &cand in &remaining[..window] {
            if seams[cand].is_none() {
                seams[cand] = Some(Seam::new(&circuits[cand], opts.routing_aware));
            }
        }
        let prev = seams[last]
            .as_ref()
            .expect("the last placed group has a seam");
        let mut best = 0usize;
        let mut best_cost = f64::INFINITY;
        for (w, &cand) in remaining[..window].iter().enumerate() {
            let next = seams[cand].as_ref().expect("window seams are built");
            let cost = seam_cost(&frontier, prev, next, opts, &mut scratch);
            if cost < best_cost {
                best_cost = cost;
                best = w;
            }
        }
        let chosen = remaining.remove(best);
        frontier.push(&circuits[chosen]);
        result.push(chosen);
        seams[last] = None;
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_circuit::interaction::routing_similarity;
    use phoenix_pauli::Clifford2QKind;
    use proptest::prelude::*;

    fn cnot_chain(n: usize, pairs: &[(usize, usize)]) -> Circuit {
        let mut c = Circuit::new(n);
        for &(a, b) in pairs {
            c.push(Gate::Cnot(a, b));
        }
        c
    }

    fn frontier_of(c: &Circuit) -> Frontier {
        let mut f = Frontier::new(c.num_qubits());
        f.push(c);
        f
    }

    #[test]
    fn disjoint_blocks_pack_for_free() {
        let prev = cnot_chain(4, &[(0, 1)]);
        let next = cnot_chain(4, &[(2, 3)]);
        let c = assembly_cost(&frontier_of(&prev), &prev, &next, &OrderOptions::default());
        assert_eq!(c, 0.0, "disjoint blocks share a layer");
    }

    #[test]
    fn colliding_blocks_add_depth() {
        let prev = cnot_chain(2, &[(0, 1)]);
        let next = cnot_chain(2, &[(0, 1)]);
        let c = assembly_cost(&frontier_of(&prev), &prev, &next, &OrderOptions::default());
        assert_eq!(c, 1.0, "stacking adds one layer");
    }

    #[test]
    fn frontier_accumulates_depth() {
        let mut f = Frontier::new(3);
        f.push(&cnot_chain(3, &[(0, 1)]));
        assert_eq!(f.depth(), 1);
        assert_eq!(f.depth_added(&cnot_chain(3, &[(1, 2)])), 1);
        assert_eq!(f.depth_added(&cnot_chain(3, &[(1, 2), (0, 1)])), 2);
    }

    #[test]
    fn clifford_cancellation_credit_applies() {
        let cl = Clifford2Q::new(Clifford2QKind::Cxy, 0, 1);
        let mut prev = Circuit::new(3);
        prev.push(Gate::Cnot(1, 2));
        prev.push(Gate::Clifford2(cl));
        let mut next = Circuit::new(3);
        next.push(Gate::Clifford2(cl));
        next.push(Gate::Cnot(1, 2));
        let f = frontier_of(&prev);
        let with = assembly_cost(&f, &prev, &next, &OrderOptions::default());
        // Same shape without the matching Cliffords at the seam:
        let mut prev2 = Circuit::new(3);
        prev2.push(Gate::Clifford2(cl));
        prev2.push(Gate::Cnot(1, 2));
        let f2 = frontier_of(&prev2);
        let without = assembly_cost(&f2, &prev2, &next, &OrderOptions::default());
        assert!(with < without, "{with} vs {without}");
    }

    #[test]
    fn similarity_factor_ranks_interaction_shapes() {
        let prev = cnot_chain(4, &[(0, 1), (1, 2), (2, 3)]);
        let similar = cnot_chain(4, &[(0, 1), (1, 2), (2, 3)]);
        let different = cnot_chain(4, &[(0, 3), (0, 2), (1, 3)]);
        let seam = |c: &Circuit| Seam::new(c, true);
        let ss = mean_similarity(&seam(&prev), &seam(&similar));
        let sd = mean_similarity(&seam(&prev), &seam(&different));
        assert!((ss - 1.0).abs() < 1e-12, "identical shape → 1, got {ss}");
        assert!(sd < ss, "rewired shape must be less similar: {sd}");
    }

    #[test]
    fn routing_awareness_neutral_at_unit_similarity() {
        let prev = cnot_chain(4, &[(0, 1), (1, 2), (2, 3)]);
        let f = frontier_of(&prev);
        let on = assembly_cost(
            &f,
            &prev,
            &prev,
            &OrderOptions {
                lookahead: 10,
                routing_aware: true,
            },
        );
        let off = assembly_cost(&f, &prev, &prev, &OrderOptions::default());
        assert_eq!(on, off);
    }

    #[test]
    fn qaoa_edges_pack_in_parallel() {
        // Disjoint ZZ blocks must interleave into few layers.
        let blocks: Vec<Circuit> = [(0, 1), (2, 3), (1, 2), (3, 0)]
            .iter()
            .map(|&(a, b)| cnot_chain(4, &[(a, b)]))
            .collect();
        let perm = order_groups(&blocks, &OrderOptions::default());
        let mut assembled = Circuit::new(4);
        for i in perm {
            assembled.append(&blocks[i]);
        }
        assert_eq!(assembled.depth_2q(), 2, "ring packs into 2 layers");
    }

    #[test]
    fn order_groups_is_a_permutation() {
        let circuits: Vec<Circuit> = vec![
            cnot_chain(4, &[(0, 1)]),
            cnot_chain(4, &[(2, 3)]),
            cnot_chain(4, &[(0, 1), (1, 2)]),
            Circuit::new(4),
        ];
        let perm = order_groups(&circuits, &OrderOptions::default());
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        // Widest group first.
        assert_eq!(perm[0], 2);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(order_groups(&[], &OrderOptions::default()).is_empty());
    }

    #[test]
    fn interruptible_ordering_matches_and_aborts() {
        let circuits: Vec<Circuit> = vec![
            cnot_chain(4, &[(0, 1)]),
            cnot_chain(4, &[(2, 3)]),
            cnot_chain(4, &[(0, 1), (1, 2)]),
            cnot_chain(4, &[(1, 2)]),
        ];
        let opts = OrderOptions::default();
        assert_eq!(
            order_groups_interruptible(&circuits, &opts, &mut || false),
            Some(order_groups(&circuits, &opts))
        );
        // An immediately-firing interrupt abandons the ordering.
        assert_eq!(
            order_groups_interruptible(&circuits, &opts, &mut || true),
            None
        );
        // Firing after one placement also abandons it (no partial result).
        let mut calls = 0usize;
        let aborted = order_groups_interruptible(&circuits, &opts, &mut || {
            calls += 1;
            calls > 1
        });
        assert_eq!(aborted, None);
    }

    #[test]
    fn seams_are_sized_by_support_not_register() {
        let mut c = Circuit::new(1000);
        c.push(Gate::Cnot(10, 990));
        c.push(Gate::Cnot(990, 500));
        let seam = Seam::new(&c, true);
        assert_eq!(seam.support, vec![10, 500, 990]);
        assert_eq!(seam.pairs, vec![(0, 2), (2, 1)]);
        assert_eq!(seam.tail_dist.len(), 9);
        assert_eq!(seam.head_dist[2], 1, "10 — 990 is one head edge");
    }

    /// Seeded circuits with at most `n` qubits, including 1Q-only and empty
    /// ones, for the similarity property.
    fn arb_block(n: usize) -> impl Strategy<Value = Circuit> {
        proptest::collection::vec((0..n, 0..n, any::<bool>()), 0..12).prop_map(move |ops| {
            let mut c = Circuit::new(n);
            for (a, b, two) in ops {
                if two && a != b {
                    c.push(Gate::Cnot(a, b));
                } else {
                    c.push(Gate::H(a));
                }
            }
            c
        })
    }

    /// The bits of the seam similarity against the reference Eq. (7)
    /// implementation over the union support.
    fn assert_bit_exact(prev: &Circuit, next: &Circuit) {
        let k = (support_2q(prev) | support_2q(next)).count_ones();
        let want = if k == 0 {
            1.0
        } else {
            routing_similarity(prev, next) / k as f64
        };
        let got = mean_similarity(&Seam::new(prev, true), &Seam::new(next, true));
        assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
    }

    proptest! {
        #[test]
        fn seam_similarity_is_bit_exact(prev in arb_block(7), next in arb_block(7)) {
            assert_bit_exact(&prev, &next);
            assert_bit_exact(&prev, &prev);
        }
    }

    #[test]
    fn seam_similarity_edge_cases_are_bit_exact() {
        let empty = Circuit::new(6);
        let oneq = Circuit::from_gates(6, vec![Gate::H(2)]);
        let left = cnot_chain(6, &[(0, 1), (1, 2)]);
        let right = cnot_chain(6, &[(3, 4), (5, 4)]);
        for (a, b) in [
            (&empty, &empty),
            (&empty, &left),
            (&left, &empty),
            (&oneq, &left),
            (&left, &right),
            (&right, &left),
            (&left, &left),
        ] {
            assert_bit_exact(a, b);
        }
    }

    #[test]
    fn cancels_respects_symmetry() {
        let a = Clifford2Q::new(Clifford2QKind::Czz, 0, 1);
        let b = Clifford2Q::new(Clifford2QKind::Czz, 1, 0);
        assert!(cancels(&a, &b), "C(Z,Z) is exchange-symmetric");
        let c = Clifford2Q::new(Clifford2QKind::Czx, 0, 1);
        let d = Clifford2Q::new(Clifford2QKind::Czx, 1, 0);
        assert!(!cancels(&c, &d), "CNOT orientation matters");
        assert!(cancels(&c, &c));
    }
}
