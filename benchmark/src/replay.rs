//! Layer-by-layer replays of the compile paths, through each module's
//! public functions, with one span per layer call.
//!
//! Each replay performs the same calls in the same order as the pass
//! sequence `CompileRequest` assembles, so its output must equal the
//! request's output bit for bit; the caller asserts that.

use phoenix_circuit::{kak, peephole, rebase, Circuit};
use phoenix_core::group::group_by_support;
use phoenix_core::order::{order_groups, OrderOptions};
use phoenix_core::simplify::{simplify_terms_with, SimplifyOptions};
use phoenix_core::synth::synthesize_group;
use phoenix_core::{Device, NativeIsa, PhoenixOptions};
use phoenix_pauli::PauliString;
use phoenix_router::{greedy_layout, search_layout, try_route, Layout, RoutedCircuit};

use crate::trace::{add, Counts, Tracer};

pub type Terms = Vec<(PauliString, f64)>;

/// Stages 1–3 and concatenation: grouping, Algorithm 1 per group,
/// synthesis per group, Tetris ordering. Returns the logical circuit and
/// the emitted term order.
pub fn logical(
    t: &mut Tracer,
    counts: &mut Counts,
    n: usize,
    terms: &[(PauliString, f64)],
    opts: &PhoenixOptions,
    routing_aware: bool,
) -> (Circuit, Terms) {
    let groups = t.span("core.group", || group_by_support(n, terms));
    add(counts, "core.group.groups", groups.len() as u64);
    let simplify_opts = SimplifyOptions {
        scan_threads: opts.stage2_scan_threads,
        naive_cost: false,
    };
    let simplified: Vec<_> = t.span("core.simplify", || {
        groups
            .iter()
            .map(|g| simplify_terms_with(n, g.terms(), &simplify_opts))
            .collect()
    });
    let cliffords: usize = simplified.iter().map(|s| s.num_cliffords()).sum();
    add(counts, "core.simplify.cliffords", cliffords as u64);
    let circuits: Vec<Circuit> = t.span("core.synth", || {
        simplified.iter().map(synthesize_group).collect()
    });
    let synth_gates: usize = circuits.iter().map(Circuit::len).sum();
    add(counts, "core.synth.gates", synth_gates as u64);
    let order_opts = OrderOptions {
        lookahead: opts.lookahead,
        routing_aware: routing_aware || opts.routing_aware,
    };
    let order = t.span("core.order", || order_groups(&circuits, &order_opts));
    add(counts, "core.order.groups", order.len() as u64);
    let mut circuit = Circuit::new(n);
    let mut term_order = Vec::with_capacity(terms.len());
    for &i in &order {
        circuit.append(&circuits[i]);
        term_order.extend(simplified[i].term_sequence());
    }
    (circuit, term_order)
}

/// `peephole::optimize`, counting the CNOT-ISA gates it was given (it
/// lowers its input first) and how many of them it removed.
pub fn peephole(t: &mut Tracer, counts: &mut Counts, c: &Circuit) -> Circuit {
    let out = t.span("circuit.peephole", || peephole::optimize(c));
    let gates_in = c.lower_to_cnot().len();
    add(counts, "circuit.peephole.gates_in", gates_in as u64);
    add(
        counts,
        "circuit.peephole.gates_removed",
        gates_in.saturating_sub(out.len()) as u64,
    );
    out
}

/// The hardware back end on `device`: peephole, layout search + SABRE with
/// the router's retry ladder, SWAP lowering, peephole, then the native-ISA
/// suffix. Returns the physical circuit, the pre-routing logical circuit and
/// the SWAP count.
pub fn hardware(
    t: &mut Tracer,
    counts: &mut Counts,
    logical: &Circuit,
    device: &Device,
    opts: &PhoenixOptions,
) -> Result<(Circuit, Circuit, usize), String> {
    let snapshot = peephole(t, counts, logical);
    let routed = route(t, counts, &snapshot, device, opts)?;
    add(counts, "router.swaps", routed.num_swaps as u64);
    let lowered = routed.circuit.lower_to_cnot();
    let mut circuit = peephole(t, counts, &lowered);
    match device.isa() {
        NativeIsa::Cnot => {}
        NativeIsa::Su4 => circuit = t.span("circuit.rebase", || rebase::to_su4(&circuit)),
        NativeIsa::CnotViaKak => {
            let resynth = t.span("circuit.rebase", || {
                kak::resynthesize(&rebase::to_su4(&circuit))
            });
            circuit = peephole(t, counts, &resynth);
        }
    }
    Ok((circuit, snapshot, routed.num_swaps))
}

/// The router's attempt ladder (searched layout, greedy seed, trivial
/// layout with a quadrupled SWAP budget), with the layout construction and
/// the routing of each attempt in separate spans.
fn route(
    t: &mut Tracer,
    counts: &mut Counts,
    circuit: &Circuit,
    device: &Device,
    opts: &PhoenixOptions,
) -> Result<RoutedCircuit, String> {
    let graph = device.graph();
    let lowered = circuit.lower_to_cnot();
    let (n_log, n_phys) = (lowered.num_qubits(), graph.num_qubits());
    let mut relaxed = opts.router.clone();
    relaxed.max_swaps = opts
        .router
        .swap_budget(lowered.counts().two_qubit(), n_phys)
        .saturating_mul(4);
    let mut last_err = String::from("no routing attempt");
    for strategy in ["searched", "greedy-seed", "trivial"] {
        add(counts, "router.attempts", 1);
        let (layout, router_opts) = t.span("router.layout", || match strategy {
            "searched" => (
                search_layout(&lowered, graph, &opts.router, opts.layout_trials),
                &opts.router,
            ),
            "greedy-seed" => (greedy_layout(&lowered, graph), &opts.router),
            _ => (Layout::trivial(n_log, n_phys), &relaxed),
        });
        match t.span("router.route", || {
            try_route(&lowered, graph, layout, router_opts)
        }) {
            Ok(routed) => return Ok(routed),
            Err(e) => last_err = format!("{strategy} layout: {e}"),
        }
    }
    Err(last_err)
}
