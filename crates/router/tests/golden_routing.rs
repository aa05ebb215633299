//! Golden routing fingerprints.
//!
//! Seeded random `{CNOT, SWAP, 1Q}` programs are routed on four device
//! families with and without bridges, through every public routing entry
//! point. Each case pins the SWAP count, the initial and final layouts and an
//! FNV-1a digest of the emitted gate list, so any change to the router's
//! decisions — candidate order, tie-breaks, score arithmetic, drain order —
//! shows up here. The expected table was recorded before the router was
//! made incremental; the router must reproduce it bit for bit.

use phoenix_circuit::{Circuit, Gate};
use phoenix_mathkit::Xoshiro256;
use phoenix_router::{
    greedy_layout, route_with_attempt_log, search_layout, try_route, Layout, RoutedCircuit,
    RouterOptions,
};
use phoenix_topology::CouplingGraph;

/// A seeded program: 60% CNOTs, some logical SWAPs (so the router has
/// something to lower), the rest 1Q gates.
fn program(n: usize, len: usize, seed: u64) -> Circuit {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..len {
        let a = rng.next_below(n);
        let mut b = rng.next_below(n);
        while b == a {
            b = rng.next_below(n);
        }
        match rng.next_below(20) {
            0..=11 => c.push(Gate::Cnot(a, b)),
            12 => c.push(Gate::Swap(a, b)),
            13..=15 => c.push(Gate::H(a)),
            _ => c.push(Gate::Rz(a, rng.next_range_f64(-1.0, 1.0))),
        }
    }
    c
}

fn devices() -> Vec<(&'static str, CouplingGraph, usize)> {
    vec![
        ("line10", CouplingGraph::line(10), 10),
        ("grid3x4", CouplingGraph::grid(3, 4), 11),
        ("heavyhex3x9", CouplingGraph::heavy_hex(3, 9), 14),
        ("manhattan65", CouplingGraph::manhattan65(), 14),
    ]
}

/// FNV-1a over the `Debug` rendering of every gate, in order.
fn digest(gates: &[Gate]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for g in gates {
        for byte in format!("{g:?};").bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn l2p(layout: &Layout) -> Vec<usize> {
    (0..layout.num_logical())
        .map(|l| layout.phys(l).unwrap())
        .collect()
}

fn fingerprint(r: &RoutedCircuit) -> String {
    format!(
        "swaps={} init={:?} final={:?} digest={:#018x}",
        r.num_swaps,
        l2p(&r.initial_layout),
        l2p(&r.final_layout),
        digest(r.circuit.gates())
    )
}

/// One line per (device, seed, bridge, entry point).
fn actual_table() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, device, n) in devices() {
        for seed in [1u64, 2] {
            for bridge in [false, true] {
                let c = program(n, 160, seed * 1000 + n as u64);
                let opts = RouterOptions {
                    use_bridge: bridge,
                    ..RouterOptions::default()
                };
                let tag = format!("{name} seed={seed} bridge={bridge}");

                let seed_layout = greedy_layout(&c.lower_to_cnot(), &device);
                let r = try_route(&c, &device, seed_layout, &opts).unwrap();
                lines.push(format!("{tag} try_route(greedy): {}", fingerprint(&r)));

                let r =
                    try_route(&c, &device, Layout::trivial(n, device.num_qubits()), &opts).unwrap();
                lines.push(format!("{tag} try_route(trivial): {}", fingerprint(&r)));

                let searched = search_layout(&c, &device, &opts, 3);
                lines.push(format!("{tag} search_layout: {:?}", l2p(&searched)));

                // A budget one short of what the searched layout needs
                // forces the ladder down to its later strategies.
                let searched_swaps = try_route(&c, &device, searched, &opts).unwrap().num_swaps;
                let tight = RouterOptions {
                    max_swaps: searched_swaps.saturating_sub(1).max(1),
                    ..opts.clone()
                };
                for (label, o) in [("ladder", opts.clone()), ("ladder(tight)", tight)] {
                    let line = match route_with_attempt_log(&c, &device, &o, 3) {
                        Ok((r, attempts)) => {
                            let log: Vec<String> = attempts
                                .iter()
                                .map(|a| {
                                    format!(
                                        "{}:{}",
                                        a.strategy,
                                        match (&a.swaps, &a.error) {
                                            (Some(s), _) => s.to_string(),
                                            (None, Some(e)) => e.to_string(),
                                            (None, None) => "?".into(),
                                        }
                                    )
                                })
                                .collect();
                            format!("{log:?} {}", fingerprint(&r))
                        }
                        Err(e) => format!("error {e}"),
                    };
                    lines.push(format!("{tag} {label}: {line}"));
                }
            }
        }
    }
    lines
}

const EXPECTED: &[&str] = &[
    "line10 seed=1 bridge=false try_route(greedy): swaps=195 init=[0, 4, 2, 7, 1, 8, 5, 3, 6, 9] final=[6, 7, 4, 3, 8, 5, 0, 9, 2, 1] digest=0xde4ad9afd7ed9a6b",
    "line10 seed=1 bridge=false try_route(trivial): swaps=198 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9] final=[9, 8, 5, 6, 2, 3, 1, 4, 7, 0] digest=0x74bec1f9b1387871",
    "line10 seed=1 bridge=false search_layout: [9, 5, 7, 2, 4, 1, 3, 8, 6, 0]",
    "line10 seed=1 bridge=false ladder: [\"searched:190\"] swaps=190 init=[9, 5, 7, 2, 4, 1, 3, 8, 6, 0] final=[3, 2, 5, 6, 1, 4, 9, 0, 7, 8] digest=0x851c7542bbcece5d",
    "line10 seed=1 bridge=false ladder(tight): [\"searched:swap budget of 189 exhausted before routing finished\", \"greedy-seed:swap budget of 189 exhausted before routing finished\", \"trivial:198\"] swaps=198 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9] final=[9, 8, 5, 6, 2, 3, 1, 4, 7, 0] digest=0x74bec1f9b1387871",
    "line10 seed=1 bridge=true try_route(greedy): swaps=142 init=[0, 4, 2, 7, 1, 8, 5, 3, 6, 9] final=[1, 0, 5, 4, 8, 9, 6, 2, 3, 7] digest=0x3eac02978661a567",
    "line10 seed=1 bridge=true try_route(trivial): swaps=139 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9] final=[2, 3, 6, 5, 1, 0, 8, 7, 4, 9] digest=0xf59de3406f7410e9",
    "line10 seed=1 bridge=true search_layout: [0, 5, 2, 8, 7, 4, 6, 1, 3, 9]",
    "line10 seed=1 bridge=true ladder: [\"searched:102\"] swaps=102 init=[0, 5, 2, 8, 7, 4, 6, 1, 3, 9] final=[7, 6, 5, 3, 8, 9, 1, 2, 4, 0] digest=0xf35c5d32237b1961",
    "line10 seed=1 bridge=true ladder(tight): [\"searched:swap budget of 101 exhausted before routing finished\", \"greedy-seed:swap budget of 101 exhausted before routing finished\", \"trivial:139\"] swaps=139 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9] final=[2, 3, 6, 5, 1, 0, 8, 7, 4, 9] digest=0xf59de3406f7410e9",
    "line10 seed=2 bridge=false try_route(greedy): swaps=181 init=[2, 9, 4, 1, 5, 8, 7, 6, 3, 0] final=[4, 9, 3, 2, 1, 8, 0, 6, 5, 7] digest=0xc5a5d17dc78a4e63",
    "line10 seed=2 bridge=false try_route(trivial): swaps=172 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9] final=[6, 3, 5, 7, 1, 2, 0, 9, 8, 4] digest=0xf411798887408d16",
    "line10 seed=2 bridge=false search_layout: [3, 0, 8, 1, 4, 6, 2, 7, 9, 5]",
    "line10 seed=2 bridge=false ladder: [\"searched:157\"] swaps=157 init=[3, 0, 8, 1, 4, 6, 2, 7, 9, 5] final=[4, 9, 3, 2, 1, 8, 0, 7, 6, 5] digest=0xcafbab3a176a03a5",
    "line10 seed=2 bridge=false ladder(tight): [\"searched:swap budget of 156 exhausted before routing finished\", \"greedy-seed:swap budget of 156 exhausted before routing finished\", \"trivial:172\"] swaps=172 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9] final=[6, 3, 5, 7, 1, 2, 0, 9, 8, 4] digest=0xf411798887408d16",
    "line10 seed=2 bridge=true try_route(greedy): swaps=128 init=[2, 9, 4, 1, 5, 8, 7, 6, 3, 0] final=[4, 5, 6, 0, 8, 7, 9, 3, 1, 2] digest=0x86751bf5b8143334",
    "line10 seed=2 bridge=true try_route(trivial): swaps=126 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9] final=[4, 6, 5, 3, 7, 8, 9, 0, 2, 1] digest=0xc86faf4fbd05d35a",
    "line10 seed=2 bridge=true search_layout: [2, 0, 4, 1, 8, 7, 9, 3, 6, 5]",
    "line10 seed=2 bridge=true ladder: [\"searched:120\"] swaps=120 init=[2, 0, 4, 1, 8, 7, 9, 3, 6, 5] final=[2, 4, 5, 3, 9, 6, 7, 0, 1, 8] digest=0xb9e766cc1d8fffcd",
    "line10 seed=2 bridge=true ladder(tight): [\"searched:swap budget of 119 exhausted before routing finished\", \"greedy-seed:swap budget of 119 exhausted before routing finished\", \"trivial:126\"] swaps=126 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9] final=[4, 6, 5, 3, 7, 8, 9, 0, 2, 1] digest=0xc86faf4fbd05d35a",
    "grid3x4 seed=1 bridge=false try_route(greedy): swaps=65 init=[4, 9, 0, 8, 7, 11, 10, 2, 6, 5, 1] final=[4, 9, 1, 2, 0, 6, 5, 8, 10, 11, 3] digest=0x3c364993b6d797a8",
    "grid3x4 seed=1 bridge=false try_route(trivial): swaps=78 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10] final=[0, 3, 4, 9, 8, 11, 7, 6, 1, 5, 10] digest=0x82fcbf23dbc6dc49",
    "grid3x4 seed=1 bridge=false search_layout: [4, 9, 0, 8, 7, 11, 10, 2, 6, 5, 1]",
    "grid3x4 seed=1 bridge=false ladder: [\"searched:65\"] swaps=65 init=[4, 9, 0, 8, 7, 11, 10, 2, 6, 5, 1] final=[4, 9, 1, 2, 0, 6, 5, 8, 10, 11, 3] digest=0x3c364993b6d797a8",
    "grid3x4 seed=1 bridge=false ladder(tight): [\"searched:swap budget of 64 exhausted before routing finished\", \"greedy-seed:swap budget of 64 exhausted before routing finished\", \"trivial:78\"] swaps=78 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10] final=[0, 3, 4, 9, 8, 11, 7, 6, 1, 5, 10] digest=0x82fcbf23dbc6dc49",
    "grid3x4 seed=1 bridge=true try_route(greedy): swaps=40 init=[4, 9, 0, 8, 7, 11, 10, 2, 6, 5, 1] final=[7, 10, 1, 0, 3, 4, 8, 5, 9, 6, 2] digest=0x54d3367c5b3759d3",
    "grid3x4 seed=1 bridge=true try_route(trivial): swaps=38 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10] final=[8, 6, 0, 4, 2, 5, 7, 3, 10, 9, 1] digest=0x0f86868a7d9fee5c",
    "grid3x4 seed=1 bridge=true search_layout: [6, 1, 0, 3, 7, 4, 5, 10, 11, 2, 9]",
    "grid3x4 seed=1 bridge=true ladder: [\"searched:30\"] swaps=30 init=[6, 1, 0, 3, 7, 4, 5, 10, 11, 2, 9] final=[3, 4, 7, 11, 2, 5, 9, 6, 0, 1, 10] digest=0x54ca7a1d4ce3fffe",
    "grid3x4 seed=1 bridge=true ladder(tight): [\"searched:swap budget of 29 exhausted before routing finished\", \"greedy-seed:swap budget of 29 exhausted before routing finished\", \"trivial:38\"] swaps=38 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10] final=[8, 6, 0, 4, 2, 5, 7, 3, 10, 9, 1] digest=0x0f86868a7d9fee5c",
    "grid3x4 seed=2 bridge=false try_route(greedy): swaps=60 init=[5, 10, 0, 6, 1, 9, 8, 4, 3, 2, 7] final=[2, 8, 5, 3, 7, 0, 4, 9, 1, 6, 10] digest=0x374409254e155dde",
    "grid3x4 seed=2 bridge=false try_route(trivial): swaps=78 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10] final=[1, 7, 6, 8, 2, 0, 3, 4, 10, 5, 9] digest=0x3025be4c8dfcfb91",
    "grid3x4 seed=2 bridge=false search_layout: [5, 10, 0, 6, 1, 9, 8, 4, 3, 2, 7]",
    "grid3x4 seed=2 bridge=false ladder: [\"searched:60\"] swaps=60 init=[5, 10, 0, 6, 1, 9, 8, 4, 3, 2, 7] final=[2, 8, 5, 3, 7, 0, 4, 9, 1, 6, 10] digest=0x374409254e155dde",
    "grid3x4 seed=2 bridge=false ladder(tight): [\"searched:swap budget of 59 exhausted before routing finished\", \"greedy-seed:swap budget of 59 exhausted before routing finished\", \"trivial:78\"] swaps=78 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10] final=[1, 7, 6, 8, 2, 0, 3, 4, 10, 5, 9] digest=0x3025be4c8dfcfb91",
    "grid3x4 seed=2 bridge=true try_route(greedy): swaps=28 init=[5, 10, 0, 6, 1, 9, 8, 4, 3, 2, 7] final=[4, 5, 1, 11, 8, 9, 10, 0, 2, 6, 7] digest=0x401d32590dfba455",
    "grid3x4 seed=2 bridge=true try_route(trivial): swaps=28 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10] final=[2, 5, 6, 8, 1, 0, 10, 3, 7, 9, 4] digest=0xbc4592e0fb286778",
    "grid3x4 seed=2 bridge=true search_layout: [5, 10, 0, 6, 1, 9, 8, 4, 3, 2, 7]",
    "grid3x4 seed=2 bridge=true ladder: [\"searched:28\"] swaps=28 init=[5, 10, 0, 6, 1, 9, 8, 4, 3, 2, 7] final=[4, 5, 1, 11, 8, 9, 10, 0, 2, 6, 7] digest=0x401d32590dfba455",
    "grid3x4 seed=2 bridge=true ladder(tight): [\"searched:swap budget of 27 exhausted before routing finished\", \"greedy-seed:swap budget of 27 exhausted before routing finished\", \"trivial:28\"] swaps=28 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10] final=[2, 5, 6, 8, 1, 0, 10, 3, 7, 9, 4] digest=0xbc4592e0fb286778",
    "heavyhex3x9 seed=1 bridge=false try_route(greedy): swaps=170 init=[4, 10, 11, 30, 14, 15, 12, 3, 16, 5, 28, 9, 31, 13] final=[4, 13, 12, 11, 3, 5, 31, 1, 15, 2, 30, 16, 28, 14] digest=0x81e89cf815512052",
    "heavyhex3x9 seed=1 bridge=false try_route(trivial): swaps=178 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] final=[2, 10, 28, 14, 1, 3, 11, 7, 6, 4, 12, 5, 9, 13] digest=0xcc088f7f2250d1d5",
    "heavyhex3x9 seed=1 bridge=false search_layout: [30, 15, 10, 31, 28, 3, 2, 14, 12, 16, 4, 11, 17, 13]",
    "heavyhex3x9 seed=1 bridge=false ladder: [\"searched:147\"] swaps=147 init=[30, 15, 10, 31, 28, 3, 2, 14, 12, 16, 4, 11, 17, 13] final=[13, 16, 4, 30, 12, 14, 28, 17, 3, 31, 9, 10, 15, 11] digest=0x2c674e33888f6eec",
    "heavyhex3x9 seed=1 bridge=false ladder(tight): [\"searched:swap budget of 146 exhausted before routing finished\", \"greedy-seed:swap budget of 146 exhausted before routing finished\", \"trivial:178\"] swaps=178 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] final=[2, 10, 28, 14, 1, 3, 11, 7, 6, 4, 12, 5, 9, 13] digest=0xcc088f7f2250d1d5",
    "heavyhex3x9 seed=1 bridge=true try_route(greedy): swaps=115 init=[4, 10, 11, 30, 14, 15, 12, 3, 16, 5, 28, 9, 31, 13] final=[13, 30, 31, 15, 11, 12, 28, 3, 16, 27, 5, 14, 10, 4] digest=0xb8842e978f2863c0",
    "heavyhex3x9 seed=1 bridge=true try_route(trivial): swaps=146 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] final=[4, 11, 6, 1, 28, 2, 10, 14, 7, 12, 3, 0, 13, 5] digest=0x7be275818434ad3a",
    "heavyhex3x9 seed=1 bridge=true search_layout: [2, 12, 30, 4, 15, 11, 5, 28, 31, 14, 3, 10, 16, 13]",
    "heavyhex3x9 seed=1 bridge=true ladder: [\"searched:96\"] swaps=96 init=[2, 12, 30, 4, 15, 11, 5, 28, 31, 14, 3, 10, 16, 13] final=[13, 10, 3, 31, 28, 14, 30, 16, 2, 11, 15, 4, 12, 5] digest=0xf0f8fdd53f6f5390",
    "heavyhex3x9 seed=1 bridge=true ladder(tight): [\"searched:swap budget of 95 exhausted before routing finished\", \"greedy-seed:swap budget of 95 exhausted before routing finished\", \"trivial:146\"] swaps=146 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] final=[4, 11, 6, 1, 28, 2, 10, 14, 7, 12, 3, 0, 13, 5] digest=0x7be275818434ad3a",
    "heavyhex3x9 seed=2 bridge=false try_route(greedy): swaps=179 init=[15, 14, 5, 13, 31, 17, 3, 24, 23, 11, 12, 4, 28, 16] final=[28, 13, 24, 14, 11, 12, 31, 4, 16, 23, 3, 17, 15, 5] digest=0xdbe8d3e4806cad2f",
    "heavyhex3x9 seed=2 bridge=false try_route(trivial): swaps=231 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] final=[5, 9, 3, 11, 13, 12, 0, 6, 28, 4, 2, 27, 10, 7] digest=0xa90a748dd1846643",
    "heavyhex3x9 seed=2 bridge=false search_layout: [3, 30, 15, 28, 5, 31, 14, 11, 17, 13, 16, 4, 12, 20]",
    "heavyhex3x9 seed=2 bridge=false ladder: [\"searched:150\"] swaps=150 init=[3, 30, 15, 28, 5, 31, 14, 11, 17, 13, 16, 4, 12, 20] final=[4, 30, 7, 28, 5, 6, 14, 3, 12, 8, 15, 11, 13, 20] digest=0xd9b26481a145bbe2",
    "heavyhex3x9 seed=2 bridge=false ladder(tight): [\"searched:swap budget of 149 exhausted before routing finished\", \"greedy-seed:swap budget of 149 exhausted before routing finished\", \"trivial:231\"] swaps=231 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] final=[5, 9, 3, 11, 13, 12, 0, 6, 28, 4, 2, 27, 10, 7] digest=0xa90a748dd1846643",
    "heavyhex3x9 seed=2 bridge=true try_route(greedy): swaps=130 init=[15, 14, 5, 13, 31, 17, 3, 24, 23, 11, 12, 4, 28, 16] final=[15, 11, 16, 28, 29, 17, 12, 14, 13, 31, 24, 5, 4, 30] digest=0x21144241a9636f0b",
    "heavyhex3x9 seed=2 bridge=true try_route(trivial): swaps=141 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] final=[11, 2, 3, 12, 1, 0, 7, 9, 10, 5, 6, 4, 28, 13] digest=0x615a62d6a4b6d709",
    "heavyhex3x9 seed=2 bridge=true search_layout: [31, 14, 29, 17, 23, 11, 5, 13, 4, 28, 15, 16, 12, 24]",
    "heavyhex3x9 seed=2 bridge=true ladder: [\"searched:109\"] swaps=109 init=[31, 14, 29, 17, 23, 11, 5, 13, 4, 28, 15, 16, 12, 24] final=[28, 24, 8, 14, 13, 15, 29, 12, 31, 6, 11, 17, 16, 23] digest=0x4314c76d84bae117",
    "heavyhex3x9 seed=2 bridge=true ladder(tight): [\"searched:swap budget of 108 exhausted before routing finished\", \"greedy-seed:swap budget of 108 exhausted before routing finished\", \"trivial:141\"] swaps=141 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] final=[11, 2, 3, 12, 1, 0, 7, 9, 10, 5, 6, 4, 28, 13] digest=0x615a62d6a4b6d709",
    "manhattan65 seed=1 bridge=false try_route(greedy): swaps=166 init=[28, 22, 23, 21, 26, 27, 24, 36, 56, 57, 60, 13, 12, 25] final=[25, 22, 14, 36, 24, 26, 21, 57, 13, 28, 27, 60, 23, 56] digest=0xce82ae91b9dc37c5",
    "manhattan65 seed=1 bridge=false try_route(trivial): swaps=215 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] final=[54, 15, 1, 7, 14, 4, 16, 11, 2, 12, 6, 5, 13, 3] digest=0x77182647589ba191",
    "manhattan65 seed=1 bridge=false search_layout: [36, 26, 14, 28, 23, 22, 60, 25, 12, 27, 24, 13, 21, 56]",
    "manhattan65 seed=1 bridge=false ladder: [\"searched:130\"] swaps=130 init=[36, 26, 14, 28, 23, 22, 60, 25, 12, 27, 24, 13, 21, 56] final=[24, 57, 22, 60, 25, 26, 28, 12, 21, 16, 36, 56, 27, 23] digest=0xe7296d02dac054ab",
    "manhattan65 seed=1 bridge=false ladder(tight): [\"searched:swap budget of 129 exhausted before routing finished\", \"greedy-seed:swap budget of 129 exhausted before routing finished\", \"trivial:215\"] swaps=215 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] final=[54, 15, 1, 7, 14, 4, 16, 11, 2, 12, 6, 5, 13, 3] digest=0x77182647589ba191",
    "manhattan65 seed=1 bridge=true try_route(greedy): swaps=127 init=[28, 22, 23, 21, 26, 27, 24, 36, 56, 57, 60, 13, 12, 25] final=[26, 23, 36, 12, 27, 25, 21, 16, 56, 57, 22, 24, 60, 28] digest=0xe8c3f465bb5974a1",
    "manhattan65 seed=1 bridge=true try_route(trivial): swaps=154 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] final=[14, 6, 1, 3, 54, 13, 8, 11, 15, 12, 7, 2, 4, 5] digest=0x2869c2ce56d8988c",
    "manhattan65 seed=1 bridge=true search_layout: [28, 60, 13, 57, 26, 21, 16, 24, 22, 27, 25, 12, 36, 23]",
    "manhattan65 seed=1 bridge=true ladder: [\"searched:90\"] swaps=90 init=[28, 60, 13, 57, 26, 21, 16, 24, 22, 27, 25, 12, 36, 23] final=[25, 12, 28, 21, 24, 26, 56, 16, 36, 57, 22, 27, 23, 60] digest=0x16248a15ecccd13d",
    "manhattan65 seed=1 bridge=true ladder(tight): [\"searched:swap budget of 89 exhausted before routing finished\", \"greedy-seed:swap budget of 89 exhausted before routing finished\", \"trivial:154\"] swaps=154 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] final=[14, 6, 1, 3, 54, 13, 8, 11, 15, 12, 7, 2, 4, 5] digest=0x2869c2ce56d8988c",
    "manhattan65 seed=2 bridge=false try_route(greedy): swaps=165 init=[27, 26, 56, 25, 57, 16, 22, 35, 29, 23, 24, 36, 60, 28] final=[26, 60, 56, 28, 23, 24, 57, 25, 29, 12, 36, 16, 27, 35] digest=0x5dc1fedbc4ea23f1",
    "manhattan65 seed=2 bridge=false try_route(trivial): swaps=193 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] final=[54, 6, 53, 5, 2, 1, 14, 3, 7, 10, 8, 13, 4, 9] digest=0x295a1a75f1eb459e",
    "manhattan65 seed=2 bridge=false search_layout: [27, 26, 56, 25, 57, 16, 22, 35, 29, 23, 24, 36, 60, 28]",
    "manhattan65 seed=2 bridge=false ladder: [\"searched:165\"] swaps=165 init=[27, 26, 56, 25, 57, 16, 22, 35, 29, 23, 24, 36, 60, 28] final=[26, 60, 56, 28, 23, 24, 57, 25, 29, 12, 36, 16, 27, 35] digest=0x5dc1fedbc4ea23f1",
    "manhattan65 seed=2 bridge=false ladder(tight): [\"searched:swap budget of 164 exhausted before routing finished\", \"greedy-seed:swap budget of 164 exhausted before routing finished\", \"trivial:193\"] swaps=193 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] final=[54, 6, 53, 5, 2, 1, 14, 3, 7, 10, 8, 13, 4, 9] digest=0x295a1a75f1eb459e",
    "manhattan65 seed=2 bridge=true try_route(greedy): swaps=132 init=[27, 26, 56, 25, 57, 16, 22, 35, 29, 23, 24, 36, 60, 28] final=[24, 15, 35, 26, 36, 37, 16, 56, 25, 27, 23, 60, 57, 28] digest=0x90fbabe81f2e2be2",
    "manhattan65 seed=2 bridge=true try_route(trivial): swaps=165 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] final=[12, 8, 0, 2, 3, 54, 7, 10, 5, 1, 14, 6, 4, 9] digest=0x3239bcbc709cf105",
    "manhattan65 seed=2 bridge=true search_layout: [26, 24, 60, 16, 35, 23, 36, 14, 38, 25, 28, 27, 12, 57]",
    "manhattan65 seed=2 bridge=true ladder: [\"searched:117\"] swaps=117 init=[26, 24, 60, 16, 35, 23, 36, 14, 38, 25, 28, 27, 12, 57] final=[25, 27, 23, 60, 24, 56, 15, 57, 36, 37, 28, 16, 26, 35] digest=0xa9c5fa3e79241fa5",
    "manhattan65 seed=2 bridge=true ladder(tight): [\"searched:swap budget of 116 exhausted before routing finished\", \"greedy-seed:swap budget of 116 exhausted before routing finished\", \"trivial:165\"] swaps=165 init=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] final=[12, 8, 0, 2, 3, 54, 7, 10, 5, 1, 14, 6, 4, 9] digest=0x3239bcbc709cf105",
];

#[test]
fn routing_matches_recorded_goldens() {
    let actual = actual_table();
    if actual != EXPECTED {
        let mut msg = String::from("routing goldens changed; actual table:\n");
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
