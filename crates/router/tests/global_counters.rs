//! The process-wide router counters count only routings that emit a
//! circuit: layout-search trials add nothing, an emitted routing adds its
//! own SWAPs and bridges.
//!
//! This file is its own test binary with a single test: the global metrics
//! registry is shared by every test running in one process.

use phoenix_circuit::{Circuit, Gate};
use phoenix_mathkit::Xoshiro256;
use phoenix_obs::metrics::{global, set_enabled, MetricId};
use phoenix_router::{route_with_attempt_log, search_layout, RouterOptions};
use phoenix_topology::CouplingGraph;

#[test]
fn only_emitted_routings_feed_the_global_counters() {
    set_enabled(true);
    let mut rng = Xoshiro256::seed_from_u64(5);
    let mut c = Circuit::new(10);
    for _ in 0..60 {
        let a = rng.next_below(10);
        let b = (a + 1 + rng.next_below(9)) % 10;
        c.push(Gate::Cnot(a, b));
        c.push(Gate::H(b));
    }
    let device = CouplingGraph::line(10);
    let counters = || {
        (
            global().counter(MetricId::SabreSwapsTotal),
            global().counter(MetricId::SabreBridgesTotal),
        )
    };
    for use_bridge in [false, true] {
        let opts = RouterOptions {
            use_bridge,
            ..RouterOptions::default()
        };
        let before = counters();
        let _ = search_layout(&c, &device, &opts, 3);
        assert_eq!(counters(), before, "layout-search trials are not counted");

        let (routed, _) = route_with_attempt_log(&c, &device, &opts, 3).unwrap();
        // A bridge turns one CNOT into four; SWAPs stay `Gate::Swap`.
        let extra_cnots = routed.circuit.counts().cnot - c.counts().cnot;
        let (swaps, bridges) = counters();
        assert_eq!(swaps - before.0, routed.num_swaps as u64);
        assert_eq!(bridges - before.1, (extra_cnots / 3) as u64);
        assert!(routed.num_swaps > 0);
        if use_bridge {
            assert!(bridges > before.1, "the program must bridge");
        }
    }
}
