//! The process-wide `sabre_swaps_total` counter counts the SWAPs of the
//! routing a compile returns, not those of the discarded layout-search
//! trials.
//!
//! This file is its own test binary with a single test: the global metrics
//! registry is shared by every test running in one process.

use phoenix_core::phoenix_obs::metrics::{global, MetricId};
use phoenix_core::{CompileRequest, Device, PhoenixOptions, Target};
use phoenix_hamil::{uccsd, Molecule};
use phoenix_topology::CouplingGraph;

#[test]
fn a_device_compile_adds_exactly_its_swaps_to_the_global_counters() {
    let h = uccsd::ansatz(Molecule::lih(), true, uccsd::Encoding::JordanWigner, 7);
    let compile = |use_bridge: bool| {
        let mut options = PhoenixOptions::default();
        options.router.use_bridge = use_bridge;
        CompileRequest::new(h.num_qubits(), h.terms())
            .target(Target::Device(Device::bare(CouplingGraph::heavy_hex(3, 9))))
            .options(options)
            .obs(true)
            .run()
            .unwrap()
            .hardware
            .unwrap()
    };
    for use_bridge in [false, true] {
        let swaps_before = global().counter(MetricId::SabreSwapsTotal);
        let bridges_before = global().counter(MetricId::SabreBridgesTotal);
        let hw = compile(use_bridge);
        assert!(hw.num_swaps > 0, "the program must need routing");
        assert_eq!(
            global().counter(MetricId::SabreSwapsTotal) - swaps_before,
            hw.num_swaps as u64,
            "use_bridge = {use_bridge}"
        );
        if !use_bridge {
            assert_eq!(
                global().counter(MetricId::SabreBridgesTotal),
                bridges_before
            );
        }
    }
}
