//! The end-to-end PHOENIX compiler: its options, the pass list of every
//! [`Target`], and the shared hardware back ends.
//!
//! [`passes`] is the one place the pipeline's pass sequence is spelled out;
//! [`CompileRequest::run`](crate::CompileRequest::run) is the one way to
//! execute it.

use std::sync::Arc;
use std::time::Duration;

use crate::anytime::AnytimePass;
use crate::cancel::CancelToken;
use crate::error::{validate_device, PhoenixError};
use crate::pass::{CompileContext, PassError, PassManager};
use crate::passes::{
    ConcatPass, GroupPass, LayoutRoutePass, OrderPass, SimplifySynthPass, SnapshotLogicalPass,
    TransformPass,
};
use crate::request::{CompileRequest, Target};
use crate::verify::BoundaryVerifier;
use phoenix_circuit::Circuit;
use phoenix_device::{Device, NativeIsa};
use phoenix_pauli::PauliString;
use phoenix_router::RouterOptions;
use phoenix_topology::CouplingGraph;

/// Compiler configuration.
///
/// The two `enable_*` switches exist for ablation studies (see the
/// `ablation` experiment binary): disabling them replaces a pipeline stage
/// with its trivial counterpart while keeping everything else identical.
#[derive(Debug, Clone, PartialEq)]
pub struct PhoenixOptions {
    /// Lookahead window of the Tetris-like ordering.
    pub lookahead: usize,
    /// Apply the Eq. (7) routing-similarity factor during ordering even for
    /// logical compilation (always on in hardware-aware mode).
    pub routing_aware: bool,
    /// Run the BSF-simplification pass (Algorithm 1). When disabled, each
    /// IR group is synthesized with conventional CNOT chains.
    pub enable_simplification: bool,
    /// Run the Tetris-like group ordering. When disabled, groups keep their
    /// first-appearance order.
    pub enable_ordering: bool,
    /// SABRE router tuning used by the hardware-aware back end.
    pub router: RouterOptions,
    /// Random-restart trials of the initial-layout search.
    pub layout_trials: usize,
    /// Worker threads for the per-group simplification+synthesis stage
    /// (`0` = one per available core, `1` = sequential). The output is
    /// identical for every value.
    pub stage2_threads: usize,
    /// Worker threads for the candidate scan inside each group's greedy
    /// epoch (`0` = one per available core, `1` = sequential), composing
    /// multiplicatively with `stage2_threads`. The output is identical for
    /// every value. Useful for programs with few, very wide groups where
    /// group-level parallelism alone cannot saturate the machine.
    pub stage2_scan_threads: usize,
    /// Wall-clock budget for optimization effort. Once elapsed, remaining
    /// optimization epochs are cut short (each affected unit of work falls
    /// back to its unoptimized form, recorded as `truncated`/`skipped`
    /// events in the [`PassTrace`](crate::PassTrace)) while
    /// correctness-critical stages run to completion — the output is always
    /// valid, just less optimized. `None` (the default) never truncates.
    pub pass_budget: Option<Duration>,
    /// Logical cap on the anytime deepening schedule used by budgeted
    /// compiles: the optimizer runs at most this many deepening rounds
    /// (clamped to [`crate::anytime::MAX_ROUNDS`]; `None` = the full
    /// schedule). Because rounds are deterministic, the output under a huge
    /// `pass_budget` is a pure function of this cap, independent of wall
    /// clock and thread counts. Ignored when `pass_budget` is `None` — the
    /// unbudgeted pipeline takes the single-shot path.
    pub anytime_rounds: Option<usize>,
    /// Translation validation: attach a [`BoundaryVerifier`] so every pass
    /// boundary is semantically re-checked (the `--verify` flag of the
    /// experiment binaries). Compilation fails with a pass-pinpointing
    /// error on the first violated invariant. Dense equivalence checks run
    /// only up to [`BoundaryVerifier::max_qubits`] — beyond that only the
    /// structural invariants are enforced. Orthogonal to `pass_budget`:
    /// a budget may *skip* optimization passes (never verified, never run),
    /// but every pass that does execute is verified.
    pub verify: bool,
    /// Worker threads for fleet compilation: how many devices of a
    /// `Target::Fleet` compile concurrently (`0` = one per available core,
    /// capped at the fleet size; `1` = sequential). The ranked outcome is
    /// identical for every value. Excluded from the parametric options
    /// fingerprint, like the stage-2 thread counts.
    pub fleet_threads: usize,
    /// Cooperative cancellation token. When set, the pass manager checks it
    /// before every pass (and stage 2 checks it between groups) and aborts
    /// with [`PhoenixError::Cancelled`](crate::PhoenixError::Cancelled) or
    /// [`PhoenixError::DeadlineExceeded`](crate::PhoenixError::DeadlineExceeded)
    /// once it fires. Token equality is identity (shared state), so the
    /// derived `PartialEq` on options stays meaningful; the token is
    /// excluded from the parametric options fingerprint.
    pub cancel: Option<CancelToken>,
}

impl Default for PhoenixOptions {
    fn default() -> Self {
        PhoenixOptions {
            lookahead: 20,
            routing_aware: false,
            enable_simplification: true,
            enable_ordering: true,
            router: RouterOptions::default(),
            layout_trials: 3,
            stage2_threads: 0,
            stage2_scan_threads: 1,
            pass_budget: None,
            anytime_rounds: None,
            verify: false,
            fleet_threads: 0,
            cancel: None,
        }
    }
}

/// The result of hardware-aware compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareProgram {
    /// The final physical CNOT-ISA circuit (SWAPs lowered and re-optimized).
    pub circuit: Circuit,
    /// The logical CNOT-ISA circuit before routing.
    pub logical: Circuit,
    /// Number of SWAPs the router inserted.
    pub num_swaps: usize,
    /// Physical position of each logical qubit before the first gate:
    /// logical `l` enters at physical `initial_layout[l]`. The routed
    /// circuit's unitary equals the logical circuit embedded at this layout,
    /// composed with the qubit permutation taking `initial_layout` to
    /// `final_layout`.
    pub initial_layout: Vec<usize>,
    /// Physical position of each logical qubit after the last gate.
    pub final_layout: Vec<usize>,
}

impl HardwareProgram {
    /// The `#2Q(mapped)/#2Q(logical)` multiple (dashed lines of Fig. 6,
    /// "Routing overhead" of Table IV). Counted over all 2Q gates so the
    /// ratio stays meaningful on SU(4)-native devices; for CNOT-ISA
    /// circuits (`su4 == 0`) this is exactly the paper's CNOT ratio.
    pub fn routing_overhead(&self) -> f64 {
        let two_q = |c: &Circuit| {
            let k = c.counts();
            k.cnot + k.su4
        };
        two_q(&self.circuit) as f64 / two_q(&self.logical).max(1) as f64
    }
}

/// The shared hardware-aware back end as a pass sequence: peephole ("O3"),
/// logical snapshot, layout search + SABRE routing, SWAP lowering, final
/// peephole. Used both by [`Target::Device`] compiles (through
/// [`device_backend`]) and by the baseline harness (through
/// [`try_run_hardware_backend`]), so strategy differences dominate
/// comparisons.
pub fn hardware_backend(router: &RouterOptions, layout_trials: usize) -> PassManager {
    PassManager::new()
        .with(TransformPass::peephole())
        .with(SnapshotLogicalPass)
        .with(LayoutRoutePass {
            router: router.clone(),
            layout_trials,
        })
        .with(TransformPass::swap_lower())
        .with(TransformPass::peephole())
}

/// The hardware back end for a [`Device`]: [`hardware_backend`] followed by
/// the pass suffix that folds the routed CNOT circuit into the device's
/// native ISA — nothing for [`NativeIsa::Cnot`], an SU(4) rebase for
/// [`NativeIsa::Su4`], and rebase + KAK resynthesis + peephole for
/// [`NativeIsa::CnotViaKak`]. The rebase passes are *required* (not
/// budget-skippable), so the native-ISA guarantee survives `pass_budget`
/// truncation exactly as it does for the logical ISA targets.
pub fn device_backend(
    device: &Device,
    router: &RouterOptions,
    layout_trials: usize,
) -> PassManager {
    let manager = hardware_backend(router, layout_trials);
    match device.isa() {
        NativeIsa::Cnot => manager,
        NativeIsa::Su4 => manager.with(TransformPass::su4_rebase()),
        NativeIsa::CnotViaKak => manager
            .with(TransformPass::su4_rebase())
            .with(TransformPass::kak_resynthesis())
            .with(TransformPass::peephole()),
    }
}

/// The pass list of `target`, in two halves:
///
/// - the **structure** half: grouping, then Algorithm-1 simplification +
///   synthesis, Tetris ordering and concatenation — or, under a pass
///   budget, one interruptible [`AnytimePass`] in place of the last three;
/// - the **lowering** half: the circuit-level suffix for the target's ISA,
///   or [`device_backend`] for a device.
///
/// An uncached compile runs `structure.append(lowering)`; a cached one runs
/// the structure half on slot-encoded terms, binds the angles, and runs the
/// lowering half on the bound circuit. The budget and the
/// [`BoundaryVerifier`] sit on the structure half, and
/// [`PassManager::append`] carries both over the whole sequence; the
/// cached path serves neither budgeted nor verified requests, so the
/// lowering half never runs alone with them.
pub(crate) fn passes(target: &Target, options: &PhoenixOptions) -> (PassManager, PassManager) {
    let routing_aware = target.routing_aware() || options.routing_aware;
    let structure = PassManager::new().with(GroupPass);
    let structure = match options.pass_budget {
        // Budgeted compiles deepen anytime-style: stages 2–4 become one
        // interruptible pass that always holds a valid best-so-far.
        Some(budget) => structure
            .with(AnytimePass {
                lookahead: options.lookahead,
                simplify: options.enable_simplification,
                order_enabled: options.enable_ordering,
                routing_aware,
                threads: options.stage2_threads,
                scan_threads: options.stage2_scan_threads,
                max_rounds: options.anytime_rounds,
            })
            .with_budget(budget),
        // Unbudgeted compiles take the single-shot path.
        None => structure
            .with(SimplifySynthPass {
                simplify: options.enable_simplification,
                threads: options.stage2_threads,
                scan_threads: options.stage2_scan_threads,
                fault_inject_group: None,
            })
            .with(OrderPass {
                lookahead: options.lookahead,
                routing_aware,
                enabled: options.enable_ordering,
            })
            .with(ConcatPass),
    };
    // One verifier per compilation: it carries a unitary snapshot across
    // rewrites, so the appended lowering is verified by the same instance.
    let structure = if options.verify {
        structure.with_observer(Arc::new(BoundaryVerifier::default()))
    } else {
        structure
    };
    let lowering = match target {
        // A fleet fans out into per-member `Device` requests before any
        // lowering runs; only `structure()` reaches here with one.
        Target::Logical | Target::Fleet(_) => PassManager::new(),
        Target::Cnot => PassManager::new().with(TransformPass::peephole()),
        Target::Su4 => PassManager::new().with(TransformPass::su4_rebase()),
        Target::CnotViaKak => PassManager::new()
            .with(TransformPass::su4_rebase())
            .with(TransformPass::kak_resynthesis())
            .with(TransformPass::peephole()),
        Target::Device(device) => device_backend(device, &options.router, options.layout_trials),
    };
    (structure, lowering)
}

/// Runs the shared [`hardware_backend`] on an already-compiled logical
/// circuit: validates that the circuit fits the device before routing, and
/// surfaces pass failures (including contained panics) as a typed
/// [`PhoenixError`].
pub fn try_run_hardware_backend(
    logical: &Circuit,
    device: &CouplingGraph,
    router: &RouterOptions,
    layout_trials: usize,
) -> Result<HardwareProgram, PhoenixError> {
    validate_device(logical.num_qubits(), device)?;
    let mut ctx = CompileContext::from_circuit(logical.clone());
    ctx.device = Some(device.clone());
    hardware_backend(router, layout_trials).run(&mut ctx)?;
    extract_hardware_program(ctx)
}

/// Pulls a [`HardwareProgram`] out of a routed [`CompileContext`].
pub(crate) fn extract_hardware_program(
    ctx: CompileContext,
) -> Result<HardwareProgram, PhoenixError> {
    let snapshot = ctx
        .logical
        .ok_or_else(|| PassError::new("snapshot-logical", "logical snapshot missing"))?;
    let initial_layout = ctx
        .initial_layout
        .ok_or_else(|| PassError::new("layout-route", "initial layout missing"))?;
    let final_layout = ctx
        .final_layout
        .ok_or_else(|| PassError::new("layout-route", "final layout missing"))?;
    Ok(HardwareProgram {
        circuit: ctx.circuit,
        logical: snapshot,
        num_swaps: ctx.num_swaps,
        initial_layout,
        final_layout,
    })
}

/// The PHOENIX compiler: grouping → BSF simplification → Tetris ordering,
/// with CNOT-ISA, SU(4)-ISA and hardware-aware back ends. It carries
/// [`PhoenixOptions`] into [`CompileRequest`]s and implements
/// [`CompilerStrategy`](crate::CompilerStrategy) for the evaluation harness.
///
/// # Examples
///
/// ```
/// use phoenix_core::PhoenixCompiler;
/// use phoenix_pauli::PauliString;
///
/// let terms: Vec<(PauliString, f64)> = vec![
///     ("XXXX".parse().unwrap(), 0.1),
///     ("YYXX".parse().unwrap(), 0.2),
///     ("ZZII".parse().unwrap(), 0.3),
/// ];
/// let out = PhoenixCompiler::default().request(4, &terms).run().unwrap();
/// assert_eq!(out.num_groups, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhoenixCompiler {
    /// Tuning options.
    pub options: PhoenixOptions,
}

impl PhoenixCompiler {
    /// Creates a compiler with the given options.
    pub fn new(options: PhoenixOptions) -> Self {
        PhoenixCompiler { options }
    }

    /// A [`CompileRequest`] for `terms` carrying this compiler's options.
    pub fn request(&self, n: usize, terms: &[(PauliString, f64)]) -> CompileRequest {
        CompileRequest::new(n, terms).options(self.options.clone())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::request::CompileOutcome;
    use phoenix_circuit::synthesis::naive_circuit;

    fn terms(labels: &[&str]) -> Vec<(PauliString, f64)> {
        labels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.parse().unwrap(), 0.02 * (i + 1) as f64))
            .collect()
    }

    /// A traced compile of `t` to `target` under `options`.
    fn compile(
        options: &PhoenixOptions,
        n: usize,
        t: &[(PauliString, f64)],
        target: Target,
    ) -> Result<CompileOutcome, PhoenixError> {
        CompileRequest::new(n, t)
            .options(options.clone())
            .target(target)
            .trace(true)
            .run()
    }

    fn bare(graph: &CouplingGraph) -> Target {
        Target::Device(Device::bare(graph.clone()))
    }

    #[test]
    fn compile_beats_naive_on_fig1b() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let phoenix = compile(&PhoenixOptions::default(), 3, &t, Target::Cnot)
            .unwrap()
            .circuit;
        let naive = naive_circuit(3, &t);
        assert!(
            phoenix.counts().cnot < naive.counts().cnot,
            "{} vs {}",
            phoenix.counts().cnot,
            naive.counts().cnot
        );
    }

    #[test]
    fn su4_output_contains_only_su4_two_qubit_gates() {
        let t = terms(&["XYZX", "YYZZ", "ZIIZ", "XIIX"]);
        let su4 = compile(&PhoenixOptions::default(), 4, &t, Target::Su4)
            .unwrap()
            .circuit;
        let k = su4.counts();
        assert_eq!(k.cnot + k.clifford2 + k.pauli_rot2 + k.swap, 0);
        assert!(k.su4 > 0);
    }

    #[test]
    fn hardware_aware_respects_coupling() {
        let t = terms(&["ZZII", "IZZI", "IIZZ", "ZIIZ"]);
        let dev = CouplingGraph::line(4);
        let hw = compile(&PhoenixOptions::default(), 4, &t, bare(&dev))
            .unwrap()
            .hardware
            .unwrap();
        for g in hw.circuit.gates() {
            if let (a, Some(b)) = g.qubits() {
                assert!(dev.contains_edge(a, b), "gate {g} violates coupling");
            }
        }
        assert!(hw.routing_overhead() >= 1.0);
    }

    #[test]
    fn empty_program_compiles_to_empty_circuit() {
        let out = compile(&PhoenixOptions::default(), 3, &[], Target::Logical).unwrap();
        assert!(out.circuit.is_empty());
        assert_eq!(out.num_groups, 0);
    }

    #[test]
    fn qaoa_terms_compile_without_cliffords() {
        let t = terms(&["ZZII", "IZZI", "IIZZ"]);
        let out = compile(&PhoenixOptions::default(), 4, &t, Target::Logical).unwrap();
        assert_eq!(out.circuit.counts().clifford2, 0);
        assert_eq!(out.circuit.counts().pauli_rot2, 3);
    }

    #[test]
    fn logical_trace_names_the_canonical_sequence() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let out = compile(&PhoenixOptions::default(), 3, &t, Target::Cnot).unwrap();
        assert_eq!(
            out.trace.unwrap().pass_names(),
            [
                "group",
                "simplify-synth",
                "tetris-order",
                "concat",
                "peephole"
            ]
        );
    }

    #[test]
    fn malformed_programs_are_rejected_without_panicking() {
        let opts = PhoenixOptions::default();
        let mixed = terms(&["ZZ", "ZZI"]);
        assert!(matches!(
            compile(&opts, 2, &mixed, Target::Logical),
            Err(PhoenixError::TermWidthMismatch { index: 1, .. })
        ));
        let nan = vec![("XX".parse::<PauliString>().unwrap(), f64::NAN)];
        for target in [Target::Cnot, Target::Su4, Target::CnotViaKak] {
            assert!(compile(&opts, 2, &nan, target).is_err());
        }
        let dev = CouplingGraph::line(2);
        assert!(matches!(
            compile(&opts, 3, &terms(&["ZZI"]), bare(&dev)),
            Err(PhoenixError::DeviceTooSmall {
                program: 3,
                device: 2
            })
        ));
    }

    #[test]
    fn pass_budget_truncates_but_still_compiles_hardware_aware() {
        let t = terms(&["ZZII", "IZZI", "IIZZ", "ZIIZ"]);
        let dev = CouplingGraph::line(4);
        let opts = PhoenixOptions {
            pass_budget: Some(Duration::ZERO),
            ..PhoenixOptions::default()
        };
        let out = compile(&opts, 4, &t, bare(&dev)).unwrap();
        for g in out.hardware.unwrap().circuit.gates() {
            if let (a, Some(b)) = g.qubits() {
                assert!(dev.contains_edge(a, b), "gate {g} violates coupling");
            }
        }
        // Required passes (lowering, routing) still ran; optimization was
        // truncated or skipped and the trace says so.
        let trace = out.trace.unwrap();
        assert!(!trace.events.is_empty());
        assert!(trace
            .pass_names()
            .iter()
            .all(|p| *p != "peephole" && *p != "kak-resynthesis"));
    }

    #[test]
    fn verify_option_validates_every_executed_boundary() {
        use crate::pass::EVENT_VERIFIED;
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let opts = PhoenixOptions {
            verify: true,
            ..PhoenixOptions::default()
        };
        let out = compile(&opts, 3, &t, Target::Cnot).unwrap();
        let verified: Vec<&str> = out
            .trace
            .as_ref()
            .unwrap()
            .events
            .iter()
            .filter(|e| e.kind == EVENT_VERIFIED)
            .map(|e| e.pass.as_str())
            .collect();
        assert_eq!(
            verified,
            [
                "group",
                "simplify-synth",
                "tetris-order",
                "concat",
                "peephole"
            ]
        );

        let dev = CouplingGraph::line(3);
        let hw = compile(&opts, 3, &t, bare(&dev)).unwrap();
        assert!(hw
            .trace
            .unwrap()
            .events
            .iter()
            .any(|e| e.kind == EVENT_VERIFIED && e.pass == "layout-route"));
        let hw = hw.hardware.unwrap();
        assert_eq!(hw.initial_layout.len(), 3);
        assert_eq!(hw.final_layout.len(), 3);

        // The verified output is identical to the unverified one.
        let plain = compile(&PhoenixOptions::default(), 3, &t, Target::Cnot).unwrap();
        assert_eq!(out.circuit, plain.circuit);
    }

    #[test]
    fn verify_option_catches_an_injected_miscompilation() {
        use crate::pass::Pass;

        /// A rewrite that silently corrupts the circuit — the kind of bug
        /// translation validation exists to catch.
        struct SabotagePass;
        impl Pass for SabotagePass {
            fn name(&self) -> &str {
                "peephole" // masquerades as a legitimate rewrite
            }
            fn run(&self, ctx: &mut CompileContext) -> Result<(), PassError> {
                ctx.circuit.push(phoenix_circuit::Gate::H(0));
                Ok(())
            }
        }

        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let (structure, _) = passes(&Target::Logical, &PhoenixOptions::default());
        let manager = structure
            .with(SabotagePass)
            .with_observer(Arc::new(crate::verify::BoundaryVerifier::default()));
        let mut ctx = CompileContext::new(3, &t);
        let err = manager.run(&mut ctx).unwrap_err();
        assert!(
            err.to_string().contains("translation validation failed"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn try_run_hardware_backend_rejects_undersized_devices() {
        let t = terms(&["ZZZ"]);
        let logical = compile(&PhoenixOptions::default(), 3, &t, Target::Cnot)
            .unwrap()
            .circuit;
        let small = CouplingGraph::line(2);
        assert!(try_run_hardware_backend(&logical, &small, &RouterOptions::default(), 1).is_err());
    }

    #[test]
    fn hardware_trace_covers_the_full_pipeline() {
        let t = terms(&["ZZII", "IZZI", "IIZZ"]);
        let dev = CouplingGraph::line(4);
        let out = compile(&PhoenixOptions::default(), 4, &t, bare(&dev)).unwrap();
        assert_eq!(
            out.trace.unwrap().pass_names(),
            [
                "group",
                "simplify-synth",
                "tetris-order",
                "concat",
                "peephole",
                "snapshot-logical",
                "layout-route",
                "cnot-lower",
                "peephole"
            ]
        );
        assert!(!out.circuit.is_empty());
    }
}
