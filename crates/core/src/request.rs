//! The compilation API: [`CompileRequest`] → [`CompileOutcome`].
//!
//! One builder describes a compilation — program, [`Target`], options,
//! which observability artifacts to keep, an optional parametric cache —
//! and [`CompileRequest::run`] executes it:
//!
//! ```
//! use phoenix_core::{CompileRequest, Target};
//! use phoenix_pauli::PauliString;
//!
//! let terms: Vec<(PauliString, f64)> = ["ZYY", "ZZY", "XYY", "XZY"]
//!     .iter()
//!     .map(|s| (s.parse().unwrap(), 0.1))
//!     .collect();
//! let outcome = CompileRequest::new(3, &terms)
//!     .target(Target::Cnot)
//!     .trace(true)
//!     .obs(true)
//!     .run()
//!     .unwrap();
//! assert!(outcome.circuit.counts().cnot < 16);
//! assert!(outcome.trace.is_some());
//! let report = outcome.obs.unwrap();
//! assert_eq!(report.metrics.counter("groups_compiled"), Some(1));
//! ```
//!
//! The pass list of each target comes from one function
//! (`pipeline::passes`), split into a structure half and a lowering half;
//! `run` either chains the two or, with a cache attached, puts a structure
//! lookup and an angle bind between them.

use std::sync::Arc;

use phoenix_cache::{check_angles, CompileCache, StructureArtifact};
use phoenix_circuit::Circuit;
use phoenix_device::Device;
use phoenix_obs::report::ObsEvent;
use phoenix_obs::{metrics, MetricId, ObsCollector, ObsReport, Span};
use phoenix_pauli::PauliString;

use crate::error::{validate_device, validate_program, PhoenixError};
use crate::observe::MetricsObserver;
use crate::parametric;
use crate::pass::{CompileContext, PassManager, PassTrace};
use crate::pipeline::{extract_hardware_program, passes, HardwareProgram, PhoenixOptions};

/// The compilation target a [`CompileRequest`] lowers to.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Target {
    /// The ordered high-level IR-group circuit (Clifford2Q generators +
    /// ≤2Q Pauli rotations), still ISA-independent.
    #[default]
    Logical,
    /// The CNOT ISA (lowered + peephole-optimized).
    Cnot,
    /// The SU(4) ISA: SU(4) blocks emitted directly from the simplified IR.
    Su4,
    /// The CNOT ISA *through* the SU(4) layer: blocks KAK-resynthesized to
    /// their Weyl floor before lowering.
    CnotViaKak,
    /// Hardware-aware compilation onto a [`Device`]: routing-aware
    /// ordering, CNOT lowering, layout search + SABRE routing, SWAP
    /// lowering, peephole, then rebase into the device's native ISA
    /// (see [`phoenix_device::NativeIsa`]). A bare coupling graph compiles
    /// as `Target::Device(Device::bare(graph))`: a noiseless CNOT-ISA
    /// device.
    Device(Device),
    /// Compile one program against every device of a fleet in parallel
    /// and keep the outcome of the member with the highest predicted
    /// fidelity. [`CompileRequest::run`] returns the best member's
    /// outcome; use [`CompileRequest::fleet`] for the full ranking.
    Fleet(Vec<Device>),
}

impl Target {
    /// Whether ordering applies the Eq. (7) routing-similarity factor: on
    /// for every target that routes onto hardware.
    pub(crate) fn routing_aware(&self) -> bool {
        matches!(self, Target::Device(_) | Target::Fleet(_))
    }
}

/// A single compilation, fully described: program, target, options, and
/// which observability artifacts to retain.
///
/// Build with [`CompileRequest::new`], refine with the builder methods,
/// execute with [`CompileRequest::run`].
#[derive(Debug, Clone)]
pub struct CompileRequest {
    num_qubits: usize,
    terms: Vec<(PauliString, f64)>,
    target: Target,
    options: PhoenixOptions,
    trace: bool,
    obs: bool,
    cache: Option<Arc<CompileCache>>,
}

impl CompileRequest {
    /// A request to compile `terms` on `num_qubits` qubits with default
    /// options, targeting [`Target::Logical`], retaining neither trace nor
    /// observability report.
    pub fn new(num_qubits: usize, terms: &[(PauliString, f64)]) -> Self {
        CompileRequest {
            num_qubits,
            terms: terms.to_vec(),
            target: Target::default(),
            options: PhoenixOptions::default(),
            trace: false,
            obs: false,
            cache: None,
        }
    }

    /// Sets the compilation target (builder style).
    pub fn target(mut self, target: Target) -> Self {
        self.target = target;
        self
    }

    /// Sets the compiler options (builder style).
    pub fn options(mut self, options: PhoenixOptions) -> Self {
        self.options = options;
        self
    }

    /// Whether to retain the [`PassTrace`] in the outcome. The manager
    /// records it either way; this only controls retention.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Whether to instrument the compilation: attach an
    /// [`ObsCollector`] (span tree + per-compilation metrics), append a
    /// [`MetricsObserver`] after any verifying observer, and enable
    /// process-global metric recording for substrate crates. The resulting
    /// [`ObsReport`] lands in [`CompileOutcome::obs`].
    pub fn obs(mut self, on: bool) -> Self {
        self.obs = on;
        self
    }

    /// Attaches a shared parametric compilation cache (builder style).
    ///
    /// With a cache attached, [`CompileRequest::run`] splits into a
    /// structure phase (memoized in the cache, keyed by the Zobrist digest
    /// of the angle-erased canonical IR) and an angle-binding phase, and
    /// stage 2 additionally reuses per-group artifacts. Outputs are
    /// bit-for-bit identical to the uncached path. Requests carrying a pass
    /// budget or verification run uncached — time-boxed or
    /// verifier-audited runs must not be served from (or leak into) a
    /// cache.
    pub fn cache(mut self, cache: &Arc<CompileCache>) -> Self {
        self.cache = Some(Arc::clone(cache));
        self
    }

    /// Runs only the structure phase: the structure half of the target's
    /// pass list (grouping, simplification, ordering and synthesis) on the
    /// angle-erased program, returning the rebindable
    /// [`StructureArtifact`]. Served from the attached cache when possible;
    /// verified like [`CompileRequest::run`] when
    /// [`PhoenixOptions::verify`] is set. The request's coefficients are
    /// ignored — only the Pauli strings (and their order) matter.
    ///
    /// # Errors
    ///
    /// Returns a typed [`PhoenixError`] on invalid input or a failing pass.
    pub fn structure(self) -> Result<Arc<StructureArtifact>, PhoenixError> {
        let (structure, _) = passes(&self.target, &self.options);
        let (artifact, _, _) = parametric::obtain_structure(
            self.num_qubits,
            &self.terms,
            &self.options,
            self.target.routing_aware(),
            structure,
            self.cache.as_ref(),
            None,
        )?;
        Ok(artifact)
    }

    /// Compiles with `angles` substituted for the request's coefficients:
    /// exactly [`CompileRequest::run`] on the rebound program. This is the
    /// VQE-sweep entry point — on a warm cache, everything but the
    /// substitution and target lowering is skipped.
    ///
    /// # Errors
    ///
    /// Returns [`PhoenixError::Bind`] for an angle vector whose length
    /// differs from the term count or that holds a non-finite angle, and
    /// otherwise whatever [`CompileRequest::run`] returns.
    pub fn bind(mut self, angles: &[f64]) -> Result<CompileOutcome, PhoenixError> {
        check_angles(angles, self.terms.len())?;
        for ((_, c), a) in self.terms.iter_mut().zip(angles) {
            *c = *a;
        }
        self.run()
    }

    /// Executes the request.
    ///
    /// Without a cache (or for a budgeted or verified request) the
    /// target's whole pass list runs on the program. With a cache, the
    /// structure half is looked up (or compiled slot-encoded and inserted),
    /// the request's coefficients are bound into it, and the lowering half
    /// runs on the bound circuit; the retained trace then honestly shows
    /// only what ran — on a program-cache hit, only the lowering passes.
    ///
    /// # Errors
    ///
    /// Returns a typed [`PhoenixError`] on invalid input, an unroutable
    /// device, a failing pass, or a rejected verification boundary — never
    /// panics on bad input.
    pub fn run(mut self) -> Result<CompileOutcome, PhoenixError> {
        if let Target::Fleet(devices) = &self.target {
            let devices = devices.clone();
            self.target = Target::Logical;
            return self.fleet(&devices)?.into_best();
        }
        validate_program(self.num_qubits, &self.terms)?;
        let mut ctx = match &self.target {
            Target::Device(device) => {
                validate_device(self.num_qubits, device.graph())?;
                CompileContext::for_device(self.num_qubits, &self.terms, device.graph())
            }
            _ => CompileContext::new(self.num_qubits, &self.terms),
        };
        let collector = if self.obs {
            // Turn on process-global recording so router/simulator
            // counters flow; left on — other instrumented compilations may
            // be in flight, and the disabled-path cost is one relaxed load.
            metrics::set_enabled(true);
            Some(Arc::new(ObsCollector::new()))
        } else {
            None
        };
        ctx.obs = collector.clone();
        ctx.cancel = self.options.cancel.clone();
        // The metrics collector goes last so a verifier on the structure
        // half shields it, and so it sees the verifier's `verified` events
        // (see `PassManager::with_observer`).
        let instrument = |manager: PassManager| {
            if self.obs {
                manager.with_observer(Arc::new(MetricsObserver))
            } else {
                manager
            }
        };
        let (structure, lowering) = passes(&self.target, &self.options);
        let cache = self
            .cache
            .as_ref()
            .filter(|_| parametric::split_path_allowed(&self.options));
        let trace = match cache {
            None => instrument(structure.append(lowering)).run(&mut ctx)?,
            Some(cache) => {
                let (artifact, _, mut trace) = parametric::obtain_structure(
                    self.num_qubits,
                    &self.terms,
                    &self.options,
                    self.target.routing_aware(),
                    structure,
                    Some(cache),
                    collector.as_ref(),
                )?;
                let angles: Vec<f64> = self.terms.iter().map(|(_, c)| *c).collect();
                let bind_start = collector.as_ref().map(|c| c.now_us());
                let bound = artifact.bind(&angles)?;
                if let Some(c) = &collector {
                    let mut span = Span::new("bind", "bind");
                    span.start_us = bind_start.unwrap_or(0);
                    span.dur_us = c.now_us().saturating_sub(span.start_us);
                    c.push_root(span);
                }
                ctx.circuit = bound.circuit;
                ctx.term_order = bound.term_order;
                ctx.num_groups = bound.num_groups;
                let lowered = instrument(lowering).run(&mut ctx)?;
                trace.passes.extend(lowered.passes);
                trace.events.extend(lowered.events);
                trace
            }
        };
        let obs = collector.map(|c| {
            c.finish(
                trace
                    .events
                    .iter()
                    .map(|e| ObsEvent {
                        pass: e.pass.clone(),
                        kind: e.kind.clone(),
                        detail: e.detail.clone(),
                    })
                    .collect(),
            )
        });
        let num_groups = ctx.num_groups;
        let depth_reached = ctx.depth_reached;
        let term_order = std::mem::take(&mut ctx.term_order);
        let (circuit, hardware) = match &self.target {
            Target::Device(_) => {
                let hw = extract_hardware_program(ctx)?;
                (hw.circuit.clone(), Some(hw))
            }
            _ => (ctx.circuit, None),
        };
        Ok(CompileOutcome {
            circuit,
            num_groups,
            term_order,
            hardware,
            depth_reached,
            trace: if self.trace { Some(trace) } else { None },
            obs,
        })
    }

    /// Compiles the request's program against every device of `devices` in
    /// parallel and ranks the successful outcomes by predicted fidelity.
    ///
    /// Each member compiles exactly as [`Target::Device`] on that device
    /// would — routing onto its topology, rebasing into its native ISA,
    /// retaining trace/obs per the request's flags — via a deterministic
    /// [`std::thread::scope`] fan-out (the stage-2 discipline): the ranked
    /// outcome is identical for every [`PhoenixOptions::fleet_threads`]
    /// value, and a fleet of one equals the single-device path bit for
    /// bit. An attached [`CompileCache`] is shared across members, so the
    /// (device-independent) structure phase is computed once per program.
    ///
    /// Ties in predicted fidelity keep the input device order. The
    /// request's own `target` field is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`PhoenixError::EmptyFleet`] when `devices` is empty.
    /// Per-device failures (e.g. a device too small for the program) do
    /// not fail the fleet — they land in [`FleetOutcome::failed`].
    pub fn fleet(mut self, devices: &[Device]) -> Result<FleetOutcome, PhoenixError> {
        if devices.is_empty() {
            return Err(PhoenixError::EmptyFleet);
        }
        if metrics::enabled() {
            metrics::global().incr(MetricId::FleetCompiles);
            metrics::global().add(MetricId::FleetMembersCompiled, devices.len() as u64);
        }
        // Per-member targets are assigned below; drop any fleet payload so
        // member clones stay cheap.
        self.target = Target::Logical;
        let base = &self;
        let compile_member = |dev: &Device| -> Result<FleetEntry, (String, PhoenixError)> {
            let req = base.clone().target(Target::Device(dev.clone()));
            match req.run() {
                Ok(outcome) => Ok(FleetEntry {
                    fidelity: dev.predicted_fidelity(&outcome.circuit),
                    device: dev.clone(),
                    outcome,
                }),
                Err(e) => Err((dev.name().to_string(), e)),
            }
        };
        let threads = match self.options.fleet_threads {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            t => t,
        }
        .clamp(1, devices.len());
        let mut slots: Vec<Option<Result<FleetEntry, (String, PhoenixError)>>> =
            devices.iter().map(|_| None).collect();
        if threads == 1 {
            for (dev, slot) in devices.iter().zip(slots.iter_mut()) {
                *slot = Some(compile_member(dev));
            }
        } else {
            // Deterministic fan-out, stage-2 style: contiguous chunks into
            // index-aligned slots, so results are position-keyed and the
            // chunking never affects the outcome.
            let chunk = devices.len().div_ceil(threads);
            std::thread::scope(|s| {
                for (dev_chunk, slot_chunk) in devices.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                    let compile_member = &compile_member;
                    s.spawn(move || {
                        for (dev, slot) in dev_chunk.iter().zip(slot_chunk.iter_mut()) {
                            *slot = Some(compile_member(dev));
                        }
                    });
                }
            });
        }
        let mut ranked = Vec::new();
        let mut failed = Vec::new();
        for slot in slots {
            match slot {
                Some(Ok(entry)) => ranked.push(entry),
                Some(Err(fail)) => failed.push(fail),
                // Every slot is written by its chunk's worker before the
                // scope joins.
                None => unreachable!("fleet slot left unwritten"),
            }
        }
        // Stable sort: fidelity descending, input order breaking ties.
        ranked.sort_by(|a, b| b.fidelity.total_cmp(&a.fidelity));
        Ok(FleetOutcome { ranked, failed })
    }
}

/// Everything a compilation produced.
///
/// `circuit` is always the final circuit of the requested target (for
/// [`Target::Device`] it equals `hardware.circuit`); the optional fields
/// are populated according to the request's target and retention flags.
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    /// The compiled circuit in the requested target ISA.
    pub circuit: Circuit,
    /// Number of IR groups the program decomposed into.
    pub num_groups: usize,
    /// The input terms in the order the emitted circuit implements them —
    /// a permutation of the input (compilation only reorders the Trotter
    /// product). The logical circuit's unitary equals this order's exact
    /// Trotter product up to global phase.
    pub term_order: Vec<(PauliString, f64)>,
    /// The full hardware program ([`Target::Device`] and
    /// [`Target::Fleet`] only).
    pub hardware: Option<HardwareProgram>,
    /// Deepening rounds the anytime optimizer completed (budgeted compiles
    /// only; `None` on the unbudgeted path). `0` means the naive
    /// round-0 baseline was returned.
    pub depth_reached: Option<usize>,
    /// The pass trace (when requested via [`CompileRequest::trace`]).
    pub trace: Option<PassTrace>,
    /// The observability report (when requested via
    /// [`CompileRequest::obs`]).
    pub obs: Option<ObsReport>,
}

/// One fleet member's compilation: the device, its predicted fidelity for
/// the compiled circuit, and the full per-device outcome (trace and obs
/// retention apply per member, exactly as for a single-device request).
#[derive(Debug, Clone)]
pub struct FleetEntry {
    /// The device this member compiled onto.
    pub device: Device,
    /// Predicted fidelity of the compiled circuit on the device (the
    /// product of per-gate and readout success probabilities; see
    /// [`Device::predicted_fidelity`]).
    pub fidelity: f64,
    /// The member's compilation outcome, hardware program included.
    pub outcome: CompileOutcome,
}

/// The result of compiling one program against a fleet of devices.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Successful members, best predicted fidelity first; ties keep the
    /// input device order.
    pub ranked: Vec<FleetEntry>,
    /// Members that failed to compile, as `(device name, error)`, in
    /// input device order. A failed member never fails the fleet.
    pub failed: Vec<(String, PhoenixError)>,
}

impl FleetOutcome {
    /// The best-ranked member, if any member compiled.
    pub fn best(&self) -> Option<&FleetEntry> {
        self.ranked.first()
    }

    /// Consumes the fleet outcome into the best member's
    /// [`CompileOutcome`].
    ///
    /// # Errors
    ///
    /// When no member compiled, returns the first member's error (the
    /// fleet is never empty — [`CompileRequest::fleet`] rejects that up
    /// front).
    pub fn into_best(self) -> Result<CompileOutcome, PhoenixError> {
        let mut failed = self.failed;
        match self.ranked.into_iter().next() {
            Some(entry) => Ok(entry.outcome),
            None if failed.is_empty() => Err(PhoenixError::EmptyFleet),
            None => Err(failed.remove(0).1),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use phoenix_topology::CouplingGraph;

    fn terms(labels: &[&str]) -> Vec<(PauliString, f64)> {
        labels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.parse().unwrap(), 0.02 * (i + 1) as f64))
            .collect()
    }

    #[test]
    fn default_request_targets_logical_without_artifacts() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let out = CompileRequest::new(3, &t).run().unwrap();
        assert_eq!(out.num_groups, 1);
        assert!(out.trace.is_none());
        assert!(out.obs.is_none());
        assert!(out.hardware.is_none());
        assert!(!out.circuit.is_empty());
    }

    #[test]
    fn hardware_target_populates_the_hardware_program() {
        let t = terms(&["ZZII", "IZZI", "IIZZ"]);
        let dev = CouplingGraph::line(4);
        let out = CompileRequest::new(4, &t)
            .target(Target::Device(Device::bare(dev.clone())))
            .trace(true)
            .run()
            .unwrap();
        assert!(!out.trace.unwrap().passes.is_empty());
        let hw = out.hardware.unwrap();
        assert_eq!(out.circuit, hw.circuit);
        for g in hw.circuit.gates() {
            if let (a, Some(b)) = g.qubits() {
                assert!(dev.contains_edge(a, b), "gate {g} violates coupling");
            }
        }
    }

    #[test]
    fn obs_report_carries_spans_metrics_and_events() {
        let t = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
        let out = CompileRequest::new(3, &t)
            .target(Target::Cnot)
            .obs(true)
            .run()
            .unwrap();
        let report = out.obs.unwrap();
        assert_eq!(report.root.name, "pipeline");
        let names: Vec<&str> = report
            .root
            .children
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "group",
                "simplify-synth",
                "tetris-order",
                "concat",
                "peephole"
            ]
        );
        assert_eq!(report.metrics.counter("passes_run"), Some(5));
        assert_eq!(report.metrics.counter("groups_compiled"), Some(1));
        assert_eq!(report.metrics.counter("terms_compiled"), Some(4));
        // The report renders without panicking and names every pass.
        let text = report.render();
        assert!(text.contains("simplify-synth"), "{text}");
    }

    #[test]
    fn invalid_programs_are_rejected_with_typed_errors() {
        let nan = vec![("XX".parse::<PauliString>().unwrap(), f64::NAN)];
        assert!(CompileRequest::new(2, &nan).run().is_err());
        let dev = CouplingGraph::line(2);
        assert!(matches!(
            CompileRequest::new(3, &terms(&["ZZI"]))
                .target(Target::Device(Device::bare(dev)))
                .run(),
            Err(PhoenixError::DeviceTooSmall { .. })
        ));
    }
}
