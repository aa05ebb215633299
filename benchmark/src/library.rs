//! The three in-process workloads: `logical-uccsd`, `hardware-route` and
//! `vqe-rebind`. Each runs one caller in a closed loop against the public
//! `CompileRequest` API; the traced variants pair every request with its
//! layer-by-layer replay.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use phoenix_circuit::Circuit;
use phoenix_core::{
    CompileCache, CompileOutcome, CompileRequest, Device, DeviceRegistry, PhoenixOptions, Target,
};
use phoenix_hamil::uccsd::table1_suite;
use phoenix_mathkit::Xoshiro256;
use phoenix_pauli::PauliString;
use phoenix_verify::gen::{Family, RandomProgramGen};

use crate::check::{self, Quality, SpotCheck};
use crate::replay::{self, Terms};
use crate::stats::median;
use crate::trace::{Counts, Tracer};
use crate::{Report, Run};

/// Table-I programs of the hardware workload (14 qubits each).
const HW_TABLE1: [&str; 4] = [
    "CH2_cmplt_JW",
    "CH2_cmplt_BK",
    "H2O_cmplt_JW",
    "H2O_cmplt_BK",
];
/// Devices of the hardware workload: two CNOT-native IBM topologies, an
/// SU(4)-native all-to-all trap and a grid lowered through KAK.
const HW_DEVICES: [&str; 4] = [
    "manhattan65",
    "heavy-hex:3x9",
    "ion-trap:16",
    "grid:4x4@kak",
];
/// Register width and length of the generated hardware programs.
const HW_QUBITS: usize = 14;
const HW_TERMS: usize = 600;
/// Share (percent) of `vqe-rebind` requests that bring a never-seen program.
const MISS_PERCENT: usize = 5;
/// Shape of a never-seen `vqe-rebind` program.
const MISS_QUBITS: usize = 10;
const MISS_TERMS: usize = 80;
/// Never-seen outputs verified per `vqe-rebind` run.
const MISS_CHECKS: usize = 8;
/// Per-map capacity of the `vqe-rebind` cache. Bounded, as a long-lived
/// session with never-seen programs should be, so memory levels off within a
/// run instead of growing with the number of misses; the 16 primed
/// structures are reused far more recently than any stale miss, so LRU
/// eviction never drops them.
const REBIND_CACHE_CAPACITY: usize = 64;

/// One distinct compile of a workload: to `device`, or to the CNOT ISA
/// when there is none.
struct Job {
    name: String,
    n: usize,
    terms: Terms,
    device: Option<Device>,
}

impl Job {
    fn target(&self) -> Target {
        self.device.clone().map_or(Target::Cnot, Target::Device)
    }
}

/// The options every measured compile uses, spelled out so no default or
/// environment variable can change what is measured.
pub fn pinned_options() -> PhoenixOptions {
    PhoenixOptions {
        lookahead: 20,
        routing_aware: false,
        enable_simplification: true,
        enable_ordering: true,
        router: phoenix_router::RouterOptions::default(),
        layout_trials: 3,
        stage2_threads: 0,
        stage2_scan_threads: 1,
        pass_budget: None,
        anytime_rounds: None,
        verify: false,
        fleet_threads: 1,
        cancel: None,
    }
}

/// The all-to-all device whose noise model scores unrouted outputs: the
/// registry's `ion-trap:N` with the registry's default noise seed.
pub fn reference_device(n: usize) -> Device {
    DeviceRegistry::new()
        .build(&format!("ion-trap:{n}"))
        .expect("ion-trap:N is a registry preset")
}

fn logical_jobs(seed: u64) -> Vec<Job> {
    table1_suite(seed)
        .into_iter()
        .map(|h| Job {
            name: h.name().to_string(),
            n: h.num_qubits(),
            terms: h.terms().to_vec(),
            device: None,
        })
        .collect()
}

fn hardware_jobs(seed: u64) -> Result<Vec<Job>, String> {
    let suite = table1_suite(seed);
    let mut programs: Vec<(String, usize, Terms)> = Vec::new();
    for name in HW_TABLE1 {
        let h = suite
            .iter()
            .find(|h| h.name() == name)
            .ok_or_else(|| format!("Table-I suite has no program {name}"))?;
        programs.push((name.to_string(), h.num_qubits(), h.terms().to_vec()));
    }
    let mut gen = RandomProgramGen::new(seed);
    for family in [Family::Random, Family::UccsdLike] {
        let p = gen.program(family, HW_QUBITS, HW_TERMS);
        programs.push((
            format!("{}-{HW_QUBITS}x{HW_TERMS}", family.name()),
            p.num_qubits,
            p.terms,
        ));
    }
    // Noise is a property of the hardware, not of the input: devices use
    // the registry's default seed, as `phoenixd` does.
    let registry = DeviceRegistry::new();
    let mut jobs = Vec::new();
    for spec in HW_DEVICES {
        let device = registry.build(spec).map_err(|e| e.to_string())?;
        for (name, n, terms) in &programs {
            jobs.push(Job {
                name: format!("{name}->{spec}"),
                n: *n,
                terms: terms.clone(),
                device: Some(device.clone()),
            });
        }
    }
    Ok(jobs)
}

fn compile(job: &Job, opts: &PhoenixOptions) -> Result<CompileOutcome, String> {
    CompileRequest::new(job.n, &job.terms)
        .target(job.target())
        .options(opts.clone())
        .run()
        .map_err(|e| format!("{}: {e}", job.name))
}

/// The output quality of `out`.
fn quality(job: &Job, out: &CompileOutcome) -> Quality {
    let c = &out.circuit;
    match (&job.device, &out.hardware) {
        (Some(device), Some(hw)) => Quality {
            two_qubit: c.counts().two_qubit(),
            depth_2q: c.depth_2q(),
            logical_2q: hw.logical.counts().two_qubit(),
            swaps: hw.num_swaps,
            fidelity: device.predicted_fidelity(c),
        },
        _ => Quality::logical(c, &reference_device(job.n)),
    }
}

/// The correctness gate on `out`: coupling legality now, and the state
/// spot check of its logical circuit queued on `checks`.
fn verify(job: &Job, out: &CompileOutcome, checks: &mut Vec<SpotCheck>) -> Result<(), String> {
    let logical = match (&job.device, &out.hardware) {
        (Some(device), Some(hw)) => {
            check::coupling(&out.circuit, device).map_err(|e| format!("{}: {e}", job.name))?;
            hw.logical.clone()
        }
        (Some(_), None) => {
            return Err(format!(
                "{}: device compile returned no hardware program",
                job.name
            ))
        }
        (None, _) => out.circuit.clone(),
    };
    checks.push(SpotCheck {
        name: job.name.clone(),
        circuit: logical,
        input: job.terms.clone(),
        order: out.term_order.clone(),
    });
    Ok(())
}

/// A seeded endless walk over `0..len`: a fresh shuffle per cycle.
struct Walk {
    rng: Xoshiro256,
    order: Vec<usize>,
    pos: usize,
}

impl Walk {
    fn new(len: usize, seed: u64) -> Self {
        Walk {
            rng: Xoshiro256::seed_from_u64(seed),
            order: (0..len).collect(),
            pos: len,
        }
    }

    /// Whether the last index returned completed a cycle.
    fn cycle_done(&self) -> bool {
        self.pos == self.order.len()
    }

    fn next(&mut self) -> usize {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

/// Records `q` as the quality of distinct output `key`, or checks that it
/// repeats the quality recorded before.
fn record_quality(report: &mut Report, key: &str, q: Quality) {
    match report.quality.get(key) {
        None => {
            report.quality.insert(key.to_string(), q);
        }
        Some(first) if *first == q => {}
        Some(first) => report.failures.push(format!(
            "{key}: output changed between repeats ({} vs {})",
            first.fingerprint(),
            q.fingerprint()
        )),
    }
}

/// Records the work counts of distinct request `key`, or checks that they
/// repeat the counts recorded before.
fn record_counts(seen: &mut BTreeMap<String, Counts>, report: &mut Report, key: &str, c: Counts) {
    match seen.get(key) {
        None => {
            seen.insert(key.to_string(), c);
        }
        Some(first) if *first == c => {}
        Some(first) => report.failures.push(format!(
            "{key}: work counts changed between replays ({first:?} vs {c:?})"
        )),
    }
}

/// Set-up shared by `logical-uccsd` and `hardware-route`: build the jobs and
/// warm each target's code path with one small compile.
fn compile_setup(workload: &str, seed: u64) -> Result<Vec<Job>, String> {
    let jobs = match workload {
        "logical-uccsd" => logical_jobs(seed),
        _ => hardware_jobs(seed)?,
    };
    let opts = pinned_options();
    let mut warmed: Vec<Option<&str>> = Vec::new();
    for job in &jobs {
        let device = job.device.as_ref().map(Device::name);
        if warmed.contains(&device) {
            continue;
        }
        warmed.push(device);
        let warm = RandomProgramGen::new(seed).program(Family::UccsdLike, 6, 24);
        let warm_job = Job {
            name: format!("warm-up for {}", job.name),
            n: warm.num_qubits,
            terms: warm.terms,
            device: job.device.clone(),
        };
        compile(&warm_job, &opts)?;
    }
    Ok(jobs)
}

/// Spans and work counts of a traced run.
#[derive(Default)]
struct Traced {
    tracer: Tracer,
    counts: BTreeMap<String, Counts>,
    request_ms: Vec<f64>,
}

/// Replays `job` layer by layer and asserts the replay reproduces `out`.
fn replay_and_compare(
    t: &mut Traced,
    report: &mut Report,
    job: &Job,
    out: &CompileOutcome,
    opts: &PhoenixOptions,
) -> Result<(), String> {
    let mut c = Counts::new();
    t.tracer.next_request();
    t.tracer.begin("request");
    let replayed = replay_compile(&mut t.tracer, &mut c, job, opts);
    t.request_ms.push(t.tracer.end());
    let (circuit, order, routed) = replayed?;
    let hw = out
        .hardware
        .as_ref()
        .map(|hw| (hw.logical.clone(), hw.num_swaps));
    if circuit != out.circuit || order != out.term_order || routed != hw {
        return Err(format!(
            "{}: replay differs from the CompileRequest output",
            job.name
        ));
    }
    record_counts(&mut t.counts, report, &job.name, c);
    Ok(())
}

/// `logical-uccsd` and `hardware-route`.
pub fn run_compiles(run: &Run, report: &mut Report) -> Result<(), String> {
    let jobs = crate::repeat_setup(report, || compile_setup(&run.workload, run.seed))?;
    let opts = pinned_options();
    let mut walk = Walk::new(jobs.len(), run.seed);
    let mut outputs: BTreeMap<usize, CompileOutcome> = BTreeMap::new();
    let mut traced = Traced::default();
    // Latency statistics cover complete cycles only, so every distinct job
    // weighs the same in them; a partial last cycle is dropped.
    let mut cycle_ms = Vec::new();
    let start = Instant::now();
    let mut timed = true;
    let mut next = 0;
    loop {
        let i = if timed && start.elapsed().as_secs_f64() < run.seconds {
            walk.next()
        } else {
            // Time is up: compile the jobs not yet seen, untimed, so the
            // quality sums always cover every distinct program.
            timed = false;
            match (next..jobs.len()).find(|i| !outputs.contains_key(i)) {
                Some(i) => {
                    next = i + 1;
                    i
                }
                None => break,
            }
        };
        let job = &jobs[i];
        let t0 = Instant::now();
        let out = compile(job, &opts);
        if timed {
            report.attempted += 1;
            cycle_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if walk.cycle_done() {
                report.latencies_ms.append(&mut cycle_ms);
                report.timed_s = start.elapsed().as_secs_f64();
            }
        }
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                report.failures.push(e);
                continue;
            }
        };
        if run.trace {
            replay_and_compare(&mut traced, report, job, &out, &opts)?;
        }
        record_quality(report, &job.name, quality(job, &out));
        outputs.entry(i).or_insert(out);
    }
    if report.latencies_ms.is_empty() {
        // Not one complete cycle in time: report the partial one.
        report.latencies_ms = cycle_ms;
        report.timed_s = run.seconds;
    }
    report.peak_rss_mb = crate::stats::peak_rss_mb("self")?;
    let mut checks = Vec::new();
    for (i, out) in &outputs {
        if let Err(e) = verify(&jobs[*i], out, &mut checks) {
            report.failures.push(e);
        }
    }
    report
        .failures
        .extend(check::run_spot_checks(checks, run.seed));
    if run.trace {
        let overhead = median(&traced.request_ms) - median(&report.latencies_ms);
        report.layer("trace.overhead_ms", overhead);
        report.finish_trace(&traced.tracer, &traced.counts, traced.request_ms.len(), run)?;
    }
    Ok(())
}

/// A replay's output circuit and term order, plus the pre-routing circuit
/// and SWAP count of a device compile.
type Replayed = (Circuit, Terms, Option<(Circuit, usize)>);

/// The layer-by-layer replay of one compile job.
fn replay_compile(
    t: &mut Tracer,
    c: &mut Counts,
    job: &Job,
    opts: &PhoenixOptions,
) -> Result<Replayed, String> {
    match &job.device {
        None => {
            let (logical, order) = replay::logical(t, c, job.n, &job.terms, opts, false);
            Ok((replay::peephole(t, c, &logical), order, None))
        }
        Some(device) => {
            let (logical, order) = replay::logical(t, c, job.n, &job.terms, opts, true);
            let (circuit, snapshot, swaps) = replay::hardware(t, c, &logical, device, opts)
                .map_err(|e| format!("{}: {e}", job.name))?;
            Ok((circuit, order, Some((snapshot, swaps))))
        }
    }
}

/// Primes a fresh cache with the structure of every Table-I program.
fn prime(programs: &[Job], opts: &PhoenixOptions) -> Result<Arc<CompileCache>, String> {
    let cache = Arc::new(CompileCache::with_capacity(REBIND_CACHE_CAPACITY));
    for p in programs {
        CompileRequest::new(p.n, &p.terms)
            .cache(&cache)
            .target(Target::Cnot)
            .options(opts.clone())
            .structure()
            .map_err(|e| format!("priming {}: {e}", p.name))?;
    }
    Ok(cache)
}

fn bind(
    cache: &Arc<CompileCache>,
    n: usize,
    terms: &[(PauliString, f64)],
    angles: &[f64],
    opts: &PhoenixOptions,
) -> Result<CompileOutcome, String> {
    CompileRequest::new(n, terms)
        .cache(cache)
        .target(Target::Cnot)
        .options(opts.clone())
        .bind(angles)
        .map_err(|e| e.to_string())
}

/// `vqe-rebind`: fresh angles bound into primed structures, with a small
/// share of never-seen programs that miss and insert.
pub fn run_rebind(run: &Run, report: &mut Report) -> Result<(), String> {
    let opts = pinned_options();
    let programs = logical_jobs(run.seed);
    let cache = crate::repeat_setup(report, || prime(&programs, &opts))?;
    // The traced run times its replays on `cache` and its reference binds
    // on a mirror, so the replay's cache statistics count replays only.
    let mirror = if run.trace {
        Some(prime(&programs, &opts)?)
    } else {
        None
    };
    let mut rng = Xoshiro256::seed_from_u64(run.seed);
    let mut walk = Walk::new(programs.len(), run.seed ^ 0x5eed);
    let mut checked = vec![false; programs.len()];
    let mut miss_checks = 0;
    let mut checks = Vec::new();
    let mut traced = Traced::default();
    let start = Instant::now();
    let mut misses = 0u64;
    while start.elapsed().as_secs_f64() < run.seconds {
        let miss = rng.next_below(100) < MISS_PERCENT;
        let (key, fresh);
        let (name, n, terms): (String, usize, &[(PauliString, f64)]) = if miss {
            misses += 1;
            fresh = RandomProgramGen::new(run.seed.wrapping_mul(1_000_003).wrapping_add(misses))
                .program(Family::UccsdLike, MISS_QUBITS, MISS_TERMS);
            key = None;
            (
                format!("never-seen #{misses}"),
                fresh.num_qubits,
                &fresh.terms,
            )
        } else {
            let i = walk.next();
            key = Some(i);
            (programs[i].name.clone(), programs[i].n, &programs[i].terms)
        };
        let angles: Vec<f64> = (0..terms.len())
            .map(|_| rng.next_range_f64(-0.1, 0.1))
            .collect();
        report.attempted += 1;
        let t0 = Instant::now();
        let out = bind(mirror.as_ref().unwrap_or(&cache), n, terms, &angles, &opts);
        report.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                report.failures.push(format!("{name}: {e}"));
                continue;
            }
        };
        if run.trace {
            let mut c = Counts::new();
            let t = &mut traced.tracer;
            t.next_request();
            t.begin("request");
            let replayed = replay_bind(t, &mut c, &cache, n, terms, &angles, &opts);
            traced.request_ms.push(t.end());
            let (circuit, order) = replayed.map_err(|e| format!("{name}: {e}"))?;
            if circuit != out.circuit || order != out.term_order {
                return Err(format!(
                    "{name}: bind + peephole differs from the bind() output"
                ));
            }
            if key.is_some() {
                record_counts(&mut traced.counts, report, &name, c);
            }
        }
        let verify = match key {
            Some(i) if !checked[i] => {
                checked[i] = true;
                true
            }
            None if miss_checks < MISS_CHECKS => {
                miss_checks += 1;
                true
            }
            _ => false,
        };
        if verify {
            let bound = terms
                .iter()
                .zip(&angles)
                .map(|((p, _), a)| (p.clone(), *a))
                .collect();
            checks.push(SpotCheck {
                name: name.clone(),
                circuit: out.circuit.clone(),
                input: bound,
                order: out.term_order.clone(),
            });
        }
        if key.is_some() {
            record_quality(
                report,
                &name,
                Quality::logical(&out.circuit, &reference_device(n)),
            );
        }
    }
    report.timed_s = run.seconds;
    report.peak_rss_mb = crate::stats::peak_rss_mb("self")?;
    // Structures the walk never reached still count towards the quality sums.
    for p in &programs {
        if !report.quality.contains_key(&p.name) {
            let angles: Vec<f64> = p.terms.iter().map(|(_, c)| *c).collect();
            let out = bind(&cache, p.n, &p.terms, &angles, &opts)?;
            record_quality(
                report,
                &p.name,
                Quality::logical(&out.circuit, &reference_device(p.n)),
            );
            checks.push(SpotCheck {
                name: p.name.clone(),
                circuit: out.circuit,
                input: p.terms.clone(),
                order: out.term_order,
            });
        }
    }
    report
        .failures
        .extend(check::run_spot_checks(checks, run.seed));
    report
        .info
        .push(format!("vqe-rebind never-seen programs: {misses}"));
    if run.trace {
        let stats = cache.stats();
        report.layer("cache.program_hit_rate", stats.program_hit_rate());
        report.layer("cache.group_hit_rate", stats.group_hit_rate());
        report.layer(
            "cache.entries",
            (cache.num_programs() + cache.num_groups()) as f64,
        );
        let overhead = median(&traced.request_ms) - median(&report.latencies_ms);
        report.layer("trace.overhead_ms", overhead);
        report.finish_trace(&traced.tracer, &traced.counts, traced.request_ms.len(), run)?;
    }
    Ok(())
}

/// The layer-by-layer replay of one bind: structure lookup (or miss and
/// insert), angle binding, peephole.
fn replay_bind(
    t: &mut Tracer,
    c: &mut Counts,
    cache: &Arc<CompileCache>,
    n: usize,
    terms: &[(PauliString, f64)],
    angles: &[f64],
    opts: &PhoenixOptions,
) -> Result<(Circuit, Terms), String> {
    let hits = cache.stats().program_hits;
    t.begin("cache.lookup");
    let artifact = CompileRequest::new(n, terms)
        .cache(cache)
        .target(Target::Cnot)
        .options(opts.clone())
        .structure();
    t.end();
    let artifact = artifact.map_err(|e| e.to_string())?;
    if cache.stats().program_hits == hits {
        // A miss: the lookup compiled and inserted the structure.
        t.rename_last("cache.insert");
    }
    let bound = t
        .span("cache.bind", || artifact.bind(angles))
        .map_err(|e| e.to_string())?;
    Ok((replay::peephole(t, c, &bound.circuit), bound.term_order))
}
