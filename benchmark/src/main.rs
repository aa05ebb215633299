//! The PHOENIX benchmark: one workload, one seed, one run.
//!
//! ```text
//! phoenix-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) times requests end to end through the
//! public API (or over loopback to `phoenixd`) and prints the end-to-end
//! metrics. A traced run (`--trace 1`) replays the same requests layer by
//! layer, asserts that each replay reproduces the real output, and prints
//! per-layer self times and work counts. Both runs check every distinct
//! output with `phoenix-verify`. The last line of stdout is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod library;
mod replay;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use check::Quality;
use stats::{median, percentile};
use trace::{Counts, Tracer};

const WORKLOADS: [&str; 4] = [
    "logical-uccsd",
    "hardware-route",
    "vqe-rebind",
    "serve-mixed",
];

/// Environment variables that change what the library computes or how
/// much it instruments; a run refuses to start while any is set.
const FORBIDDEN_ENV: [&str; 4] = [
    "PHOENIX_NAIVE_COST",
    "PHOENIX_VERIFY",
    "PHOENIX_OBS",
    "PHOENIX_TRACE",
];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Directory (relative to the working directory) for trace dumps, daemon
/// reports and the records of the cross-run repeat check.
const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics, printed by untraced runs: (name, unit).
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("throughput_per_s", "1/s"),
    ("success_rate", "ratio"),
    ("two_qubit_gates", "count"),
    ("depth_2q", "count"),
    ("routing_overhead", "ratio"),
    ("fidelity_neglog10", "decades"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by traced runs: (name, unit). A `.ms` metric
/// is the layer's summed self time divided by the requests replayed; a
/// count is summed over the workload's distinct requests. A layer the
/// workload never calls reads 0.
const PER_LAYER: [(&str, &str); 29] = [
    ("core.group.ms", "ms"),
    ("core.group.groups", "count"),
    ("core.simplify.ms", "ms"),
    ("core.simplify.cliffords", "count"),
    ("core.synth.ms", "ms"),
    ("core.synth.gates", "count"),
    ("core.order.ms", "ms"),
    ("core.order.groups", "count"),
    ("circuit.peephole.ms", "ms"),
    ("circuit.peephole.gates_in", "count"),
    ("circuit.peephole.gates_removed", "count"),
    ("router.layout.ms", "ms"),
    ("router.route.ms", "ms"),
    ("router.attempts", "count"),
    ("router.swaps", "count"),
    ("circuit.rebase.ms", "ms"),
    ("cache.lookup.ms", "ms"),
    ("cache.bind.ms", "ms"),
    ("cache.program_hit_rate", "ratio"),
    ("cache.group_hit_rate", "ratio"),
    ("cache.entries", "count"),
    ("serve.parse.ms", "ms"),
    ("serve.execute.ms", "ms"),
    ("serve.render.ms", "ms"),
    ("serve.reply_bytes", "bytes"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.overhead.ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// A printed metric: name, unit, value.
type Metric = (&'static str, &'static str, f64);

/// One invocation's parameters.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// What one run measured.
#[derive(Default)]
pub struct Report {
    pub setup_s: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    pub timed_s: f64,
    pub attempted: u64,
    /// One entry per failed request or failed check.
    pub failures: Vec<String>,
    /// Output quality per distinct program.
    pub quality: BTreeMap<String, Quality>,
    pub peak_rss_mb: f64,
    pub layers: BTreeMap<&'static str, f64>,
    /// Deterministic lines the cross-run repeat check compares.
    pub repeat: Vec<String>,
    pub info: Vec<String>,
}

impl Report {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Turns the spans into per-layer self times per request, sums the work
    /// counts over distinct requests, and writes the trace out.
    pub fn finish_trace(
        &mut self,
        tracer: &Tracer,
        counts: &BTreeMap<String, Counts>,
        requests: usize,
        run: &Run,
    ) -> Result<(), String> {
        for (layer, ms) in tracer.self_ms() {
            let metric = format!("{layer}.ms");
            if let Some((name, _)) = PER_LAYER.iter().find(|(n, _)| *n == metric) {
                self.layer(name, ms / requests.max(1) as f64);
            }
        }
        let mut total = Counts::new();
        for (key, c) in counts {
            self.repeat.push(format!("{key}: {c:?}"));
            for (name, v) in c {
                trace::add(&mut total, name, *v);
            }
        }
        for (name, v) in &total {
            self.layer(name, *v as f64);
        }
        let path = run
            .out_dir
            .join(format!("trace-{}-seed{}.json", run.workload, run.seed));
        tracer
            .write(&path, &total)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        self.info
            .push(format!("trace written to {}", path.display()));
        Ok(())
    }
}

/// Runs the set-up `SETUP_REPEATS` times, timing each, and keeps the last.
pub fn repeat_setup<T>(
    report: &mut Report,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let t0 = Instant::now();
        let value = setup()?;
        report.setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some(value);
    }
    kept.ok_or_else(|| "no set-up ran".to_string())
}

fn parse_args() -> Result<Run, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| ["workload", "seed", "seconds", "trace"].contains(n))
            .ok_or_else(|| format!("unknown argument `{flag}`"))?;
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = get("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(OUT_DIR),
    })
}

fn end_to_end(report: &Report) -> Vec<f64> {
    let q = report.quality.values();
    let sum = |f: fn(&Quality) -> usize| q.clone().map(f).sum::<usize>() as f64;
    let n = report.quality.len().max(1) as f64;
    let log10_fidelity: f64 = q.clone().map(|x| x.fidelity.log10()).sum();
    vec![
        median(&report.setup_s),
        median(&report.latencies_ms),
        percentile(&report.latencies_ms, 0.9),
        report.latencies_ms.len() as f64 / report.timed_s,
        1.0 - report.failures.len() as f64 / report.attempted.max(1) as f64,
        sum(|x| x.two_qubit),
        sum(|x| x.depth_2q),
        sum(|x| x.two_qubit) / sum(|x| x.logical_2q).max(1.0),
        -log10_fidelity / n,
        report.peak_rss_mb,
    ]
}

/// Compares this run's deterministic lines with the record left by an
/// earlier run of the same executable, workload, seed, length and mode, and
/// leaves a record when there is none.
fn repeat_check(run: &Run, lines: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let path = run.out_dir.join(format!(
        "repeat-{}-seed{}-{}s-trace{}-{:016x}.txt",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        stats::fnv1a(&bytes)
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier == lines => Ok(()),
        Ok(_) => Err(format!(
            "quality or work counts differ from the earlier run recorded in {}",
            path.display()
        )),
        Err(_) => std::fs::write(&path, lines).map_err(|e| format!("{}: {e}", path.display())),
    }
}

fn execute(run: &Run) -> Result<(Report, Vec<Metric>), String> {
    std::fs::create_dir_all(&run.out_dir).map_err(|e| format!("{}: {e}", run.out_dir.display()))?;
    let mut report = Report::default();
    match run.workload.as_str() {
        "logical-uccsd" | "hardware-route" => library::run_compiles(run, &mut report)?,
        "vqe-rebind" => library::run_rebind(run, &mut report)?,
        _ => serve::run_serve(run, &mut report)?,
    }
    let mut lines = String::new();
    for (key, q) in &report.quality {
        let _ = writeln!(lines, "{key}: {}", q.fingerprint());
    }
    for line in &report.repeat {
        let _ = writeln!(lines, "{line}");
    }
    if let Err(e) = repeat_check(run, &lines) {
        report.failures.push(e);
    }
    let metrics = if run.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, report.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end(&report))
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    Ok((report, metrics))
}

fn main() -> ExitCode {
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("phoenix-benchmark: refusing to run with {var} set; it changes what is measured");
        return ExitCode::from(2);
    }
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("phoenix-benchmark: {e}");
            eprintln!(
                "usage: phoenix-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (report, metrics) = match execute(&run) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("phoenix-benchmark: {} aborted: {e}", run.workload);
            return ExitCode::from(1);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={nproc} rustc=\"{}\"",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        env!("BENCH_RUSTC_VERSION")
    );
    println!(
        "# requests={} distinct_programs={} setup_runs={}",
        report.latencies_ms.len(),
        report.quality.len(),
        report.setup_s.len()
    );
    for line in &report.info {
        println!("# {line}");
    }
    for failure in report.failures.iter().take(20) {
        println!("# FAILED: {failure}");
    }
    let failed = report.failures.len() as u64;
    let attempted = report.attempted.max(1);
    println!("# error_rate {} ratio", failed as f64 / attempted as f64);
    let mut json = Vec::new();
    let mut finite = true;
    for (name, unit, value) in &metrics {
        println!("{name} {value} {unit}");
        finite &= value.is_finite();
        let value = if value.is_finite() { *value } else { 0.0 };
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && finite,
        json.join(", ")
    );
    ExitCode::SUCCESS
}
