//! `serve-mixed`: a fresh `phoenixd` subprocess on loopback, driven by two
//! closed-loop client connections. The traced variant sends the same
//! frames over one connection and replays each one in-process through
//! `protocol::parse_request`, `execute_spec` and `protocol::render`, on a
//! process-local cache that mirrors the daemon's.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use phoenix_core::{CompileCache, CompileOutcome, CompileRequest, Target};
use phoenix_hamil::uccsd::table1_suite;
use phoenix_mathkit::Xoshiro256;
use phoenix_serve::protocol::{self, parse_request};
use phoenix_serve::{execute_spec, Request, ServerConfig};
use phoenix_verify::gen::{Family, RandomProgramGen};
use serde_json::Value;

use crate::check::{self, Quality, SpotCheck};
use crate::library::{pinned_options, reference_device};
use crate::replay::Terms;
use crate::stats::{median, peak_rss_mb};
use crate::trace::Tracer;
use crate::{Report, Run};

/// The repeated structures (Table-I, frozen orbitals, 10–12 qubits).
const STRUCTURES: [&str; 4] = ["LiH_frz_JW", "LiH_frz_BK", "NH_frz_JW", "NH_frz_BK"];
/// Targets a repeated structure is compiled to, drawn per frame.
const TARGETS: [&str; 2] = ["cnot", "logical"];
/// Client connections of the untraced run.
const CLIENTS: usize = 2;
/// Daemon worker threads.
const WORKERS: usize = 2;
/// Frame mix, in percent: pings, then never-seen programs; the rest are
/// repeated structures with fresh coefficients.
const PING_PERCENT: usize = 5;
const FRESH_PERCENT: usize = 15;
/// Shape of a never-seen program.
const FRESH_QUBITS: usize = 8;
const FRESH_TERMS: usize = 40;
/// The daemon keeps at most this many queue-wait samples.
const MAX_WAIT_SAMPLES: u64 = 100_000;

/// The repeated structures: name, width and Table-I terms.
type Structures = Arc<Vec<(String, usize, Terms)>>;

/// A running `phoenixd`, stopped (SIGTERM, then waited for) on drop.
struct Daemon {
    child: Child,
    addr: String,
    report_path: PathBuf,
}

impl Daemon {
    fn spawn(out_dir: &std::path::Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let path = exe.with_file_name("phoenixd");
        let report_path = out_dir.join(format!("phoenixd-{}.json", std::process::id()));
        let mut child = Command::new(&path)
            .args(["--tcp", "127.0.0.1:0", "--workers", &WORKERS.to_string()])
            .arg("--report")
            .arg(&report_path)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", path.display()))?;
        let mut banner = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut banner));
        let daemon = |addr: String, child| Daemon {
            child,
            addr,
            report_path: report_path.clone(),
        };
        match (read, banner.trim().strip_prefix("listening on ")) {
            (Some(Ok(_)), Some(addr)) => Ok(daemon(addr.to_string(), child)),
            _ => {
                drop(daemon(String::new(), child));
                Err(format!(
                    "phoenixd did not announce its port: `{}`",
                    banner.trim()
                ))
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends SIGTERM and waits for the graceful drain; returns the daemon's
    /// final report.
    fn stop(mut self) -> Result<Value, String> {
        self.terminate()?;
        let text = std::fs::read_to_string(&self.report_path)
            .map_err(|e| format!("{}: {e}", self.report_path.display()))?;
        let _ = std::fs::remove_file(&self.report_path);
        serde_json::from_str(text.trim()).map_err(|e| format!("daemon report: {e}"))
    }

    fn terminate(&mut self) -> Result<(), String> {
        if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
            return Ok(());
        }
        let status = Command::new("kill")
            .args(["-TERM", &self.pid()])
            .status()
            .map_err(|e| format!("kill: {e}"))?;
        if !status.success() {
            self.child.kill().map_err(|e| e.to_string())?;
        }
        self.child.wait().map_err(|e| e.to_string())?;
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.terminate().is_err() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.report_path);
    }
}

/// One loopback connection speaking the line protocol.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Sends one frame and reads one reply line.
    fn round_trip(&mut self, frame: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{frame}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One generated frame and the key of the distinct program it carries.
struct Frame {
    key: String,
    text: String,
}

/// Seeded frame source of one client connection.
struct Frames {
    rng: Xoshiro256,
    seed: u64,
    client: usize,
    next_id: u64,
    structures: Structures,
}

impl Frames {
    fn next(&mut self) -> Frame {
        self.next_id += 1;
        let id = self.next_id;
        let roll = self.rng.next_below(100);
        if roll < PING_PERCENT {
            return Frame {
                key: "ping".to_string(),
                text: format!("{{\"op\":\"ping\",\"id\":{id}}}"),
            };
        }
        let (key, n, terms, target) = if roll < PING_PERCENT + FRESH_PERCENT {
            let seed = self.seed ^ ((self.client as u64) << 48) ^ (id << 8) ^ 0xf5e5;
            let p =
                RandomProgramGen::new(seed).program(Family::UccsdLike, FRESH_QUBITS, FRESH_TERMS);
            (
                format!("fresh-{}-{id}", self.client),
                p.num_qubits,
                p.terms,
                "cnot",
            )
        } else {
            let (name, n, terms) = &self.structures[self.rng.next_below(self.structures.len())];
            let target = TARGETS[self.rng.next_below(TARGETS.len())];
            let terms = terms
                .iter()
                .map(|(p, _)| (p.clone(), self.rng.next_range_f64(-0.1, 0.1)))
                .collect();
            (format!("{name}@{target}"), *n, terms, target)
        };
        let terms: Vec<String> = terms
            .iter()
            .map(|(p, c)| format!("[\"{p}\",{c:?}]"))
            .collect();
        Frame {
            key,
            text: format!(
                "{{\"op\":\"compile\",\"id\":{id},\"qubits\":{n},\"terms\":[{}],\"target\":\"{target}\"}}",
                terms.join(",")
            ),
        }
    }
}

/// What one client connection saw.
#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    failures: Vec<String>,
    /// First frame and reply of every distinct program.
    first: BTreeMap<String, (String, Value)>,
}

/// The counts a compile reply carries, which must match the library.
const REPLY_COUNTS: [&str; 6] = [
    "gates",
    "cnot",
    "two_qubit",
    "depth",
    "depth_2q",
    "num_groups",
];

fn reply_counts(v: &Value) -> Vec<Option<u64>> {
    REPLY_COUNTS
        .iter()
        .map(|k| v.get(k).and_then(Value::as_u64))
        .collect()
}

fn outcome_counts(o: &CompileOutcome) -> Vec<Option<u64>> {
    let c = o.circuit.counts();
    [
        c.total,
        c.cnot,
        c.two_qubit(),
        o.circuit.depth(),
        o.circuit.depth_2q(),
        o.num_groups,
    ]
    .iter()
    .map(|&x| Some(x as u64))
    .collect()
}

/// Sends frames until `seconds` after `start`, timing each round trip, and
/// keeps the first reply of every distinct program; later replies of the
/// same program must repeat its counts.
fn client_loop(conn: &mut Conn, frames: &mut Frames, seconds: f64, start: Instant) -> Tally {
    let mut tally = Tally::default();
    while start.elapsed().as_secs_f64() < seconds {
        let frame = frames.next();
        let t0 = Instant::now();
        let reply = conn.round_trip(&frame.text);
        tally.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let reply = match reply
            .and_then(|r| serde_json::from_str::<Value>(&r).map_err(|e| e.to_string()))
        {
            Ok(v) => v,
            Err(e) => {
                tally.failures.push(format!("{}: {e}", frame.key));
                break;
            }
        };
        let status = reply.get("status").and_then(Value::as_str).unwrap_or("");
        let want = if frame.key == "ping" { "pong" } else { "ok" };
        if status != want {
            tally
                .failures
                .push(format!("{}: reply status `{status}`", frame.key));
            continue;
        }
        if frame.key == "ping" {
            continue;
        }
        match tally.first.get(&frame.key) {
            None => {
                tally.first.insert(frame.key, (frame.text, reply));
            }
            Some((_, first)) if reply_counts(first) == reply_counts(&reply) => {}
            Some(_) => tally.failures.push(format!(
                "{}: reply counts changed between repeats",
                frame.key
            )),
        }
    }
    tally
}

/// Compiles the program of `frame` in-process with the daemon's options.
fn library_compile(frame: &str) -> Result<(usize, Terms, CompileOutcome), String> {
    let Ok(Request::Compile(spec)) = parse_request(frame, 1) else {
        return Err("benchmark frame does not parse as a compile".to_string());
    };
    let out = CompileRequest::new(spec.qubits, &spec.terms)
        .target(spec.target.clone())
        .options(pinned_options())
        .run()
        .map_err(|e| e.to_string())?;
    Ok((spec.qubits, spec.terms, out))
}

fn setup(run: &Run) -> Result<(Daemon, Structures), String> {
    let suite = table1_suite(run.seed);
    let mut structures = Vec::new();
    for name in STRUCTURES {
        let h = suite
            .iter()
            .find(|h| h.name() == name)
            .ok_or_else(|| format!("Table-I suite has no program {name}"))?;
        structures.push((name.to_string(), h.num_qubits(), h.terms().to_vec()));
    }
    let daemon = Daemon::spawn(&run.out_dir)?;
    let mut conn = Conn::open(&daemon.addr)?;
    let pong = conn.round_trip("{\"op\":\"ping\",\"id\":0}")?;
    if !pong.contains("\"pong\"") {
        return Err(format!("first ping got `{pong}`"));
    }
    Ok((daemon, Arc::new(structures)))
}

pub fn run_serve(run: &Run, report: &mut Report) -> Result<(), String> {
    let (daemon, structures) = crate::repeat_setup(report, || setup(run))?;
    let frames = |client| Frames {
        rng: Xoshiro256::seed_from_u64(run.seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9)),
        seed: run.seed,
        client,
        next_id: 0,
        structures: Arc::clone(&structures),
    };
    let tallies = if run.trace {
        vec![traced_loop(run, report, &daemon, frames(0))?]
    } else {
        let start = Instant::now();
        let results: Vec<Result<Tally, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let addr = daemon.addr.clone();
                    let mut frames = frames(c);
                    s.spawn(move || {
                        let mut conn = Conn::open(&addr)?;
                        Ok(client_loop(&mut conn, &mut frames, run.seconds, start))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".to_string()))
                })
                .collect()
        });
        results.into_iter().collect::<Result<Vec<_>, _>>()?
    };
    report.timed_s = run.seconds;
    let mut first: BTreeMap<String, (String, Value)> = BTreeMap::new();
    for t in tallies {
        report.attempted += t.latencies_ms.len() as u64;
        report.latencies_ms.extend(t.latencies_ms);
        report.failures.extend(t.failures);
        for (k, v) in t.first {
            first.entry(k).or_insert(v);
        }
    }
    let mut conn = Conn::open(&daemon.addr)?;
    let stats: Value = serde_json::from_str(&conn.round_trip("{\"op\":\"stats\",\"id\":0}")?)
        .map_err(|e| format!("stats reply: {e}"))?;
    drop(conn);
    let admitted = stats
        .get("admitted")
        .and_then(Value::as_u64)
        .unwrap_or(u64::MAX);
    if admitted >= MAX_WAIT_SAMPLES {
        report.failures.push(format!(
            "daemon admitted {admitted} requests; queue-wait samples stop at {MAX_WAIT_SAMPLES}"
        ));
    }
    if !run.trace {
        report.peak_rss_mb = peak_rss_mb(&daemon.pid())?;
    }
    let final_report = daemon.stop()?;
    for (k, metric) in [
        ("queue_wait_p50_us", "serve.queue_wait_us_p50"),
        ("queue_wait_p99_us", "serve.queue_wait_us_p99"),
    ] {
        let us = final_report
            .get(k)
            .and_then(Value::as_f64)
            .ok_or("daemon report lacks queue waits")?;
        report.info.push(format!("daemon {k} {us}"));
        report.layer(metric, us);
    }
    report.info.push(format!("daemon admitted {admitted}"));
    // Correctness: every distinct program's reply must match the verified
    // library compile of the same frame.
    let mut checks = Vec::new();
    for (key, (frame, reply)) in &first {
        let (n, terms, out) = library_compile(frame).map_err(|e| format!("{key}: {e}"))?;
        if reply_counts(reply) != outcome_counts(&out) {
            report.failures.push(format!(
                "{key}: reply counts differ from the library compile"
            ));
        }
        if !key.starts_with("fresh-") {
            report.quality.insert(
                key.clone(),
                Quality::logical(&out.circuit, &reference_device(n)),
            );
        }
        checks.push(SpotCheck {
            name: key.clone(),
            circuit: out.circuit,
            input: terms,
            order: out.term_order,
        });
    }
    report
        .failures
        .extend(check::run_spot_checks(checks, run.seed));
    // Repeated structures the clients never drew still count towards the
    // quality sums.
    for (name, n, terms) in structures.iter() {
        for target in TARGETS {
            if let Entry::Vacant(slot) = report.quality.entry(format!("{name}@{target}")) {
                let target = match target {
                    "cnot" => Target::Cnot,
                    _ => Target::Logical,
                };
                let out = CompileRequest::new(*n, terms)
                    .target(target)
                    .options(pinned_options())
                    .run()
                    .map_err(|e| e.to_string())?;
                slot.insert(Quality::logical(&out.circuit, &reference_device(*n)));
            }
        }
    }
    Ok(())
}

/// The traced variant, over one connection: each frame goes to the daemon
/// (timed round trip), then runs in-process twice, each time on its own
/// cache of the daemon's capacity: once plain, timed as the untraced
/// reference, and once span by span.
fn traced_loop(
    run: &Run,
    report: &mut Report,
    daemon: &Daemon,
    mut frames: Frames,
) -> Result<Tally, String> {
    let capacity = ServerConfig::default().cache_capacity;
    let plain_cache = Arc::new(CompileCache::with_capacity(capacity));
    let cache = Arc::new(CompileCache::with_capacity(capacity));
    let mut conn = Conn::open(&daemon.addr)?;
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let mut traced_ms = Vec::new();
    let mut plain_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut reply_bytes = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < run.seconds {
        let frame = frames.next();
        let t0 = Instant::now();
        let reply = conn.round_trip(&frame.text)?;
        let round_trip_ms = t0.elapsed().as_secs_f64() * 1e3;
        tally.latencies_ms.push(round_trip_ms);
        let t1 = Instant::now();
        let plain = in_process(&frame.text, &plain_cache)?;
        plain_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        tracer.next_request();
        tracer.begin("request");
        let request = tracer.span("serve.parse", || parse_request(&frame.text, 1));
        let value = match request {
            Ok(Request::Compile(spec)) => tracer.span("serve.execute", || {
                execute_spec(&spec, Some(&cache), None, None)
            }),
            Ok(Request::Ping { id }) => protocol::pong_reply(id),
            _ => return Err(format!("{}: benchmark frame did not parse", frame.key)),
        };
        let rendered = tracer.span("serve.render", || protocol::render(&value));
        let ms = tracer.end();
        traced_ms.push(ms);
        overhead_ms.push(round_trip_ms - ms);
        reply_bytes += rendered.len();
        let daemon_reply: Value = serde_json::from_str(&reply).map_err(|e| e.to_string())?;
        if reply_counts(&daemon_reply) != reply_counts(&value)
            || reply_counts(&plain) != reply_counts(&value)
        {
            return Err(format!(
                "{}: in-process replay differs from the daemon's reply",
                frame.key
            ));
        }
        if frame.key != "ping" {
            tally
                .first
                .entry(frame.key)
                .or_insert((frame.text, daemon_reply));
        }
    }
    let stats = cache.stats();
    report.layer("cache.program_hit_rate", stats.program_hit_rate());
    report.layer("cache.group_hit_rate", stats.group_hit_rate());
    report.layer(
        "cache.entries",
        (cache.num_programs() + cache.num_groups()) as f64,
    );
    report.layer(
        "serve.reply_bytes",
        reply_bytes as f64 / traced_ms.len().max(1) as f64,
    );
    report.layer("serve.overhead.ms", median(&overhead_ms));
    report.layer("trace.overhead_ms", median(&traced_ms) - median(&plain_ms));
    report.finish_trace(&tracer, &BTreeMap::new(), traced_ms.len(), run)?;
    Ok(tally)
}

/// The daemon's per-frame work, in-process and without spans.
fn in_process(frame: &str, cache: &Arc<CompileCache>) -> Result<Value, String> {
    let value = match parse_request(frame, 1) {
        Ok(Request::Compile(spec)) => execute_spec(&spec, Some(cache), None, None),
        Ok(Request::Ping { id }) => protocol::pong_reply(id),
        _ => return Err("benchmark frame did not parse".to_string()),
    };
    std::hint::black_box(protocol::render(&value));
    Ok(value)
}
