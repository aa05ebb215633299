//! Split-path (structure/bind + cache) equivalence and gating tests.
//!
//! The contract under test: attaching a [`CompileCache`] never changes a
//! compilation's output — cold (cache miss), warm (cache hit), and legacy
//! (no cache) runs are bit-for-bit identical — and caching silently
//! disengages for requests it must not serve (pass budgets, verification).
//! `bind()` is `run()` on the rebound program, so it keeps every guarantee
//! `run()` gives: verification, the anytime depth, and one pass budget.

use std::sync::Arc;
use std::time::Duration;

use phoenix_core::{
    CompileCache, CompileOutcome, CompileRequest, DeviceRegistry, PhoenixError, PhoenixOptions,
    Target, EVENT_VERIFIED,
};
use phoenix_pauli::PauliString;

fn terms(labels: &[&str]) -> Vec<(PauliString, f64)> {
    labels
        .iter()
        .enumerate()
        .map(|(i, l)| (l.parse().unwrap(), 0.013 * (i + 1) as f64))
        .collect()
}

const PROGRAM: &[&str] = &["ZYY", "ZZY", "XYY", "XZY", "IZZ", "XIX", "ZZI", "YIY"];

#[test]
fn cached_run_matches_legacy_bit_for_bit_across_targets() {
    let t = terms(PROGRAM);
    let registry = DeviceRegistry::new();
    let mut targets = vec![
        Target::Logical,
        Target::Cnot,
        Target::Su4,
        Target::CnotViaKak,
    ];
    for spec in ["line:3@cnot", "line:3@su4", "line:3@kak"] {
        targets.push(Target::Device(registry.build(spec).unwrap()));
    }
    for target in targets {
        let legacy = CompileRequest::new(3, &t)
            .target(target.clone())
            .trace(true)
            .run()
            .unwrap();
        let cache = Arc::new(CompileCache::new());
        let cold = CompileRequest::new(3, &t)
            .target(target.clone())
            .cache(&cache)
            .trace(true)
            .run()
            .unwrap();
        // A miss runs every pass of the list, just split around the bind.
        assert_eq!(
            cold.trace.as_ref().unwrap().pass_names(),
            legacy.trace.as_ref().unwrap().pass_names(),
            "miss trace @ {target:?}"
        );
        let warm = CompileRequest::new(3, &t)
            .target(target.clone())
            .cache(&cache)
            .run()
            .unwrap();
        for (name, out) in [("cold", &cold), ("warm", &warm)] {
            assert_eq!(out.circuit, legacy.circuit, "{name} circuit @ {target:?}");
            assert_eq!(
                out.term_order, legacy.term_order,
                "{name} order @ {target:?}"
            );
            assert_eq!(
                out.num_groups, legacy.num_groups,
                "{name} groups @ {target:?}"
            );
            assert_eq!(
                out.hardware, legacy.hardware,
                "{name} hardware @ {target:?}"
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.program_misses, 1, "@ {target:?}");
        assert_eq!(stats.program_hits, 1, "@ {target:?}");
    }
}

#[test]
fn rebinding_new_angles_matches_a_fresh_compile() {
    let strings: Vec<&str> = PROGRAM.to_vec();
    let cache = Arc::new(CompileCache::new());
    for sweep_point in 0..12 {
        let t: Vec<(PauliString, f64)> = strings
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let angle = ((sweep_point * 7 + i * 3) as f64).sin() * 0.4;
                (l.parse().unwrap(), angle)
            })
            .collect();
        let warm = CompileRequest::new(3, &t).cache(&cache).run().unwrap();
        let fresh = CompileRequest::new(3, &t).run().unwrap();
        assert_eq!(warm.circuit, fresh.circuit, "sweep point {sweep_point}");
        assert_eq!(
            warm.term_order, fresh.term_order,
            "sweep point {sweep_point}"
        );
    }
    // One structure compile served the whole sweep: angles differ between
    // points but the angle-erased canonical IR (and so the key) does not.
    let stats = cache.stats();
    assert_eq!(stats.program_misses, 1);
    assert_eq!(stats.program_hits, 11);
}

#[test]
fn bind_substitutes_explicit_angles() {
    let t = terms(PROGRAM);
    let cache = Arc::new(CompileCache::new());
    let angles: Vec<f64> = (0..t.len()).map(|i| 0.05 * (i as f64 + 1.0)).collect();
    let bound = CompileRequest::new(3, &t)
        .cache(&cache)
        .bind(&angles)
        .unwrap();
    // Equivalent to compiling a program that had these coefficients.
    let explicit: Vec<(PauliString, f64)> = t
        .iter()
        .zip(&angles)
        .map(|((p, _), a)| (p.clone(), *a))
        .collect();
    let fresh = CompileRequest::new(3, &explicit).run().unwrap();
    assert_eq!(bound.circuit, fresh.circuit);
    assert_eq!(bound.term_order, fresh.term_order);
}

#[test]
fn bind_rejects_malformed_angle_vectors() {
    let t = terms(PROGRAM);
    let cache = Arc::new(CompileCache::new());
    let err = CompileRequest::new(3, &t)
        .cache(&cache)
        .bind(&[0.1])
        .unwrap_err();
    assert!(matches!(err, PhoenixError::Bind(_)), "{err}");
    let bad: Vec<f64> = (0..t.len()).map(|_| f64::NAN).collect();
    let err = CompileRequest::new(3, &t)
        .cache(&cache)
        .bind(&bad)
        .unwrap_err();
    assert!(matches!(err, PhoenixError::Bind(_)), "{err}");
}

#[test]
fn structure_artifact_is_reusable_directly() {
    let t = terms(PROGRAM);
    let cache = Arc::new(CompileCache::new());
    let art = CompileRequest::new(3, &t)
        .cache(&cache)
        .structure()
        .unwrap();
    assert_eq!(art.num_slots(), t.len());
    let angles: Vec<f64> = t.iter().map(|(_, c)| *c).collect();
    let bound = art.bind(&angles).unwrap();
    let legacy = CompileRequest::new(3, &t).run().unwrap();
    assert_eq!(bound.circuit, legacy.circuit);
    assert_eq!(bound.term_order, legacy.term_order);
    // The artifact landed in the program cache, so a subsequent run() hits.
    let _ = CompileRequest::new(3, &t).cache(&cache).run().unwrap();
    assert_eq!(cache.stats().program_hits, 1);
}

#[test]
fn budget_and_verify_requests_bypass_the_cache() {
    let t = terms(PROGRAM);
    let cache = Arc::new(CompileCache::new());
    let budgeted = PhoenixOptions {
        pass_budget: Some(std::time::Duration::from_secs(3600)),
        ..PhoenixOptions::default()
    };
    let _ = CompileRequest::new(3, &t)
        .options(budgeted)
        .cache(&cache)
        .run()
        .unwrap();
    let verified = PhoenixOptions {
        verify: true,
        ..PhoenixOptions::default()
    };
    let _ = CompileRequest::new(3, &t)
        .options(verified)
        .cache(&cache)
        .run()
        .unwrap();
    let stats = cache.stats();
    assert_eq!(stats.program_hits + stats.program_misses, 0);
    assert_eq!(stats.group_hits + stats.group_misses, 0);
    assert_eq!(cache.num_programs(), 0);
}

#[test]
fn different_options_key_different_artifacts() {
    let t = terms(PROGRAM);
    let cache = Arc::new(CompileCache::new());
    let _ = CompileRequest::new(3, &t).cache(&cache).run().unwrap();
    let no_order = PhoenixOptions {
        enable_ordering: false,
        ..PhoenixOptions::default()
    };
    let out = CompileRequest::new(3, &t)
        .options(no_order.clone())
        .cache(&cache)
        .run()
        .unwrap();
    // Second options set missed (different fingerprint) and produced the
    // same output as its own legacy run.
    assert_eq!(cache.stats().program_misses, 2);
    let legacy = CompileRequest::new(3, &t).options(no_order).run().unwrap();
    assert_eq!(out.circuit, legacy.circuit);
}

#[test]
fn group_cache_is_shared_across_programs() {
    // Two different programs containing the same group: the second program
    // misses at program level but reuses the group artifact.
    let a = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
    let mut b = terms(&["ZYY", "ZZY", "XYY", "XZY"]);
    b.push(("ZII".parse().unwrap(), 0.2));
    let cache = Arc::new(CompileCache::new());
    let _ = CompileRequest::new(3, &a).cache(&cache).run().unwrap();
    let out_b = CompileRequest::new(3, &b).cache(&cache).run().unwrap();
    let stats = cache.stats();
    assert_eq!(stats.program_misses, 2);
    assert!(stats.group_hits >= 1, "stats: {stats:?}");
    let legacy_b = CompileRequest::new(3, &b).run().unwrap();
    assert_eq!(out_b.circuit, legacy_b.circuit);
    assert_eq!(out_b.term_order, legacy_b.term_order);
}

#[test]
fn obs_report_carries_cache_counters_and_bind_span() {
    let t = terms(PROGRAM);
    let cache = Arc::new(CompileCache::new());
    let cold = CompileRequest::new(3, &t)
        .target(Target::Cnot)
        .cache(&cache)
        .obs(true)
        .run()
        .unwrap();
    let report = cold.obs.unwrap();
    assert_eq!(report.metrics.counter("cache_program_misses"), Some(1));
    assert!(report.root.find("bind").is_some());
    let warm = CompileRequest::new(3, &t)
        .target(Target::Cnot)
        .cache(&cache)
        .obs(true)
        .trace(true)
        .run()
        .unwrap();
    let report = warm.obs.unwrap();
    assert_eq!(report.metrics.counter("cache_program_hits"), Some(1));
    // On a hit the trace honestly shows only what ran: the lowering.
    let trace = warm.trace.unwrap();
    let names: Vec<&str> = trace.passes.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["peephole"]);
}

/// Fig. 1(b) plus two more groups, with the angles of a later sweep point.
fn rebind_case() -> (Vec<(PauliString, f64)>, Vec<f64>) {
    let t = terms(&["ZYY", "ZZY", "XYY", "XZY", "IZZ", "XIX"]);
    let angles = (0..t.len()).map(|i| 0.07 * (i as f64 + 1.0)).collect();
    (t, angles)
}

/// `run()` on the program `bind()` would see: `t` with `angles` as its
/// coefficients.
fn run_rebound(
    t: &[(PauliString, f64)],
    angles: &[f64],
    options: PhoenixOptions,
) -> CompileOutcome {
    let rebound: Vec<(PauliString, f64)> = t
        .iter()
        .zip(angles)
        .map(|((p, _), a)| (p.clone(), *a))
        .collect();
    CompileRequest::new(3, &rebound)
        .options(options)
        .target(Target::Cnot)
        .trace(true)
        .run()
        .unwrap()
}

fn verified_events(out: &CompileOutcome) -> usize {
    out.trace
        .as_ref()
        .unwrap()
        .events_of_kind(EVENT_VERIFIED)
        .len()
}

#[test]
fn bind_verifies_every_boundary_like_run() {
    let (t, angles) = rebind_case();
    let options = PhoenixOptions {
        verify: true,
        ..PhoenixOptions::default()
    };
    let run = run_rebound(&t, &angles, options.clone());
    assert_eq!(verified_events(&run), 5);
    let cache = Arc::new(CompileCache::new());
    for request in [
        CompileRequest::new(3, &t),
        CompileRequest::new(3, &t).cache(&cache),
    ] {
        let bound = request
            .options(options.clone())
            .target(Target::Cnot)
            .trace(true)
            .bind(&angles)
            .unwrap();
        assert_eq!(verified_events(&bound), verified_events(&run));
        assert_eq!(bound.circuit, run.circuit);
    }
    assert_eq!(cache.num_programs(), 0);
}

#[test]
fn bind_reports_the_anytime_depth_like_run() {
    let (t, angles) = rebind_case();
    let options = PhoenixOptions {
        pass_budget: Some(Duration::from_secs(60)),
        anytime_rounds: Some(2),
        ..PhoenixOptions::default()
    };
    let run = run_rebound(&t, &angles, options.clone());
    assert_eq!(run.depth_reached, Some(2));
    let bound = CompileRequest::new(3, &t)
        .options(options)
        .target(Target::Cnot)
        .bind(&angles)
        .unwrap();
    assert_eq!(bound.depth_reached, Some(2));
    assert_eq!(bound.circuit, run.circuit);
}

/// `bind()` runs the whole pass list under one budget: one pass manager,
/// so one start time and one deadline. Its trace's cumulative timings are
/// then monotone across the seam between the structure and lowering
/// halves; a lowering half run by its own manager, with its own deadline,
/// would restart the clock there.
#[test]
fn bind_runs_one_pass_list_under_one_deadline() {
    let (t, angles) = rebind_case();
    let options = PhoenixOptions {
        pass_budget: Some(Duration::from_secs(60)),
        anytime_rounds: Some(2),
        ..PhoenixOptions::default()
    };
    let bound = CompileRequest::new(3, &t)
        .options(options)
        .target(Target::Cnot)
        .trace(true)
        .bind(&angles)
        .unwrap();
    let trace = bound.trace.unwrap();
    assert_eq!(trace.pass_names(), ["group", "anytime-deepen", "peephole"]);
    for pair in trace.passes.windows(2) {
        assert!(
            pair[1].cumulative_millis >= pair[0].cumulative_millis,
            "clock restarted between `{}` and `{}`",
            pair[0].name,
            pair[1].name
        );
    }
}
