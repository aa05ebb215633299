//! Perf-regression harness for stage 2 (Algorithm 1 BSF simplification).
//!
//! Times the incremental [`CostEvaluator`]-backed candidate scan against the
//! naive clone-and-rescore reference on the UCCSD molecules, plus the
//! end-to-end logical compile and the cold-compile vs warm-rebind ratio of
//! the parametric cache, and writes `results/BENCH_stage2.json`.
//! While timing it also cross-checks that both paths produce identical
//! `SimplifiedGroup`s, so a perf run doubles as an exactness check.
//!
//! Usage: `perfbench [--quick] [--trace] [--obs]` — `--quick` runs one
//! repetition of LiH only (the CI smoke configuration); `--trace`/`--obs`
//! file pass traces and observability reports under `results/`.

use std::sync::Arc;

use phoenix_bench::{or_exit, phoenix_compiler, row, write_results, Tracer, SEED};
use phoenix_core::group::group_by_support;
use phoenix_core::simplify::simplify_terms_with;
use phoenix_core::{CompileCache, CompileRequest, SimplifiedGroup, SimplifyOptions, Target};
use phoenix_hamil::{uccsd, Molecule};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    benchmark: String,
    qubits: usize,
    /// Packed `u64` words per Pauli mask at this width (1–2 words stay in
    /// the inline representation; more spill to the heap).
    mask_words: usize,
    groups: usize,
    reps: usize,
    /// Stage-2 wall-clock with the naive clone-and-rescore evaluator ("before").
    stage2_naive_ms: f64,
    /// Stage-2 wall-clock with the incremental evaluator ("after").
    stage2_incremental_ms: f64,
    /// naive / incremental.
    stage2_speedup: f64,
    /// End-to-end CNOT-target compile wall-clock (incremental evaluator).
    end_to_end_ms: f64,
    /// Uncached logical compile wall-clock (best of reps).
    cold_compile_ms: f64,
    /// Warm `bind` through a primed cache (best of reps).
    warm_rebind_ms: f64,
    /// cold / warm.
    rebind_speedup: f64,
}

/// Times an uncached logical compile against a warm `bind` through a primed
/// cache, returning (cold best-of-reps ms, warm best-of-reps ms).
fn time_rebind(
    n: usize,
    terms: &[(phoenix_pauli::PauliString, f64)],
    reps: usize,
    label: &str,
) -> (f64, f64) {
    let mut cold = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let _ = or_exit(CompileRequest::new(n, terms).run(), label);
        cold = cold.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let cache = Arc::new(CompileCache::new());
    let angles: Vec<f64> = terms.iter().map(|(_, c)| c * 0.7 + 1e-3).collect();
    // Prime the cache (structure miss), then time warm rebinds only.
    let _ = or_exit(
        CompileRequest::new(n, terms).cache(&cache).bind(&angles),
        label,
    );
    let mut warm = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let _ = or_exit(
            CompileRequest::new(n, terms).cache(&cache).bind(&angles),
            label,
        );
        warm = warm.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (cold, warm)
}

/// Runs stage 2 over every group, returning (best wall-clock over `reps`
/// runs in ms, outputs of the last run).
fn time_stage2(
    n: usize,
    groups: &[phoenix_core::IrGroup],
    opts: &SimplifyOptions,
    reps: usize,
) -> (f64, Vec<SimplifiedGroup>) {
    let mut best = f64::INFINITY;
    let mut out = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        out = groups
            .iter()
            .map(|g| simplify_terms_with(n, g.terms(), opts))
            .collect();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 3 };
    let molecules: &[(Molecule, bool, &str)] = if quick {
        &[(Molecule::lih(), true, "LiH_frz")]
    } else {
        &[
            (Molecule::lih(), true, "LiH_frz"),
            (Molecule::nh(), true, "NH_frz"),
            (Molecule::h2o(), false, "H2O_cmplt"),
        ]
    };

    println!("# Stage-2 perf regression: naive vs incremental candidate evaluation\n");
    println!(
        "{}",
        row(&[
            "Benchmark",
            "#Qubit",
            "words",
            "#Group",
            "naive ms",
            "incr ms",
            "speedup",
            "e2e ms",
            "cold ms",
            "warm ms",
            "rebind"
        ]
        .map(String::from))
    );
    println!("{}", row(&vec!["---".to_string(); 11]));

    let naive_opts = SimplifyOptions {
        naive_cost: true,
        ..SimplifyOptions::default()
    };
    let incr_opts = SimplifyOptions::default();

    let mut tracer = Tracer::from_env("perfbench");
    let mut rows = Vec::new();
    for &(mol, frozen, label) in molecules {
        let h = uccsd::ansatz(mol, frozen, uccsd::Encoding::JordanWigner, SEED);
        let n = h.num_qubits();
        let groups = group_by_support(n, h.terms());

        let (naive_ms, naive_out) = time_stage2(n, &groups, &naive_opts, reps);
        let (incr_ms, incr_out) = time_stage2(n, &groups, &incr_opts, reps);
        assert_eq!(naive_out, incr_out, "{label}: evaluator paths diverge");

        let mut e2e_ms = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            let request = phoenix_compiler()
                .request(n, h.terms())
                .target(Target::Cnot);
            let _ = or_exit(request.run(), label);
            e2e_ms = e2e_ms.min(t.elapsed().as_secs_f64() * 1e3);
        }
        tracer.record_logical(label, &phoenix_compiler(), n, h.terms());

        let (cold_ms, warm_ms) = time_rebind(n, h.terms(), reps, label);
        let rebind_speedup = cold_ms / warm_ms;

        let speedup = naive_ms / incr_ms;
        println!(
            "{}",
            row(&[
                label.to_string(),
                n.to_string(),
                phoenix_pauli::mask::words_for(n).to_string(),
                groups.len().to_string(),
                format!("{naive_ms:.2}"),
                format!("{incr_ms:.2}"),
                format!("{speedup:.2}x"),
                format!("{e2e_ms:.2}"),
                format!("{cold_ms:.2}"),
                format!("{warm_ms:.4}"),
                format!("{rebind_speedup:.0}x"),
            ])
        );
        rows.push(Row {
            benchmark: label.to_string(),
            qubits: n,
            mask_words: phoenix_pauli::mask::words_for(n),
            groups: groups.len(),
            reps,
            stage2_naive_ms: naive_ms,
            stage2_incremental_ms: incr_ms,
            stage2_speedup: speedup,
            end_to_end_ms: e2e_ms,
            cold_compile_ms: cold_ms,
            warm_rebind_ms: warm_ms,
            rebind_speedup,
        });
    }

    tracer.finish();
    write_results("BENCH_stage2", &rows);
}
