//! End-to-end training step time: overlapped vs serialized collectives.
//!
//! The streaming-executor payoff in one number: for every preset x model
//! pair, one training iteration is simulated twice over the same Blink
//! backend — serialized (compute runs to completion, then every gradient
//! bucket's AllReduce drains back-to-back) and overlapped (buckets issue
//! the moment backward produces them via `Communicator::run_streamed`,
//! contending on the simulated links while compute continues). Both sides
//! are *simulated* timings — deterministic functions of the topology,
//! calibration and bucket schedule — so the recorded trajectory is
//! machine-independent and the comparison needs no wall-clock warmups.
//!
//! Two bucket regimes run per preset: the frameworks' ~25 MB default, and a
//! small-bucket regime (ResNet18 at 2 MiB) where buckets fall under the
//! communicator's fusion threshold and batch into segmented programs.
//! Every overlapped schedule is replayed through the value-level oracle
//! (`run_streamed_checked`), including per-constituent window checks for
//! fused groups — an overlap win that lost a contribution fails the run.
//!
//! Without arguments: measures and writes `BENCH_overlap.json`.
//!
//! With `--check`: re-measures and enforces, on every runner (all gates are
//! deterministic):
//!   * overlapped strictly beats serialized on every preset x model row;
//!   * every overlapped/fused schedule passes the semantics oracle;
//!   * the small-bucket rows actually fused at least one program;
//!   * the oracle's fresh communicator lowers nothing afresh: the training
//!     backend's communicator already lowered every group on the same
//!     process-wide plan store, and a lowering is a function of its key, so
//!     the store's lowering misses stay put across the oracle's run;
//!   * re-running each row's overlapped step, twice, lowers and compiles
//!     nothing new: every group's program and compiled form are the first
//!     run's `Arc`s, kept in the plan store's lowering tier, and the finish
//!     time is bit-identical;
//!   * each row's `overlapped_us`, `serialized_us` and `comm_us` equal the
//!     recording bit for bit: they are pure functions of the lowered
//!     programs and the engine, and the JSON round-trips every `f64`
//!     exactly.
//!
//! Exits non-zero on regression.

use blink_core::{global_plan_cache, CollectiveKind, Communicator};
use blink_topology::presets::{dgx1v, dgx2};
use blink_topology::{GpuId, Topology};
use blink_train::{BlinkBackend, DnnModel, TrainerConfig, TrainingSimulator};
use serde::Serialize;
use std::sync::Arc;

/// Bucket size of the small-bucket (fusion) regime.
const SMALL_BUCKET_BYTES: u64 = 2 << 20;

struct Preset {
    name: &'static str,
    machine: Topology,
    gpus: usize,
}

fn presets() -> Vec<Preset> {
    vec![
        Preset {
            name: "dgx1v",
            machine: dgx1v(),
            gpus: 8,
        },
        Preset {
            name: "dgx2",
            machine: dgx2(),
            gpus: 16,
        },
    ]
}

#[derive(Serialize)]
struct Row {
    machine: String,
    model: String,
    gpus: usize,
    bucket_bytes: u64,
    buckets: usize,
    /// Fused (multi-bucket) programs the streamed schedule batched.
    fused_programs: usize,
    compute_us: f64,
    comm_us: f64,
    serialized_us: f64,
    overlapped_us: f64,
    /// serialized / overlapped step time.
    speedup: f64,
    /// Whether the small-bucket fusion gate applies to this row.
    fusion_gated: bool,
    /// The overlapped schedule (and every fused constituent) passed the
    /// value-level oracle.
    conformant: bool,
    /// Lowering-tier misses the oracle's fresh communicator added to the
    /// process-wide plan store the backend lowered through (0: it took every
    /// group's lowering from the store).
    oracle_fresh_lowerings: u64,
    /// Re-running the overlapped step, twice, lowered and compiled nothing
    /// new (every group's program and compiled form are the first run's
    /// memoised ones), and both repeats finished at the bit-identical time.
    rerun_memoised: bool,
}

#[derive(Serialize)]
struct Config {
    default_bucket_bytes: u64,
    small_bucket_bytes: u64,
}

#[derive(Serialize)]
struct Report {
    config: Config,
    rows: Vec<Row>,
}

fn run_case(preset: &Preset, model: &DnnModel, config: TrainerConfig, fusion_gated: bool) -> Row {
    let alloc: Vec<GpuId> = (0..preset.gpus).map(GpuId).collect();
    let mut backend =
        BlinkBackend::new(preset.machine.clone(), &alloc).expect("preset allocation plans");
    let mut sim = TrainingSimulator::new(model.clone(), alloc.len(), config, &mut backend);
    let buckets = sim.bucket_issue();
    let serialized = sim.iteration_serialized();
    let overlapped = sim.iteration();

    // Replay the same overlapped schedule through the value-level oracle on
    // a fresh communicator: every group's program must deliver its full
    // collective, and every fused constituent its window of it.
    let mut comm = Communicator::builder(preset.machine.clone())
        .allocation(&alloc)
        .build()
        .expect("preset allocation plans");
    let requests: Vec<(u64, f64)> = buckets.iter().map(|b| (b.bytes, b.ready_us)).collect();
    let store = global_plan_cache();
    let before = store.lowering_stats().1;
    let (run, checks) = comm
        .run_streamed_checked(CollectiveKind::AllReduce, &requests)
        .expect("streamed schedule runs");
    let oracle_fresh_lowerings = store.lowering_stats().1 - before;
    let mut rerun = || {
        comm.run_streamed(CollectiveKind::AllReduce, &requests)
            .expect("streamed schedule re-runs")
    };
    let (first_repeat, second_repeat) = (rerun(), rerun());
    // the repeats take the first run's lowerings, and so its compiled forms
    let memoised = [&first_repeat, &second_repeat].iter().all(|again| {
        again.finish_us.to_bits() == run.finish_us.to_bits()
            && again.groups.len() == run.groups.len()
            && again.groups.iter().zip(&run.groups).all(|(a, b)| {
                Arc::ptr_eq(&a.program, &b.program) && Arc::ptr_eq(&a.compiled, &b.compiled)
            })
    });

    Row {
        machine: preset.name.to_string(),
        model: model.name.clone(),
        gpus: preset.gpus,
        bucket_bytes: config.bucket_bytes,
        buckets: buckets.len(),
        fused_programs: run.fused_programs(),
        compute_us: overlapped.compute_us,
        comm_us: overlapped.comm_us,
        serialized_us: serialized.iteration_us,
        overlapped_us: overlapped.iteration_us,
        speedup: serialized.iteration_us / overlapped.iteration_us,
        fusion_gated,
        conformant: checks.iter().all(|c| c.is_correct()),
        oracle_fresh_lowerings,
        rerun_memoised: memoised,
    }
}

fn measure() -> Report {
    let mut rows = Vec::new();
    for preset in presets() {
        for model in DnnModel::paper_models() {
            rows.push(run_case(&preset, &model, TrainerConfig::default(), false));
        }
        // small-bucket regime: buckets fall under the fusion threshold
        rows.push(run_case(
            &preset,
            &DnnModel::resnet18(),
            TrainerConfig {
                bucket_bytes: SMALL_BUCKET_BYTES,
                ..Default::default()
            },
            true,
        ));
    }
    Report {
        config: Config {
            default_bucket_bytes: TrainerConfig::default().bucket_bytes,
            small_bucket_bytes: SMALL_BUCKET_BYTES,
        },
        rows,
    }
}

/// The simulated times `--check` pins to the recording bit for bit.
const EXACT_FIELDS: [&str; 3] = ["overlapped_us", "serialized_us", "comm_us"];

/// Compares every row's simulated times against the recorded rows; returns
/// one message per row that is missing from the recording or whose time
/// differs from it in any bit.
fn check_against_recorded(recorded: &serde::Value, report: &Report) -> Vec<String> {
    let recorded = recorded.get("rows").and_then(|v| v.as_array());
    let mut failures = Vec::new();
    for row in &report.rows {
        let key = format!("{}/{}/{}B", row.machine, row.model, row.bucket_bytes);
        let rec = recorded.into_iter().flatten().find(|r| {
            r.get("machine").and_then(|v| v.as_str()) == Some(row.machine.as_str())
                && r.get("model").and_then(|v| v.as_str()) == Some(row.model.as_str())
                && r.get("bucket_bytes").and_then(|v| v.as_f64()) == Some(row.bucket_bytes as f64)
        });
        let Some(rec) = rec else {
            failures.push(format!("{key}: BENCH_overlap.json records no such row"));
            continue;
        };
        for (field, now) in
            EXACT_FIELDS
                .into_iter()
                .zip([row.overlapped_us, row.serialized_us, row.comm_us])
        {
            let was = rec.get(field).and_then(|v| v.as_f64());
            if was.map(f64::to_bits) != Some(now.to_bits()) {
                failures.push(format!(
                    "{key}: {field} is {now:?} us, the recording has {was:?}"
                ));
            }
        }
    }
    failures
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let out = measure();

    for row in &out.rows {
        eprintln!(
            "{:<6} {:<9} {:>3}B-bucket x{:<3} serialized {:>9.1} us  overlapped {:>9.1} us  \
             {:>5.3}x  fused {}  conformant {}",
            row.machine,
            row.model,
            row.bucket_bytes >> 20,
            row.buckets,
            row.serialized_us,
            row.overlapped_us,
            row.speedup,
            row.fused_programs,
            row.conformant,
        );
    }

    if check_mode {
        let recorded = std::fs::read_to_string("BENCH_overlap.json")
            .expect("BENCH_overlap.json exists for --check");
        let recorded = serde_json::parse(&recorded).expect("BENCH_overlap.json parses");

        // All gates are deterministic properties of simulated timings, so
        // they are enforced on every runner.
        let mut failures = Vec::new();
        for row in &out.rows {
            let key = format!("{}/{}/{}B", row.machine, row.model, row.bucket_bytes);
            if row.overlapped_us >= row.serialized_us {
                failures.push(format!(
                    "{key}: overlapped step {:.1} us does not beat serialized {:.1} us",
                    row.overlapped_us, row.serialized_us
                ));
            }
            if !row.conformant {
                failures.push(format!(
                    "{key}: overlapped/fused schedule failed the value-level oracle"
                ));
            }
            if row.fusion_gated && row.fused_programs == 0 {
                failures.push(format!(
                    "{key}: small-bucket regime fused no programs (threshold pass inert)"
                ));
            }
            if row.oracle_fresh_lowerings != 0 {
                failures.push(format!(
                    "{key}: the oracle's fresh communicator lowered {} program(s) afresh \
                     that the backend's communicator already lowered",
                    row.oracle_fresh_lowerings
                ));
            }
            if !row.rerun_memoised {
                failures.push(format!(
                    "{key}: re-running the overlapped step lowered or compiled a program \
                     again, or changed its finish time"
                ));
            }
        }
        failures.extend(check_against_recorded(&recorded, &out));

        if failures.is_empty() {
            eprintln!(
                "overlap check passed: every preset overlaps, fuses and conforms, and every \
                 simulated time equals the recording bit for bit"
            );
            return;
        }
        for f in &failures {
            eprintln!("REGRESSION: {f}");
        }
        std::process::exit(1);
    }

    let json = serde_json::to_string_pretty(&out).expect("serializable");
    std::fs::write("BENCH_overlap.json", &json).expect("write BENCH_overlap.json");
    println!("{json}");
}
