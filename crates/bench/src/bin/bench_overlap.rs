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
//!   * each row's speedup is within `CHECK_TOLERANCE` of the recording.
//!
//! Exits non-zero on regression.

use blink_core::{CollectiveKind, Communicator};
use blink_topology::presets::{dgx1v, dgx2};
use blink_topology::{GpuId, Topology};
use blink_train::{BlinkBackend, DnnModel, TrainerConfig, TrainingSimulator};
use serde::Serialize;

/// A measured speedup may drift this far below the recorded trajectory
/// before `--check` fails. Simulated timings are deterministic, so the band
/// only absorbs intentional recalibrations, not runner hardware.
const CHECK_TOLERANCE: f64 = 1.25;
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
}

#[derive(Serialize)]
struct Config {
    default_bucket_bytes: u64,
    small_bucket_bytes: u64,
    check_tolerance: f64,
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
    let (run, checks) = comm
        .run_streamed_checked(CollectiveKind::AllReduce, &requests)
        .expect("streamed schedule runs");

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
            check_tolerance: CHECK_TOLERANCE,
        },
        rows,
    }
}

/// Compares measured per-row speedups against the recorded trajectory;
/// returns (row key, recorded, measured) for each row that fell more than
/// `CHECK_TOLERANCE`x below its recording.
fn check_against_recorded(recorded: &serde::Value, report: &Report) -> Vec<(String, f64, f64)> {
    let mut failures = Vec::new();
    let Some(recorded) = recorded.get("rows").and_then(|v| v.as_array()) else {
        return failures;
    };
    for row in &report.rows {
        let rec = recorded.iter().find(|r| {
            r.get("machine").and_then(|v| v.as_str()) == Some(row.machine.as_str())
                && r.get("model").and_then(|v| v.as_str()) == Some(row.model.as_str())
                && r.get("bucket_bytes").and_then(|v| v.as_f64()) == Some(row.bucket_bytes as f64)
        });
        let Some(rec) = rec.and_then(|r| r.get("speedup")).and_then(|v| v.as_f64()) else {
            continue; // row not recorded yet — nothing to regress against
        };
        if row.speedup < rec / CHECK_TOLERANCE {
            failures.push((
                format!("{}/{}/{}B", row.machine, row.model, row.bucket_bytes),
                rec,
                row.speedup,
            ));
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
        }
        for (key, rec, measured) in check_against_recorded(&recorded, &out) {
            failures.push(format!(
                "{key}: overlap speedup {measured:.3}x, more than {CHECK_TOLERANCE}x below \
                 the recorded {rec:.3}x"
            ));
        }

        if failures.is_empty() {
            eprintln!("overlap check passed: every preset overlaps, fuses and conforms");
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
