//! The repository benchmark: three workloads of the Blink reproduction, each
//! measured end to end with tracing off, and layer by layer in a separate
//! traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload fleet|comm_init|train] [--seed N] [--seconds S] \
//!     [--trace [0|1]] [--smoke]
//! ```
//!
//! Without `--workload` every workload runs in turn. Metrics go to stderr
//! by name with their units and sample counts; the last stdout line of each
//! workload is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. `BENCHMARK.md` documents the workloads and metrics.

mod alloc;
mod comm_init;
mod fleet;
mod metrics;
mod replay;
mod speed;
mod stats;
mod trace;
mod train;
mod workload;

use metrics::{add, Values, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{SpanId, Tracer};
use workload::{Outcome, Problem, Round, Settings};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Longest run accepted: the work (and the memory for its inputs) grows
/// with `--seconds`.
const MAX_SECONDS: u64 = 3600;
/// The tail percentile reported when enough samples lie beyond it.
const TAIL_PCT: f64 = 99.0;

const USAGE: &str = "usage: benchmark [--workload fleet|comm_init|train] [--seed N] \
                     [--seconds S] [--trace [0|1]] [--smoke]";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Fleet,
    CommInit,
    Train,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Fleet, Workload::CommInit, Workload::Train];

    fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::CommInit => "comm_init",
            Workload::Train => "train",
        }
    }

    /// What the latency samples of this workload time.
    fn latency_of(self) -> &'static str {
        match self {
            Workload::Fleet => "time to first collective",
            Workload::CommInit => "build + first AllReduce",
            Workload::Train => "training iteration",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    settings: Settings,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        settings: Settings {
            seed: 42,
            seconds: 20,
            smoke: false,
        },
        trace: false,
    };
    let mut pending = args.next();
    while let Some(arg) = pending.take() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let w = Workload::ALL.into_iter().find(|w| w.name() == name);
                out.workload = Some(w.ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                out.settings.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                out.settings.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=MAX_SECONDS).contains(s))
                    .ok_or(format!("--seconds takes 1 to {MAX_SECONDS}, not {v}"))?;
            }
            "--smoke" => out.settings.smoke = true,
            "--trace" => {
                out.trace = true;
                match args.next() {
                    Some(v) if v == "0" => out.trace = false,
                    Some(v) if v == "1" => {}
                    other => pending = other,
                }
                continue;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        pending = args.next();
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    pin_to_one_cpu();
    let workloads = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    for w in workloads {
        match run(w, &args) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("benchmark {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Pins the process to the last CPU it may run on with `taskset` while it
/// has one thread, so every thread it starts inherits the pin and
/// `ScratchPool` plans on one worker. On a 2-vCPU VM sharing its host, the
/// two-worker fan-out made runs slower and three to five times noisier run
/// to run. Without `taskset` the run goes on unpinned.
fn pin_to_one_cpu() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // `Cpus_allowed_list` reads like `0-3` or `0,2,5-7`; its last number is
    // the highest CPU this process may use
    let allowed = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let list = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
            let last = list.trim().rsplit([',', '-']).next()?;
            last.parse::<usize>().ok()
        });
    let cpu = allowed.unwrap_or(cpus - 1).to_string();
    let pinned = Command::new("taskset")
        .args(["-p", "-c", &cpu, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    match pinned {
        Ok(status) if status.success() => eprintln!("pinned to CPU {cpu} of {cpus}"),
        _ => eprintln!("not pinned: taskset failed; planning fans out over {cpus} CPUs"),
    }
}

/// A workload after set-up, ready to measure.
enum Prepared {
    Fleet(fleet::Fleet),
    CommInit(comm_init::CommInit),
    Train(train::Train),
}

impl Prepared {
    fn setup(w: Workload, s: &Settings) -> Result<Self, String> {
        Ok(match w {
            Workload::Fleet => Prepared::Fleet(fleet::setup(s)),
            Workload::CommInit => Prepared::CommInit(comm_init::setup(s)?),
            Workload::Train => Prepared::Train(train::setup(s)?),
        })
    }

    fn measure(&mut self, tr: &mut Tracer, root: SpanId) -> Outcome {
        match self {
            Prepared::Fleet(f) => f.measure(tr, root),
            Prepared::CommInit(c) => c.measure(tr, root),
            Prepared::Train(t) => t.measure(tr, root),
        }
    }

    /// Output checks too costly for the timed loop.
    fn verify(&mut self) -> Vec<String> {
        match self {
            Prepared::Fleet(_) => Vec::new(),
            Prepared::CommInit(c) => c.verify(),
            Prepared::Train(t) => t.verify(),
        }
    }

    fn problems(&mut self) -> Vec<Problem> {
        match self {
            Prepared::Fleet(f) => f.problems(),
            Prepared::CommInit(c) => c.problems(),
            Prepared::Train(t) => t.problems(),
        }
    }
}

/// Runs one workload and returns its result line.
fn run(w: Workload, args: &Args) -> Result<String, String> {
    let s = &args.settings;
    eprintln!(
        "== {} (seed {}, {} s{}{})",
        w.name(),
        s.seed,
        s.seconds,
        if s.smoke { ", smoke" } else { "" },
        if args.trace { ", traced" } else { "" }
    );
    // every set-up as (seconds, slowdown), probed like the rounds of a loop
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    let untimed = &mut Tracer::new(false);
    let mut probes = speed::Probes::start(untimed, 0);
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        prepared = Some(Prepared::setup(w, s)?);
        let seconds = t0.elapsed().as_secs_f64();
        setups.push((seconds, probes.close_round(untimed, 0)));
    }
    let mut prepared = prepared.expect("at least one set-up");

    let untraced = prepared.measure(untimed, 0);
    let mut errors = prepared.verify();
    errors.extend(untraced.errors.iter().cloned());
    let e2e = end_to_end(w, &untraced, &setups)?;
    if !args.trace {
        report_errors(&errors);
        return finish(!errors.is_empty(), &untraced, END_TO_END, &e2e, true);
    }

    let mut tr = Tracer::new(true);
    let root = tr.open("run", None);
    let traced = prepared.measure(&mut tr, root);
    let replay_span = tr.open("replay", Some(root));
    let problems = prepared.problems();
    let mut values = traced.counters.clone();
    errors.extend(replay::replay(&problems, &mut tr, replay_span, &mut values));
    tr.close(replay_span);
    tr.close(root);
    errors.extend(traced.errors.iter().cloned());
    let gbps_bits = |o: &Outcome| stats::geomean(&o.sim_gbps).map(f64::to_bits);
    if (
        traced.attempted,
        traced.failed,
        &traced.counters,
        gbps_bits(&traced),
    ) != (
        untraced.attempted,
        untraced.failed,
        &untraced.counters,
        gbps_bits(&untraced),
    ) {
        errors.push("traced and untraced loops disagree on deterministic results".into());
    }

    let wall_us = tr.duration_us(root);
    let mut self_total = 0.0;
    for (name, us) in tr.self_times() {
        self_total += us;
        let metric = match name {
            "run" => "trace.unattributed_us",
            other => PER_LAYER
                .iter()
                .map(|m| m.name)
                .find(|m| m.strip_suffix(".us") == Some(other))
                .ok_or(format!("span {other} has no per-layer metric"))?,
        };
        add(&mut values, metric, us);
    }
    if (self_total - wall_us).abs() > 1e-6 * wall_us {
        errors.push(format!("self times sum to {self_total} us of {wall_us} us"));
    }
    values.insert("trace.wall_us", wall_us);
    if let Some(slowdown) = stats::median(&traced.slowdowns) {
        values.insert("speed_probe.slowdown", slowdown);
    }
    // in reference-host time, so a drift of the host between the two loops
    // does not read as tracing overhead
    values.insert(
        "trace.overhead_ratio",
        traced.reference_s() / untraced.reference_s() - 1.0,
    );
    hit_ratio(&mut values);

    let path = trace_path(w, s);
    let header = [
        ("workload", format!("\"{}\"", w.name())),
        ("seed", s.seed.to_string()),
        ("seconds", s.seconds.to_string()),
        ("smoke", s.smoke.to_string()),
    ];
    tr.write_json(&path, &header)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    report_errors(&errors);
    finish(!errors.is_empty(), &traced, PER_LAYER, &values, false)
}

/// The end-to-end metrics of one untraced loop and its set-ups
/// (`(seconds, slowdown)`), in reference-host time: every latency sample and
/// set-up time divided by the slowdown of the round or set-up it was
/// measured in, every round's rate multiplied by it.
fn end_to_end(w: Workload, o: &Outcome, setups: &[(f64, f64)]) -> Result<Values, String> {
    let missing = |what: &str| format!("no {what} measured");
    let latency: Vec<f64> = o
        .rounds
        .iter()
        .flat_map(|r| r.latency_us.iter().map(|us| us / r.slowdown))
        .collect();
    let p50 = stats::median(&latency).ok_or_else(|| missing("latency samples"))?;
    let tail = stats::tail(&latency, TAIL_PCT).ok_or_else(|| missing("latency samples"))?;
    let gbps = stats::geomean(&o.sim_gbps).ok_or_else(|| missing("simulated bandwidth"))?;
    let setup_times: Vec<f64> = setups.iter().map(|(s, slowdown)| s / slowdown).collect();
    let setup = stats::median(&setup_times).ok_or_else(|| missing("set-up"))?;
    let rate = |r: &Round| r.ops as f64 / r.seconds;
    let rates: Vec<f64> = o.rounds.iter().map(|r| rate(r) * r.slowdown).collect();
    let throughput = stats::median(&rates).ok_or_else(|| missing("rounds"))?;
    let raw: Vec<f64> = o.rounds.iter().flat_map(|r| r.latency_us.clone()).collect();
    let raw_rates: Vec<f64> = o.rounds.iter().map(rate).collect();
    eprintln!(
        "  latency ({}): p50 {p50:.1} us, p{:.2} {:.1} us, {} samples; throughput: median of \
         {} rounds, {} ops in {:.3} s; sim_gbps: geomean of {} rates",
        w.latency_of(),
        tail.pct,
        tail.value,
        tail.samples,
        o.rounds.len(),
        o.rounds.iter().map(|r| r.ops).sum::<u64>(),
        o.busy_s(),
        o.sim_gbps.len(),
    );
    let (fastest, slowest) = o
        .slowdowns
        .iter()
        .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    eprintln!(
        "  host slowdown: median {:.4} of {} probes (range {fastest:.4} to {slowest:.4}); \
         unnormalised: p50 {:.1} us, throughput {:.1} 1/s, set-ups {:.4?} s at slowdowns {:.4?}",
        stats::median(&o.slowdowns).unwrap_or(f64::NAN),
        o.slowdowns.len(),
        stats::median(&raw).unwrap_or(f64::NAN),
        stats::median(&raw_rates).unwrap_or(f64::NAN),
        setups.iter().map(|s| s.0).collect::<Vec<_>>(),
        setups.iter().map(|s| s.1).collect::<Vec<_>>(),
    );
    for note in &o.notes {
        eprintln!("  {note}");
    }
    Ok(Values::from([
        ("setup_s", setup),
        ("latency_p50_us", p50),
        ("latency_tail_us", tail.value),
        ("throughput_per_s", throughput),
        ("sim_gbps", gbps),
    ]))
}

fn hit_ratio(values: &mut Values) {
    let hits = values.get("core.plan_cache.hits").copied().unwrap_or(0.0);
    let lookups = values
        .get("core.plan_cache.lookups")
        .copied()
        .unwrap_or(0.0);
    let ratio = if lookups > 0.0 { hits / lookups } else { 0.0 };
    values.insert("core.plan_cache.hit_ratio", ratio);
}

fn report_errors(errors: &[String]) {
    for e in errors.iter().take(20) {
        eprintln!("  INCORRECT: {e}");
    }
    if errors.len() > 20 {
        eprintln!("  ... and {} more", errors.len() - 20);
    }
}

/// Prints every metric of `registry` to stderr and returns the result line.
fn finish(
    incorrect: bool,
    o: &Outcome,
    registry: &[metrics::Metric],
    values: &Values,
    complete: bool,
) -> Result<String, String> {
    for m in registry {
        let v = values.get(m.name).copied().unwrap_or(0.0);
        eprintln!("  {:<36} {v:>16.4} {}", m.name, m.unit);
    }
    eprintln!("  attempted {} failed {}", o.attempted, o.failed);
    metrics::result_line(
        !incorrect,
        o.attempted,
        o.failed,
        registry,
        values,
        complete,
    )
}

/// Where the traced run writes its spans: inside the benchmark's own
/// directory, ignored by git.
fn trace_path(w: Workload, s: &Settings) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.json", w.name(), s.seed))
}
