//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is declared here with its unit;
//! `BENCHMARK.json` at the repository root lists the same names (the smoke
//! test keeps the two in step). An untraced run prints every end-to-end
//! metric, a traced run every per-layer metric.

use std::collections::BTreeMap;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// `snake_case` for end-to-end metrics, `<module>.<layer>.<metric>`
    /// for per-layer ones.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the system sees, measured with tracing off. Every
/// workload reports each of them; what each one means per workload is in
/// `BENCHMARK.md`.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("latency_p50_us", "us"),
    m("latency_tail_us", "us"),
    m("throughput_per_s", "1/s"),
    m("sim_gbps", "GB/s"),
];

/// Per-layer numbers from the traced run. `.us` is wall-clock self time;
/// `sim_us` is simulated time, a deterministic function of the inputs.
pub const PER_LAYER: &[Metric] = &[
    m("sched.pipeline.us", "us"),
    m("sched.place.us", "us"),
    m("sched.place.calls", "count"),
    m("sched.plan.us", "us"),
    m("sched.plan.calls", "count"),
    m("sched.first_collective.us", "us"),
    m("sched.first_collective.calls", "count"),
    m("sched.consolidate.us", "us"),
    m("sched.consolidate.calls", "count"),
    m("core.plan_cache.lookups", "count"),
    m("core.plan_cache.hits", "count"),
    m("core.plan_cache.hit_ratio", "ratio"),
    m("core.plan_cache.evictions", "count"),
    m("core.build.us", "us"),
    m("core.build.calls", "count"),
    m("core.first_allreduce.us", "us"),
    m("core.first_allreduce.calls", "count"),
    m("train.step.us", "us"),
    m("train.step.calls", "count"),
    m("train.step.buckets", "count"),
    m("core.fusion.fused_programs", "count"),
    m("topology.induce.us", "us"),
    m("topology.induce.calls", "count"),
    m("graph.packing.us", "us"),
    m("graph.packing.calls", "count"),
    m("graph.packing.mwu_iterations", "count"),
    m("graph.packing.trees", "count"),
    m("graph.minimize.us", "us"),
    m("graph.minimize.trees_out", "count"),
    m("graph.certificate.us", "us"),
    m("graph.certificate.calls", "count"),
    m("core.codegen.us", "us"),
    m("core.codegen.calls", "count"),
    m("core.codegen.ops", "count"),
    m("sim.engine.us", "us"),
    m("sim.engine.calls", "count"),
    m("sim.engine.ops", "count"),
    m("sim.engine.simulated_us", "sim_us"),
    m("sim.oracle.us", "us"),
    m("sim.oracle.checks", "count"),
    m("sim.oracle.failures", "count"),
    m("core.replan.us", "us"),
    m("core.replan.calls", "count"),
    m("core.replan.warm_iterations", "count"),
    m("core.replan.rung.full_warm_repair", "count"),
    m("core.replan.rung.packed_replan", "count"),
    m("core.replan.rung.pcie_fallback", "count"),
    m("core.replan.rung.shrunk_subgroup", "count"),
    m("alloc.graph.packing.per_call", "allocs/call"),
    m("alloc.core.codegen.per_call", "allocs/call"),
    m("alloc.sim.engine.per_call", "allocs/call"),
    m("alloc.sim.oracle.per_call", "allocs/call"),
    m("replay.us", "us"),
    m("speed_probe.us", "us"),
    m("speed_probe.slowdown", "ratio"),
    m("trace.wall_us", "us"),
    m("trace.unattributed_us", "us"),
    m("trace.overhead_ratio", "ratio"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Adds `v` to the named value (starting from 0).
pub fn add(values: &mut Values, name: &'static str, v: f64) {
    *values.entry(name).or_insert(0.0) += v;
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`
/// with every metric of `registry` as `{"value", "unit"}`.
///
/// # Errors
/// A value whose name is not in `registry` (a typo), a non-finite value, or
/// — when `complete` — a registry metric with no value.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    registry: &[Metric],
    values: &Values,
    complete: bool,
) -> Result<String, String> {
    if let Some(name) = values
        .keys()
        .find(|k| !registry.iter().any(|m| m.name == **k))
    {
        return Err(format!("metric {name} is not declared in the registry"));
    }
    let mut fields = Vec::with_capacity(registry.len());
    for metric in registry {
        let value = match values.get(metric.name) {
            Some(&v) => v,
            None if complete => return Err(format!("metric {} was not measured", metric.name)),
            None => 0.0,
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", metric.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}
