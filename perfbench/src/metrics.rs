//! End-to-end and per-layer metrics of a workload run, the human-readable
//! report, and the run report written next to the checkout.

use crate::trace::{aggregate, SpanStats};
use crate::{median, percentile, TracedPass, WorkloadRun};
use gnr_num::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// Telemetry counters reported as per-layer metrics (program-side
/// instrumentation, read from the per-workload snapshot).
const COUNTERS: [&str; 31] = [
    "device.table.bias_points",
    "device.table.warm_seeds",
    "table_cache.misses",
    "negf.energy_points",
    "negf.rgf.calls",
    "negf.sancho_rubio.calls",
    "negf.sancho_rubio.iterations",
    "negf.transport.refined_points",
    "negf.mode_space.modes_kept",
    "negf.mode_space.fallbacks",
    "poisson.solves",
    "poisson.iterations",
    "scf.solves",
    "scf.iterations",
    "scf.degraded",
    "mc.characterize.cells",
    "mc.characterize.dead_cells",
    "mc.samples",
    "mc.stalled_rings",
    "transient.steps",
    "transient.newton_iterations",
    "transient.source_ramp_rescues",
    "spice.newton.calls",
    "spice.newton.iterations",
    "spice.newton.failures",
    "spice.dc.source_stepping_rescues",
    "spice.dc.source_stepping_failures",
    "spice.sparselu.analyze",
    "spice.sparselu.factor",
    "spice.sparselu.refactor",
    "spice.sparselu.factor_fallback",
];

/// Spans the benchmark records around its calls into each layer; each is
/// reported as `<span>.time_s`, its inclusive time over the traced set-up
/// and pass.
const SPANS: [&str; 13] = [
    "device.model",
    "device.sbfet_table",
    "device.negf_table",
    "device.scf_table",
    "core.design_space",
    "core.ring_rows",
    "core.universe",
    "core.mc",
    "core.latch",
    "spice.dc",
    "spice.netlist.parse",
    "spice.netlist.elaborate",
    "bench.check",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl WorkloadRun {
    pub fn setup_median_s(&self) -> f64 {
        median(&mut self.setup_s.clone())
    }

    pub fn wall_median_s(&self) -> f64 {
        median(&mut self.pass_wall_s.clone())
    }

    /// Units completed correctly per host second: the median over the
    /// untraced passes of each pass's correct units over its wall time. It
    /// falls when units start failing, unlike `wall_s`.
    pub fn units_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .pass_units_ok
            .iter()
            .zip(&self.pass_wall_s)
            .map(|(&ok, &wall)| ratio(ok as f64, wall))
            .collect();
        median(&mut rates)
    }

    pub fn failed_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The end-to-end metrics (the untraced measurement).
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", "s", self.setup_median_s()),
            metric("wall_s", "s", self.wall_median_s()),
            metric("units_per_s", "1/s", self.units_per_s()),
            metric("peak_rss_mb", "MB", self.peak_rss_mb),
        ]
    }

    /// The per-layer metrics of the traced pass (empty for an untraced run).
    pub fn per_layer(&self) -> Vec<Metric> {
        let Some(t) = &self.traced else {
            return Vec::new();
        };
        let counter = |name: &str| t.telemetry.counter(name).unwrap_or(0) as f64;
        let spans = aggregate(&t.spans);
        let span_s = |name: &str| {
            spans
                .get(name)
                .map_or(0.0, |s| s.inclusive_ns as f64 * 1e-9)
        };
        let mut out: Vec<Metric> = Vec::new();
        for name in SPANS {
            out.push(metric(&format!("{name}.time_s"), "s", span_s(name)));
        }
        for name in COUNTERS {
            out.push(metric(name, "count", counter(name)));
        }
        let mut dc_ms: Vec<f64> = t
            .pass_spans
            .iter()
            .filter(|s| s.name == "spice.dc")
            .map(|s| s.duration_ns() as f64 * 1e-6)
            .collect();
        let dc_calls = t.spans.iter().filter(|s| s.name == "spice.dc").count() as f64;
        let hits = counter("negf.surface_cache.hit");
        let misses = counter("negf.surface_cache.miss");
        out.extend([
            metric(
                "negf.surface_cache.hit_ratio",
                "ratio",
                ratio(hits, hits + misses),
            ),
            metric(
                "negf.energy_points_per_s",
                "1/s",
                ratio(
                    counter("negf.energy_points"),
                    span_s("device.negf_table") + span_s("device.scf_table"),
                ),
            ),
            metric(
                "transient.newton_per_step",
                "ratio",
                ratio(
                    counter("transient.newton_iterations"),
                    counter("transient.steps"),
                ),
            ),
            metric(
                "spice.newton.failure_ratio",
                "ratio",
                ratio(
                    counter("spice.newton.failures"),
                    counter("spice.newton.calls"),
                ),
            ),
            metric("spice.dc.time_ms_p50", "ms", percentile(&mut dc_ms, 0.5)),
            metric("spice.dc.time_ms_p90", "ms", percentile(&mut dc_ms, 0.9)),
            metric(
                "spice.sparselu.analyze_per_dc",
                "ratio",
                ratio(counter("spice.sparselu.analyze"), dc_calls),
            ),
            metric("bench.traced_wall_s", "s", t.wall_s),
            metric(
                "bench.trace_overhead_s",
                "s",
                t.wall_s - self.wall_median_s(),
            ),
            metric("bench.top_level_coverage", "ratio", t.top_level_coverage()),
            metric("check.failed_ratio", "ratio", self.failed_ratio()),
            metric("check.output_drift_rel", "ratio", self.drift),
            metric("host.ref_kernel_start_ms", "ms", self.kernel_start_ms),
            metric("host.ref_kernel_end_ms", "ms", self.kernel_end_ms),
        ]);
        out
    }

    /// The metrics the result line carries: end-to-end untraced,
    /// per-layer traced.
    pub fn result_metrics(&self) -> Vec<Metric> {
        if self.traced.is_some() {
            self.per_layer()
        } else {
            self.end_to_end()
        }
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let c = &self.config;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "workload {}  seed {}  threads {}  traced {}",
            c.workload, c.seed, c.threads, c.traced
        );
        let units_ok: u64 = self.pass_units_ok.iter().sum();
        let rows = [
            (
                "setup_s",
                self.setup_median_s(),
                "s",
                format!("median of {} set-ups", self.setup_s.len()),
            ),
            (
                "wall_s",
                self.wall_median_s(),
                "s",
                format!("median of {} untraced passes", self.pass_wall_s.len()),
            ),
            (
                "units_per_s",
                self.units_per_s(),
                "1/s",
                format!("median per pass; {units_ok} units ok in all"),
            ),
            (
                "failed_ratio",
                self.failed_ratio(),
                "ratio",
                format!("{} of {} units failed", self.failed, self.attempted),
            ),
            (
                "output_drift_rel",
                self.drift,
                "ratio",
                "largest relative deviation from the references".into(),
            ),
            (
                "peak_rss_mb",
                self.peak_rss_mb,
                "MB",
                "over set-up and the first pass".into(),
            ),
        ];
        for (name, value, unit, note) in rows {
            let _ = writeln!(s, "  {name:<18} {value:>14.6} {unit:<6} {note}");
        }
        let _ = writeln!(
            s,
            "  host reference kernel (complex LU): {:.3} ms at start, {:.3} ms at end",
            self.kernel_start_ms, self.kernel_end_ms
        );
        for f in &self.failures {
            let _ = writeln!(s, "  FAILED {f}");
        }
        if let Some(t) = &self.traced {
            let _ = writeln!(
                s,
                "  traced pass {:.3} s (untraced median {:.3} s); top-level spans cover {:.1}%",
                t.wall_s,
                self.wall_median_s(),
                100.0 * t.top_level_coverage()
            );
            let _ = writeln!(
                s,
                "  {:<26} {:>7} {:>11} {:>11} {:>7}",
                "span (traced pass)", "calls", "self s", "incl s", "% pass"
            );
            let pass_ns = t.root.duration_ns().max(1) as f64;
            for (name, st) in aggregate(&t.pass_spans) {
                let _ = writeln!(
                    s,
                    "  {name:<26} {:>7} {:>11.4} {:>11.4} {:>6.1}%",
                    st.count,
                    st.self_ns as f64 * 1e-9,
                    st.inclusive_ns as f64 * 1e-9,
                    100.0 * st.inclusive_ns as f64 / pass_ns
                );
            }
            for m in self.per_layer() {
                let _ = writeln!(s, "  {:<36} {:>16} {}", m.name, fmt_value(m.value), m.unit);
            }
        }
        s
    }

    /// The run report: metrics, host kernel, and (traced) every span and
    /// the telemetry snapshot.
    pub fn report_json(&self) -> Json {
        let metrics = |ms: Vec<Metric>| {
            Json::Obj(
                ms.into_iter()
                    .map(|m| {
                        (
                            m.name,
                            Json::Obj(vec![
                                ("value".into(), Json::Num(m.value)),
                                ("unit".into(), Json::from(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        let mut doc = vec![
            ("schema".into(), Json::from("gnrlab-perfbench-run/v1")),
            ("workload".into(), Json::from(self.config.workload.as_str())),
            ("seed".into(), Json::Num(self.config.seed as f64)),
            ("threads".into(), Json::from(self.config.threads)),
            ("setup_s".into(), Json::from(self.setup_s.clone())),
            ("pass_wall_s".into(), Json::from(self.pass_wall_s.clone())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("failed_ratio".into(), Json::Num(self.failed_ratio())),
            ("output_drift_rel".into(), Json::Num(self.drift)),
            (
                "host_ref_kernel_ms".into(),
                Json::from(vec![self.kernel_start_ms, self.kernel_end_ms]),
            ),
            ("end_to_end".into(), metrics(self.end_to_end())),
        ];
        if let Some(t) = &self.traced {
            doc.push(("per_layer".into(), metrics(self.per_layer())));
            let stats = |agg: BTreeMap<&'static str, SpanStats>| {
                Json::Obj(
                    agg.into_iter()
                        .map(|(k, v)| {
                            (
                                k.to_string(),
                                Json::Obj(vec![
                                    ("calls".into(), Json::Num(v.count as f64)),
                                    ("self_s".into(), Json::Num(v.self_ns as f64 * 1e-9)),
                                    (
                                        "inclusive_s".into(),
                                        Json::Num(v.inclusive_ns as f64 * 1e-9),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                )
            };
            doc.push(("span_stats".into(), stats(aggregate(&t.spans))));
            doc.push((
                "spans".into(),
                Json::Arr(
                    t.spans
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("id".into(), Json::from(s.id)),
                                ("parent".into(), s.parent.map_or(Json::Null, Json::from)),
                                ("name".into(), Json::from(s.name)),
                                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ));
            doc.push(("telemetry".into(), t.telemetry.to_json()));
        }
        Json::Obj(doc)
    }
}

impl TracedPass {
    /// Share of the traced pass's wall time covered by its top-level spans.
    pub fn top_level_coverage(&self) -> f64 {
        let top: u64 = self
            .pass_spans
            .iter()
            .filter(|s| s.parent == Some(self.root.id))
            .map(|s| s.duration_ns())
            .sum();
        ratio(top as f64, self.root.duration_ns() as f64)
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. With several runs (`--workload all`) the metric names
/// are prefixed with the workload.
pub fn result_line(runs: &[WorkloadRun]) -> String {
    let prefix = runs.len() > 1;
    let mut metrics = Vec::new();
    for r in runs {
        for m in r.result_metrics() {
            let name = if prefix {
                format!("{}.{}", r.config.workload, m.name)
            } else {
                m.name
            };
            metrics.push((
                name,
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::from(m.unit)),
                ]),
            ));
        }
    }
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0 && attempted > 0)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .dump()
}
