//! The metric catalogue, the outcome of one run, and its printing.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("cal_max_rel_dev", "ratio"),
];

/// Mechanism keys, in the registry's order.
pub const MECHS: [&str; 5] = ["radix", "ndpage", "ech", "hugepage", "ideal"];

/// Mechanisms with a page table (everything but `ideal`).
pub const TABLE_MECHS: [&str; 4] = ["radix", "ndpage", "ech", "hugepage"];

/// Span names the benchmark records; each gets a `self_s.<name>` metric.
pub const SPANS: &[&str] = &[
    "parallel.pass",
    "machine.new",
    "machine.run",
    "spec.expand",
    "spec.sink",
    "spec.ingest",
    "spec.resume",
    "workloads.trace",
    "components.mmu",
    "components.core",
    "components.cache",
    "components.mem",
    "calibration.evaluate",
    "supervisor.reference",
    "serve.start",
    "serve.submit",
    "serve.watch",
    "serve.status",
    "serve.rewatch",
];

/// Per-layer metric prefixes only `service` measures: it starts the
/// server and its supervisor, and strictly ingests the served rows.
const SERVICE_ONLY: &[&str] = &[
    "serve.",
    "supervisor.",
    "self_s.serve.",
    "self_s.supervisor.",
    "self_s.spec.ingest",
];

/// Per-layer metric prefixes only the in-process workloads measure:
/// `service` builds no `Machine` in its own process, generates no trace
/// there and runs no `--resume` pass.
const IN_PROCESS_ONLY: &[&str] = &[
    "machine.",
    "parallel.",
    "workloads.",
    "self_s.parallel.",
    "self_s.machine.",
    "self_s.workloads.",
    "self_s.spec.resume",
];

/// Whether a traced run of `workload` must measure the per-layer metric
/// `name`. Every other per-layer metric applies to every workload.
#[must_use]
pub fn applies(workload: &str, name: &str) -> bool {
    let other = if workload == "service" {
        IN_PROCESS_ONLY
    } else {
        SERVICE_ONLY
    };
    !other.iter().any(|p| name.starts_with(p))
}

/// The metrics one run reports: end-to-end or per-layer.
fn catalogue(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// Per-layer metrics (`--trace 1`), with units. A workload reports the
/// ones that do not apply to it (see [`applies`]) as 0.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| v.push((name, unit));
    for m in MECHS {
        add(format!("machine.new_s.{m}"), "s");
    }
    for m in MECHS {
        add(format!("machine.run_s.{m}"), "s");
    }
    add("machine.run_ns_per_op.blocking".into(), "ns");
    add("machine.run_ns_per_op.overlap".into(), "ns");
    add("parallel.busy_frac".into(), "ratio");
    add("parallel.longest_row_s".into(), "s");
    add("spec.expand_s".into(), "s");
    add("spec.sink_s".into(), "s");
    add("spec.ingest_s".into(), "s");
    add("workloads.trace_ns_per_op".into(), "ns");
    add("mmu.tlb_lookup_ns".into(), "ns");
    add("mmu.pwc_probe_ns".into(), "ns");
    add("mmu.walker_plan_ns".into(), "ns");
    for m in TABLE_MECHS {
        add(format!("core.translate_ns.{m}"), "ns");
    }
    for m in TABLE_MECHS {
        add(format!("core.map_range_ns_per_page.{m}"), "ns");
    }
    add("cache.l1_lookup_fill_ns".into(), "ns");
    add("cache.shared_l3_access_ns".into(), "ns");
    add("cache.mshr_probe_ns".into(), "ns");
    add("mem.dram_request_ns".into(), "ns");
    add("mem.dram_request_overlap_ns".into(), "ns");
    add("calibration.evaluate_s".into(), "s");
    add("calibration.in_band".into(), "count");
    add("supervisor.overhead_ms".into(), "ms");
    add("supervisor.spawns".into(), "count");
    add("supervisor.respawns".into(), "count");
    add("serve.submit_rtt_ms".into(), "ms");
    add("serve.status_rtt_ms".into(), "ms");
    add("serve.queue_wait_ms".into(), "ms");
    add("serve.first_row_ms".into(), "ms");
    add("serve.done_to_last_row_ms".into(), "ms");
    add("serve.rewatch_ms".into(), "ms");
    add("serve.journal_bytes".into(), "B/job");
    add("model.digest".into(), "count");
    for m in MECHS {
        add(format!("model.total_cycles.{m}"), "cycles");
    }
    add("model.ndpage_speedup".into(), "ratio");
    add("model.tlb_walk_rate".into(), "ratio");
    add("model.pwc_hit_rate.pl2".into(), "ratio");
    add("model.pwc_hit_rate.pl1".into(), "ratio");
    for m in TABLE_MECHS {
        add(format!("model.avg_ptw_cycles.{m}"), "cycles");
    }
    for m in MECHS {
        add(format!("model.l1_data_miss_rate.{m}"), "ratio");
    }
    for m in MECHS {
        add(format!("model.l1_meta_miss_rate.{m}"), "ratio");
    }
    for m in MECHS {
        add(format!("model.data_evicted_by_metadata.{m}"), "count");
    }
    add("model.translation_cycles_per_op".into(), "cycles");
    add("model.dram_row_hit_rate".into(), "ratio");
    add("model.dram_queue_delay".into(), "cycles");
    add("model.achieved_mlp".into(), "ratio");
    add("model.walker_queue_delay".into(), "cycles");
    add("model.l3_hit_rate".into(), "ratio");
    add("model.l3_bank_conflict_delay".into(), "cycles");
    add("trace.overhead_s".into(), "s");
    for s in SPANS {
        add(format!("self_s.{s}"), "s");
    }
    v
}

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value.
    pub value: f64,
    /// Samples it summarizes (1 for a single measurement or a count).
    pub samples: usize,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (rows, or jobs for the service).
    pub attempted: u64,
    /// Operations that were missing, errored or differed from the
    /// in-process reference.
    pub failed: u64,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, Value>,
    /// Human-readable lines printed before the result (tail percentile,
    /// check failures).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        let value = value + 0.0;
        self.metrics.insert(name.into(), Value { value, samples });
    }

    /// Counts `n` operations, all failed unless `ok`; a failure is noted.
    pub fn check(&mut self, n: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += n;
        if !ok {
            self.failed += n;
            self.notes.push(format!("check failed: {}", what()));
        }
    }

    /// The result object for the metrics of one catalogue, or the names
    /// of catalogue metrics this run should have measured and did not.
    /// Every end-to-end metric must be present, and every per-layer one
    /// that [`applies`] to `workload`; the others are reported as 0.
    ///
    /// # Errors
    ///
    /// Missing metrics, by name.
    pub fn result_json(&self, workload: &str, trace: bool) -> Result<String, Vec<String>> {
        let catalogue = catalogue(trace);
        let missing: Vec<String> = catalogue
            .iter()
            .filter(|(n, _)| (!trace || applies(workload, n)) && !self.metrics.contains_key(n))
            .map(|(n, _)| n.clone())
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        let fields: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).map_or(0.0, |v| v.value);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }

    /// The human-readable table: every catalogue metric with its value,
    /// unit and sample count.
    #[must_use]
    pub fn table(&self, workload: &str, trace: bool) -> String {
        let mut out = String::new();
        for (name, unit) in catalogue(trace) {
            match self.metrics.get(&name) {
                Some(v) => out.push_str(&format!(
                    "{name:<40} {:>16.6} {unit:<7} n={}\n",
                    v.value, v.samples
                )),
                None => out.push_str(&format!(
                    "{name:<40} {:>16} {unit:<7} {}\n",
                    0,
                    if !trace || applies(workload, &name) {
                        "MISSING"
                    } else {
                        "not exercised"
                    }
                )),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_match_the_allowed_pattern_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer());
        for (name, unit) in all {
            assert!(valid_name(&name), "bad metric name {name:?}");
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?} for {name}"
            );
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = ndp_sim::spec::parse_json(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(ndp_sim::spec::Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        (
                            m.get("name")
                                .and_then(ndp_sim::spec::Json::scalar)
                                .unwrap_or_default(),
                            m.get("unit")
                                .and_then(ndp_sim::spec::Json::scalar)
                                .unwrap_or_default(),
                        )
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json has no {key} list"),
            }
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layer);
    }

    #[test]
    fn result_line_has_every_catalogue_metric() {
        let mut o = Outcome::default();
        assert!(o.result_json("paper_grid", false).is_err());
        for (n, _) in END_TO_END {
            o.set(*n, 1.5, 3);
        }
        o.check(4, true, String::new);
        let line = o.result_json("paper_grid", false).expect("complete");
        let doc = ndp_sim::spec::parse_json(&line).expect("valid JSON");
        assert_eq!(
            doc.get("correct")
                .and_then(ndp_sim::spec::Json::scalar)
                .as_deref(),
            Some("true")
        );
        assert_eq!(
            doc.get("attempted")
                .and_then(ndp_sim::spec::Json::scalar)
                .as_deref(),
            Some("4")
        );
    }

    /// A traced run fails when it misses a per-layer metric that applies
    /// to its workload, and reports the ones that do not apply as 0.
    #[test]
    fn traced_result_needs_every_applicable_per_layer_metric() {
        let mut o = Outcome::default();
        for (n, _) in per_layer() {
            if applies("service", &n) {
                o.set(n, 2.5, 1);
            }
        }
        o.check(1, true, String::new);
        let line = o.result_json("service", true).expect("service complete");
        assert!(line.contains("\"machine.new_s.ech\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(line.contains("\"serve.rewatch_ms\": {\"value\": 2.5, \"unit\": \"ms\"}"));
        let missing = o
            .result_json("mlp_corun", true)
            .expect_err("no machine metrics");
        assert!(missing.contains(&"machine.run_ns_per_op.overlap".to_string()));
        assert!(!missing.iter().any(|n| n.starts_with("serve.")));
        o.metrics.remove("self_s.serve.rewatch");
        assert_eq!(
            o.result_json("service", true),
            Err(vec!["self_s.serve.rewatch".to_string()])
        );
        assert!(applies("paper_grid", "self_s.spec.resume"));
        assert!(!applies("service", "self_s.spec.resume"));
        assert!(!applies("paper_grid", "supervisor.spawns"));
    }
}
