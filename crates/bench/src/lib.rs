#![forbid(unsafe_code)]
//! Benchmark & figure-regeneration harness for the NDPage reproduction.
//!
//! The `figures` binary regenerates **every table and figure** of the
//! paper's evaluation (`cargo run -p ndp-bench --release --bin figures --
//! all`), printing the same rows/series the paper reports; `ndpsim` runs
//! single simulations, spec sweeps and the experiment service, and
//! `calibrate` checks the model against the paper's Fig 4-7 targets.
//! The simulator's own performance is measured by the separate
//! `perfbench` package at the repository root.
//!
//! The formatting helpers here are shared by the binaries.

pub mod calibration;
pub mod cli;
pub mod client;
pub mod serve;
pub mod supervisor;

use ndp_sim::report::RunReport;
use ndp_sim::{SimConfig, SystemKind};
use ndp_workloads::WorkloadId;
use ndpage::bypass::BypassPolicy;
use ndpage::Mechanism;

/// Formats a fraction as a percentage with two decimals.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats a speedup with two decimals and an `x` suffix.
#[must_use]
pub fn spd(x: f64) -> String {
    format!("{x:.2}x")
}

/// Renders a simple aligned table (header row, dash rule, data rows)
/// to a string — the one table renderer behind both the live
/// simulation path and `figures --from-jsonl`, so their bytes can be
/// asserted identical.
#[must_use]
pub fn table_string(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| (*s).to_string()).collect();
    let mut out = String::new();
    out.push_str(&fmt_row(&head));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Prints a simple aligned table: header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", table_string(headers, rows));
}

/// The ablation variants of §V, isolating NDPage's two mechanisms and its
/// PWC interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AblationVariant {
    /// Conventional baseline.
    Radix,
    /// Radix table + metadata L1 bypass only.
    BypassOnly,
    /// Flattened L2/L1 table only (PTEs still cacheable).
    FlattenOnly,
    /// Full NDPage (flatten + bypass).
    NdPage,
    /// Full NDPage with page-walk caches disabled.
    NdPageNoPwc,
}

impl AblationVariant {
    /// All variants in presentation order.
    pub const ALL: [AblationVariant; 5] = [
        AblationVariant::Radix,
        AblationVariant::BypassOnly,
        AblationVariant::FlattenOnly,
        AblationVariant::NdPage,
        AblationVariant::NdPageNoPwc,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AblationVariant::Radix => "Radix",
            AblationVariant::BypassOnly => "Radix+Bypass",
            AblationVariant::FlattenOnly => "Flatten-only",
            AblationVariant::NdPage => "NDPage",
            AblationVariant::NdPageNoPwc => "NDPage-noPWC",
        }
    }

    /// Builds the simulation config for this variant.
    #[must_use]
    pub fn config(self, cores: u32, workload: WorkloadId) -> SimConfig {
        let mut cfg = match self {
            AblationVariant::Radix => {
                SimConfig::new(SystemKind::Ndp, cores, Mechanism::Radix, workload)
            }
            AblationVariant::BypassOnly => {
                let mut c = SimConfig::new(SystemKind::Ndp, cores, Mechanism::Radix, workload);
                c.bypass_override = Some(BypassPolicy::MetadataL1Bypass);
                c
            }
            AblationVariant::FlattenOnly => {
                let mut c = SimConfig::new(SystemKind::Ndp, cores, Mechanism::NdPage, workload);
                c.bypass_override = Some(BypassPolicy::None);
                c
            }
            AblationVariant::NdPage => {
                SimConfig::new(SystemKind::Ndp, cores, Mechanism::NdPage, workload)
            }
            AblationVariant::NdPageNoPwc => {
                let mut c = SimConfig::new(SystemKind::Ndp, cores, Mechanism::NdPage, workload);
                c.pwc_override = Some(false);
                c
            }
        };
        cfg.seed = 0x5eed;
        cfg
    }
}

/// Convenience: the paper's average-of-workloads of a metric.
#[must_use]
pub fn avg_metric(reports: &[RunReport], f: impl Fn(&RunReport) -> f64) -> f64 {
    let vals: Vec<f64> = reports.iter().map(f).collect();
    ndp_types::stats::mean(&vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatters() {
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(spd(1.5), "1.50x");
    }

    #[test]
    #[ignore = "diagnostic"]
    fn diag_bypass_vs_flatten() {
        use ndp_sim::experiment::run;
        for v in [AblationVariant::FlattenOnly, AblationVariant::NdPage] {
            let cores: u32 = std::env::var("DIAG_CORES")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(4);
            let mut cfg = v.config(cores, WorkloadId::Rnd);
            cfg.warmup_ops = 20_000;
            cfg.measure_ops = 40_000;
            let r = run(cfg);
            println!(
                "{}: cyc={} ptw={:.1} md_l1_miss={:.3} md_mem={} data_mem={} rowhit={:.3} qdelay={:.1}",
                v.name(), r.total_cycles.as_u64(), r.avg_ptw_latency(),
                r.l1_metadata.miss_rate(), r.mem_traffic.metadata,
                r.mem_traffic.data, r.dram_row_hit_rate, r.dram_queue_delay,
            );
        }
    }

    #[test]
    fn ablation_configs_differ() {
        let bypass = AblationVariant::BypassOnly.config(1, WorkloadId::Rnd);
        assert_eq!(bypass.mechanism, Mechanism::Radix);
        assert_eq!(bypass.bypass_override, Some(BypassPolicy::MetadataL1Bypass));

        let flatten = AblationVariant::FlattenOnly.config(1, WorkloadId::Rnd);
        assert_eq!(flatten.mechanism, Mechanism::NdPage);
        assert_eq!(flatten.bypass_override, Some(BypassPolicy::None));

        let nopwc = AblationVariant::NdPageNoPwc.config(1, WorkloadId::Rnd);
        assert_eq!(nopwc.pwc_override, Some(false));

        assert_eq!(AblationVariant::ALL.len(), 5);
        assert_eq!(AblationVariant::BypassOnly.name(), "Radix+Bypass");
    }
}
