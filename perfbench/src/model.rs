//! Simulated counters from `RunReport`s. They are exact for a given
//! seed: a change that only speeds the simulator up must leave every one
//! identical.

use crate::report::{Outcome, MECHS};
use ndp_sim::report::RunReport;
use ndp_types::PtLevel;
use ndpage::Mechanism;

/// The benchmark's key for a mechanism.
#[must_use]
pub fn mech_key(m: Mechanism) -> &'static str {
    match m {
        Mechanism::Radix => "radix",
        Mechanism::NdPage => "ndpage",
        Mechanism::Ech => "ech",
        Mechanism::HugePage => "hugepage",
        Mechanism::Ideal => "ideal",
    }
}

/// XOR fold of the reports' fingerprints (the sweep engine's digest),
/// reduced by [`fold53`].
#[must_use]
pub fn digest<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> u64 {
    fold53(reports.into_iter().fold(0u64, |d, r| d ^ r.fingerprint()))
}

/// A 64-bit digest reduced to 53 bits, so it survives a round trip
/// through a JSON double.
#[must_use]
pub fn fold53(d: u64) -> u64 {
    (d ^ (d >> 53)) & ((1 << 53) - 1)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    ratio(sum, n as f64)
}

/// Records every `model.*` metric over `reports`.
pub fn record(reports: &[&RunReport], out: &mut Outcome) {
    let n = reports.len();
    out.set("model.digest", digest(reports.iter().copied()) as f64, n);
    let of = |m: &'static str| reports.iter().filter(move |r| mech_key(r.mechanism) == m);
    let mut cycles = std::collections::BTreeMap::new();
    for m in MECHS {
        let c: f64 = of(m).map(|r| r.total_cycles.as_f64()).sum();
        cycles.insert(m, c);
        out.set(format!("model.total_cycles.{m}"), c, of(m).count());
        if m != "ideal" {
            let (sum, count) = of(m).fold((0.0, 0.0), |(s, c), r| {
                (s + r.ptw.sum.as_f64(), c + r.ptw.count as f64)
            });
            out.set(
                format!("model.avg_ptw_cycles.{m}"),
                ratio(sum, count),
                of(m).count(),
            );
        }
        let (miss, total) = of(m).fold((0.0, 0.0), |(x, t), r| {
            (x + r.l1_data.misses as f64, t + r.l1_data.total() as f64)
        });
        out.set(
            format!("model.l1_data_miss_rate.{m}"),
            ratio(miss, total),
            of(m).count(),
        );
        let (miss, total) = of(m).fold((0.0, 0.0), |(x, t), r| {
            (
                x + r.l1_metadata.misses as f64,
                t + r.l1_metadata.total() as f64,
            )
        });
        out.set(
            format!("model.l1_meta_miss_rate.{m}"),
            ratio(miss, total),
            of(m).count(),
        );
        let evicted: f64 = of(m).map(|r| r.data_evicted_by_metadata as f64).sum();
        out.set(
            format!("model.data_evicted_by_metadata.{m}"),
            evicted,
            of(m).count(),
        );
    }
    out.set(
        "model.ndpage_speedup",
        ratio(cycles["radix"], cycles["ndpage"]),
        of("radix").count(),
    );
    out.set(
        "model.tlb_walk_rate",
        mean(reports.iter().map(|r| r.tlb_walk_rate())),
        n,
    );
    for (key, level) in [("pl2", PtLevel::L2), ("pl1", PtLevel::L1)] {
        let rates: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.pwc_hit_rate(level))
            .collect();
        out.set(
            format!("model.pwc_hit_rate.{key}"),
            mean(rates.iter().copied()),
            rates.len(),
        );
    }
    let (tcyc, ops) = reports.iter().fold((0.0, 0.0), |(t, o), r| {
        (t + r.translation_cycles as f64, o + r.ops as f64)
    });
    out.set("model.translation_cycles_per_op", ratio(tcyc, ops), n);
    out.set(
        "model.dram_row_hit_rate",
        mean(reports.iter().map(|r| r.dram_row_hit_rate)),
        n,
    );
    out.set(
        "model.dram_queue_delay",
        mean(reports.iter().map(|r| r.dram_queue_delay)),
        n,
    );
    out.set(
        "model.achieved_mlp",
        mean(reports.iter().map(|r| r.achieved_mlp())),
        n,
    );
    out.set(
        "model.walker_queue_delay",
        mean(reports.iter().map(|r| r.mlp.walker_queue_delay())),
        n,
    );
    let l3: Vec<_> = reports.iter().filter_map(|r| r.l3.as_ref()).collect();
    let (hits, total) = l3.iter().fold((0.0, 0.0), |(h, t), s| {
        let hm = s.total();
        (h + hm.hits as f64, t + hm.total() as f64)
    });
    out.set("model.l3_hit_rate", ratio(hits, total), l3.len());
    out.set(
        "model.l3_bank_conflict_delay",
        mean(l3.iter().map(|s| s.bank_conflict_delay())),
        l3.len(),
    );
}
