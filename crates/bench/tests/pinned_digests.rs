//! Pinned sweep digests: four fixed sweeps, each folded to one `u64` by
//! XOR-ing its runs' `RunReport::fingerprint()`s, must reproduce the
//! constants below exactly.
//!
//! Together they cover every engine path: the blocking kernel under
//! every mechanism plus a PWC-capacity sweep (`report`), the windowed
//! overlap kernel (`mlp`), the shared banked L3 with co-runners (`llc`)
//! and the quick-scale calibration grid through the spec engine
//! (`cal`). A change that moves any simulated counter moves a digest,
//! so a refactor or optimisation that holds all four is behaviour-
//! preserving; a deliberate model change updates the constant it moves
//! and says why.

use ndp_bench::calibration;
use ndp_sim::experiment::run_batch;
use ndp_sim::spec::{apply_knob, run_sweep};
use ndp_sim::sweeps::{mlp_sweep, pwc_size_sweep, shared_llc_sweep};
use ndp_sim::{SimConfig, SystemKind};
use ndp_workloads::WorkloadId;
use ndpage::Mechanism;

const REPORT_DIGEST: u64 = 14_763_835_927_449_417_281;
const MLP_DIGEST: u64 = 14_920_915_780_567_262_132;
const LLC_DIGEST: u64 = 14_219_396_697_369_523_494;
const CAL_DIGEST: u64 = 907_243_844_365_967_685;

/// The sweeps' shared scale: 4k warmup + 8k measured ops per core over
/// a 512 MiB footprint.
fn small(cores: u32, mechanism: Mechanism, workload: WorkloadId) -> SimConfig {
    SimConfig::new(SystemKind::Ndp, cores, mechanism, workload)
        .with_ops(4_000, 8_000)
        .with_footprint(512 << 20)
}

/// Every mechanism on RND and BFS at 2 cores (the Figs 12-14 engine),
/// then Radix vs NDPage over three PWC capacities at 4 cores.
#[test]
fn report_digest_is_pinned() {
    let figure_cfgs: Vec<SimConfig> = [WorkloadId::Rnd, WorkloadId::Bfs]
        .iter()
        .flat_map(|&w| Mechanism::ALL.iter().map(move |&m| small(2, m, w)))
        .collect();
    let mut digest = 0u64;
    for report in run_batch(figure_cfgs) {
        digest ^= report.fingerprint();
    }
    let base = small(4, Mechanism::Radix, WorkloadId::Rnd);
    for point in pwc_size_sweep(WorkloadId::Rnd, &[16, 64, 256], &base) {
        digest ^= point.radix.fingerprint() ^ point.ndpage.fingerprint();
    }
    assert_eq!(digest, REPORT_DIGEST);
}

/// Radix vs NDPage on BFS at 4 cores over issue windows 1, 4 and 8
/// (window 1 re-anchors the blocking path inside the same sweep).
#[test]
fn mlp_digest_is_pinned() {
    let base = small(4, Mechanism::Radix, WorkloadId::Bfs);
    let mut digest = 0u64;
    for point in mlp_sweep(WorkloadId::Bfs, &[1, 4, 8], &base) {
        digest ^= point.radix.fingerprint() ^ point.ndpage.fingerprint();
    }
    assert_eq!(digest, MLP_DIGEST);
}

/// Radix vs NDPage co-running on BFS at 2 cores under a 512 KiB and a
/// 4 MiB shared L3.
#[test]
fn llc_digest_is_pinned() {
    let base = small(2, Mechanism::Radix, WorkloadId::Bfs);
    let mut digest = 0u64;
    for point in shared_llc_sweep(WorkloadId::Bfs, &[512, 4096], &base) {
        digest ^= point.radix.fingerprint() ^ point.ndpage.fingerprint();
    }
    assert_eq!(digest, LLC_DIGEST);
}

/// The quick-scale calibration grid (RND, BFS, XS x NDP 1/4/8 + CPU 4
/// cores x every mechanism) at 256 MiB, 2k warmup + 6k measured ops.
#[test]
fn cal_digest_is_pinned() {
    let mut base = SimConfig::cli_default();
    for (knob, value) in [
        ("footprint", "268435456"),
        ("measure_ops", "6000"),
        ("warmup_ops", "2000"),
    ] {
        apply_knob(&mut base, knob, value).unwrap();
    }
    let spec = calibration::grid(base, &["RND", "BFS", "XS"]);
    let digest = run_sweep(&spec)
        .unwrap()
        .rows
        .iter()
        .fold(0u64, |d, r| d ^ r.report.fingerprint());
    assert_eq!(digest, CAL_DIGEST);
}
