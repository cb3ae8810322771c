//! The in-process workloads: `paper_grid` and `mlp_corun`.
//!
//! The end-to-end run (`--trace 0`) times the sweep engine itself:
//! every measured pass is one `run_sweep_jsonl_opts` call in a fresh
//! child process (this binary with `--child engine`), and a watcher
//! thread timestamps each row as it lands in the engine's stream file.
//! The engine does not expose its `Machine::new` / `Machine::run` split,
//! so `setup_s` comes from separate set-up passes (`--child setup`) that
//! build every point's `Machine` and nothing else.
//!
//! The traced run (`--trace 1`) runs the grid the way the engine does —
//! expand, build and run one `Machine` per point on the work-stealing
//! driver, stream rows in grid order to JSONL — but calls each layer
//! from here, so each one is timed separately. Its numbers are the
//! per-layer ones; none of them is end-to-end.
//!
//! In both, the first pass goes through the engine in this process,
//! untimed, and is the byte reference every later pass must reproduce.

use crate::model::{self, mech_key};
use crate::report::{Outcome, MECHS};
use crate::stats::{median, tail};
use crate::trace::{SpanId, Tracer};
use crate::Args;
use ndp_bench::calibration;
use ndp_sim::parallel::{par_map_sink_threads, par_map_threads};
use ndp_sim::spec::{
    apply_knob, config_fingerprint, run_sweep_jsonl_opts, GridPoint, JsonlOptions, SweepRow,
    SweepSpec,
};
use ndp_sim::{Machine, SimConfig};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Host threads every in-process workload runs on (the 2 cores of the
/// machine the bounds were set on).
pub const THREADS: usize = 2;

/// Repetitions of the cheap spec-layer calls (expand, resume, evaluate).
const SPEC_REPS: usize = 31;

/// How an in-process workload samples.
struct Plan {
    /// Fewest measured passes. The row-latency tail is taken over
    /// exactly this many passes, so its percentile does not move with the
    /// number of passes that fit in `--seconds`.
    min_passes: usize,
    /// Fewest set-up passes. One `mlp_corun` set-up pass is about 20 ms,
    /// so it takes many to give a steady median.
    min_setups: usize,
}

fn plan(workload: &str) -> Plan {
    match workload {
        "mlp_corun" => Plan {
            min_passes: 7,
            min_setups: 51,
        },
        _ => Plan {
            min_passes: 3,
            min_setups: 3,
        },
    }
}

/// The simulator seed of a benchmark seed (splitmix64, so nearby
/// benchmark seeds give unrelated per-core trace seeds).
#[must_use]
pub fn sim_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn base(knobs: &[(&str, String)]) -> SimConfig {
    let mut cfg = SimConfig::cli_default();
    for (k, v) in knobs {
        apply_knob(&mut cfg, k, v).expect("benchmark knobs are registry-valid");
    }
    cfg
}

/// The full-scale calibration grid: RND/BFS/XS x {NDP 1/4/8c, CPU 4c}
/// x 5 mechanisms, 2 GiB per core, 30k measured ops after 10k warmup.
#[must_use]
pub fn paper_grid_spec(seed: u64) -> SweepSpec {
    let cfg = base(&[
        ("footprint", (2u64 << 30).to_string()),
        ("measure_ops", "30000".into()),
        ("warmup_ops", "10000".into()),
        ("seed", sim_seed(seed).to_string()),
    ]);
    calibration::grid(cfg, &["RND", "BFS", "XS"])
}

/// The overlap-path co-run: NDP 4 cores, BFS and RND, Radix and NDPage,
/// 256 MiB per core, an 8-wide window with 8 MSHRs, a banked shared L3
/// and vault buffers, 220k ops per core.
#[must_use]
pub fn mlp_corun_spec(seed: u64) -> SweepSpec {
    let cfg = base(&[
        ("footprint", (256u64 << 20).to_string()),
        ("warmup_ops", "55000".into()),
        ("measure_ops", "165000".into()),
        ("mlp_window", "8".into()),
        ("mshrs_per_core", "8".into()),
        ("l3_kb", "2048".into()),
        ("l3_banks", "8".into()),
        ("vault_buffer_kb", "64".into()),
        ("seed", sim_seed(seed).to_string()),
    ]);
    // System and cores are one-value axes so every row names them, as
    // the calibration evaluation needs.
    SweepSpec::new(cfg)
        .named("mlp_corun")
        .axis("system", &["ndp"])
        .axis("cores", &[4])
        .axis("workload", &["BFS", "RND"])
        .axis("mechanism", &["radix", "ndpage"])
}

/// Simulated ops of one point (warmup + measured, every core).
#[must_use]
pub fn sim_ops(cfg: &SimConfig) -> u64 {
    u64::from(cfg.cores) * (cfg.warmup_ops + cfg.measure_ops)
}

/// The untimed first pass, through the engine in this process: every
/// later pass must reproduce its rows and digest.
struct Reference {
    bytes: Vec<u8>,
    /// The engine's digest, folded as `model.digest` is.
    digest: u64,
    executed: u64,
}

/// One engine pass in a fresh child process, timed from outside.
struct EnginePass {
    /// Child start to exit.
    wall_s: f64,
    /// The child's peak resident set (`VmHWM`).
    peak_rss_mb: f64,
    /// Seconds from child start until each row appeared in the engine's
    /// stream file, in grid order (what a user tailing `--out` sees).
    emitted_s: Vec<f64>,
    digest: u64,
    bytes: Vec<u8>,
}

/// The spec of an in-process workload (`paper_grid` or `mlp_corun`).
#[must_use]
pub fn spec_of(workload: &str, seed: u64) -> SweepSpec {
    match workload {
        "mlp_corun" => mlp_corun_spec(seed),
        _ => paper_grid_spec(seed),
    }
}

/// One step of the end-to-end run, in a child process the parent has
/// just started, so every pass begins from a fresh heap: `engine` sweeps
/// `spec` into `out` through `run_sweep_jsonl_opts` and returns
/// `<executed> <digest> <peak_rss_mb>`; `setup` builds every point's
/// `Machine` and returns the summed seconds.
///
/// # Errors
///
/// Sweep-engine errors.
pub fn child(mode: &str, spec: &SweepSpec, out: &Path) -> Result<String, String> {
    ndp_sim::parallel::set_jobs(THREADS);
    if mode == "setup" {
        let points = spec.expand().map_err(|e| e.to_string())?;
        return Ok(setup_pass(&points).to_string());
    }
    let summary = run_sweep_jsonl_opts(spec, out, &JsonlOptions::default())
        .map_err(|e| format!("sweep engine: {e}"))?;
    let peak = peak_rss_mb(None).ok_or("no VmHWM in /proc/self/status")?;
    Ok(format!(
        "{} {} {peak}",
        summary.executed,
        model::fold53(summary.digest)
    ))
}

/// Starts this binary as a child process running [`child`] in `mode` on
/// the run's workload and seed.
fn spawn_child(args: &Args, mode: &str, out: &Path) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--seconds", "1", "--trace", "0", "--child", mode, "--out"])
        .arg(out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the {mode} child: {e}"))
}

/// Waits for a child and returns the last line it printed.
fn finish(child: Child, mode: &str) -> Result<String, String> {
    let done = child
        .wait_with_output()
        .map_err(|e| format!("{mode} child: {e}"))?;
    if !done.status.success() {
        return Err(format!("{mode} child exited with {}", done.status));
    }
    String::from_utf8_lossy(&done.stdout)
        .lines()
        .last()
        .map(str::to_string)
        .ok_or(format!("{mode} child printed nothing"))
}

/// Runs the grid once through the engine in a child process, into `out`.
fn engine_pass(args: &Args, out: &Path) -> Result<EnginePass, String> {
    let stream = ndp_sim::shard::stream_path(out);
    // A stream left by an interrupted run would read as this pass's rows.
    let _ = std::fs::remove_file(&stream);
    let done = AtomicBool::new(false);
    let t0 = Instant::now();
    let child = spawn_child(args, "engine", out)?;
    let (line, wall_s, emitted_s) = std::thread::scope(|s| {
        let watcher = s.spawn(|| watch_rows(&stream, t0, &done));
        let line = finish(child, "engine");
        let wall_s = t0.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        (line, wall_s, watcher.join())
    });
    let mut emitted_s = emitted_s.map_err(|_| "the row watcher panicked".to_string())?;
    let line = line?;
    let fields: Vec<&str> = line.split_whitespace().collect();
    let (Some(Ok(digest)), Some(Ok(peak_rss_mb))) = (
        fields.get(1).map(|f| f.parse::<u64>()),
        fields.get(2).map(|f| f.parse::<f64>()),
    ) else {
        return Err(format!("engine child printed {line:?}"));
    };
    let bytes = std::fs::read(out).map_err(|e| format!("engine rows: {e}"))?;
    // Rows the watcher had not seen yet had landed when the child exited.
    emitted_s.resize(row_count(&bytes) as usize, wall_s);
    Ok(EnginePass {
        wall_s,
        peak_rss_mb,
        emitted_s,
        digest,
        bytes,
    })
}

/// Timestamps each row (newline) appended to the engine's stream file,
/// polling every millisecond until `done`. The open handle keeps reading
/// the file after the engine renames it onto its final path.
fn watch_rows(stream: &Path, t0: Instant, done: &AtomicBool) -> Vec<f64> {
    let mut emitted = Vec::new();
    let mut file: Option<std::fs::File> = None;
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let finished = done.load(Ordering::Acquire);
        if file.is_none() {
            file = std::fs::File::open(stream).ok();
        }
        if let Some(f) = file.as_mut() {
            while let Ok(n) = f.read(&mut buf) {
                if n == 0 {
                    break;
                }
                let at = t0.elapsed().as_secs_f64();
                emitted.extend(buf[..n].iter().filter(|&&b| b == b'\n').map(|_| at));
            }
        }
        if finished {
            return emitted;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Summed `Machine::new` seconds over the grid, built on [`THREADS`]
/// threads as the engine builds them; each machine is dropped untimed.
fn setup_pass(points: &[GridPoint]) -> f64 {
    par_map_threads(THREADS, points.iter().collect(), |p: &GridPoint| {
        let a = Instant::now();
        let machine = Machine::new(p.config.clone());
        let secs = a.elapsed().as_secs_f64();
        drop(machine);
        secs
    })
    .iter()
    .sum()
}

/// One completed grid point with its host timings.
struct RowOut {
    row: SweepRow,
    sim_ops: u64,
    new_s: f64,
    run_s: f64,
}

/// One instrumented pass over the grid (traced run only).
struct Pass {
    traced: bool,
    wall_s: f64,
    sink_s: f64,
    rows: Vec<RowOut>,
    bytes: Vec<u8>,
}

/// Runs the grid once, streaming rows to `out` in grid order as the
/// sweep engine's JSONL sink does, and times each layer it calls.
fn run_pass(points: &[GridPoint], out: &Path, tr: &Tracer) -> std::io::Result<Pass> {
    let tmp = out.with_extension("jsonl.tmp");
    let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
    let mut io_err: Option<std::io::Error> = None;
    let mut sink_s = 0.0;
    let t0 = Instant::now();
    let pass = tr.begin("parallel.pass", SpanId::NONE, THREADS as u32);
    let rows = par_map_sink_threads(
        THREADS,
        points.iter().collect(),
        |p: &GridPoint| {
            let (machine, new_s) = tr.span("machine.new", pass, || {
                let a = Instant::now();
                let m = Machine::new(p.config.clone());
                (m, a.elapsed().as_secs_f64())
            });
            let (report, run_s) = tr.span("machine.run", pass, || {
                let a = Instant::now();
                let r = machine.run();
                (r, a.elapsed().as_secs_f64())
            });
            RowOut {
                row: SweepRow {
                    index: p.index,
                    coords: p.coords.clone(),
                    config_fingerprint: config_fingerprint(&p.config),
                    report,
                },
                sim_ops: sim_ops(&p.config),
                new_s,
                run_s,
            }
        },
        |_, r: &RowOut| {
            tr.span("spec.sink", pass, || {
                let a = Instant::now();
                let line = r.row.to_jsonl();
                if let Err(e) = writeln!(file, "{line}").and_then(|()| file.flush()) {
                    io_err.get_or_insert(e);
                }
                sink_s += a.elapsed().as_secs_f64();
            });
        },
    );
    drop(file);
    let wall_s = t0.elapsed().as_secs_f64();
    tr.end(pass);
    if let Some(e) = io_err {
        return Err(e);
    }
    std::fs::rename(&tmp, out)?;
    Ok(Pass {
        traced: pass != SpanId::NONE,
        wall_s,
        sink_s,
        rows,
        bytes: std::fs::read(out)?,
    })
}

/// Non-empty lines of a JSONL file.
fn row_count(bytes: &[u8]) -> u64 {
    bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .count() as u64
}

/// Times `f` `reps` times; returns the median seconds and the last result.
fn timed_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let a = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(a.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one repetition"))
}

/// Why a pass's rows fail the check against the reference, if they do.
fn compare(bytes: &[u8], digest: u64, reference: &Reference, grid: u64) -> Option<String> {
    let lines = row_count(bytes);
    let mut problems = Vec::new();
    if lines != grid {
        problems.push(format!("{lines}/{grid} rows"));
    }
    if bytes != reference.bytes {
        problems.push("bytes differ from the first engine pass".to_string());
    }
    if digest != reference.digest {
        problems.push("digest differs from the first engine pass".to_string());
    }
    (!problems.is_empty()).then(|| problems.join(", "))
}

/// Runs `spec` for `args.seconds` of measured passes and records every
/// metric the in-process workloads report.
///
/// # Errors
///
/// I/O errors in the work directory and sweep-engine errors.
pub fn run(spec: &SweepSpec, args: &Args, tr: &Tracer, out: &mut Outcome) -> Result<(), String> {
    ndp_sim::parallel::set_jobs(THREADS);
    let dir: PathBuf = args.work.join(&args.workload);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;

    let (expand_s, points) = tr.span("spec.expand", SpanId::NONE, || {
        timed_reps(SPEC_REPS, || spec.expand().expect("benchmark grids expand"))
    });
    out.set("spec.expand_s", expand_s, SPEC_REPS);
    let grid = points.len() as u64;

    // Warm-up and reference: one engine pass in this process, not timed.
    let reference_path = dir.join("reference.jsonl");
    let summary = run_sweep_jsonl_opts(spec, &reference_path, &JsonlOptions::default())
        .map_err(|e| format!("reference pass: {e}"))?;
    let reference = Reference {
        bytes: std::fs::read(&reference_path).map_err(|e| format!("reference rows: {e}"))?,
        digest: model::fold53(summary.digest),
        executed: summary.executed as u64,
    };
    let ref_lines = row_count(&reference.bytes);
    out.check(
        grid,
        reference.executed == grid && ref_lines == grid,
        || format!("engine pass wrote {ref_lines} of {grid} rows"),
    );
    out.set("model.digest", reference.digest as f64, ref_lines as usize);

    let plan = plan(&args.workload);
    let rows_path = dir.join("rows.jsonl");
    if args.trace {
        layer_passes(&points, &reference, &rows_path, &plan, args, tr, out)?;
    } else {
        engine_passes(&points, &reference, &rows_path, &plan, args, out)?;
    }

    // `spec.ingest_s`: a `--resume` pass over the finished file that
    // reuses every row.
    let (resume_s, resumed) = tr.span("spec.resume", SpanId::NONE, || {
        timed_reps(SPEC_REPS, || {
            let opts = JsonlOptions {
                resume: true,
                ..JsonlOptions::default()
            };
            run_sweep_jsonl_opts(spec, &reference_path, &opts)
        })
    });
    let resumed = resumed.map_err(|e| format!("resume pass: {e}"))?;
    let after = std::fs::read(&reference_path).map_err(|e| format!("resumed rows: {e}"))?;
    let reused = resumed.executed == 0 && resumed.reused as u64 == grid && after == reference.bytes;
    out.check(grid, reused, || {
        format!(
            "resume re-ran {} rows or changed the file",
            resumed.executed
        )
    });
    out.set("spec.ingest_s", resume_s, SPEC_REPS);
    let text =
        String::from_utf8(reference.bytes).map_err(|e| format!("rows are not UTF-8: {e}"))?;

    // Fidelity against the paper's Fig 4-7 targets.
    let (evaluate_s, findings) = tr.span("calibration.evaluate", SpanId::NONE, || {
        timed_reps(SPEC_REPS, || {
            calibration::parse_rows(&text).and_then(|rows| calibration::evaluate(&rows, &[], 1.0))
        })
    });
    let findings = findings.map_err(|e| format!("calibration: {e}"))?;
    out.set("calibration.evaluate_s", evaluate_s, SPEC_REPS);
    out.set(
        "calibration.in_band",
        findings.iter().filter(|f| f.pass).count() as f64,
        findings.iter().filter(|f| f.measured.is_some()).count(),
    );
    out.set(
        "cal_max_rel_dev",
        calibration::max_rel_deviation(&findings),
        findings.len(),
    );
    Ok(())
}

/// The end-to-end run: timed engine passes for two thirds of
/// `args.seconds`, then set-up passes for the rest, each in a fresh
/// child process. In one long-lived process, how much of the heap a
/// pass finds already mapped depends on the passes before it, and that
/// moved `setup_s` by up to 3x and `peak_rss_mb` by a third between runs
/// on `mlp_corun`.
fn engine_passes(
    points: &[GridPoint],
    reference: &Reference,
    path: &Path,
    plan: &Plan,
    args: &Args,
    out: &mut Outcome,
) -> Result<(), String> {
    let grid = points.len() as u64;
    let ops_per_pass: u64 = points.iter().map(|p| sim_ops(&p.config)).sum();
    let start = Instant::now();
    let mut passes: Vec<EnginePass> = Vec::new();
    let mut setup: Vec<f64> = Vec::new();
    let elapsed = || start.elapsed().as_secs_f64();
    while passes.len() < plan.min_passes || elapsed() < args.seconds * 2.0 / 3.0 {
        let k = passes.len();
        let pass = engine_pass(args, path).map_err(|e| format!("pass {k}: {e}"))?;
        let problem = compare(&pass.bytes, pass.digest, reference, grid);
        out.check(grid, problem.is_none(), || {
            format!("pass {k}: {}", problem.unwrap_or_default())
        });
        eprintln!(
            "perfbench: {} pass {k}: wall {:.3} s, peak {:.0} MB",
            args.workload, pass.wall_s, pass.peak_rss_mb,
        );
        passes.push(pass);
    }
    while setup.len() < plan.min_setups || elapsed() < args.seconds {
        let line = finish(spawn_child(args, "setup", path)?, "setup")?;
        setup.push(
            line.parse()
                .map_err(|_| format!("setup child printed {line:?}"))?,
        );
    }
    eprintln!(
        "perfbench: {} setup: median {:.4} s over {} set-up passes",
        args.workload,
        median(&setup),
        setup.len()
    );

    let n = passes.len();
    let per = |f: &dyn Fn(&EnginePass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    out.set("wall_s", per(&|p| p.wall_s), n);
    out.set("peak_rss_mb", per(&|p| p.peak_rss_mb), n);
    out.set("sim_ops_per_s", per(&|p| ops_per_pass as f64 / p.wall_s), n);
    out.set("setup_s", median(&setup), setup.len());
    // A row's latency is the time from the child's start until the row
    // reaches the engine's stream, as for a job submitted to the service.
    let rows_ms: Vec<f64> = passes[..plan.min_passes]
        .iter()
        .flat_map(|p| p.emitted_s.iter().map(|t| t * 1e3))
        .collect();
    let t = tail(&rows_ms);
    out.set("job_p50_ms", median(&rows_ms), rows_ms.len());
    out.set("job_tail_ms", t.value, t.samples);
    out.notes.push(format!(
        "job_tail_ms is p{} of {} row latencies ({} beyond it)",
        t.pct, t.samples, t.beyond
    ));
    Ok(())
}

/// The traced run: the grid through the benchmark's own pass, which
/// times each layer. Passes alternate traced and untraced, so their
/// difference is the tracing overhead and their rows show that tracing
/// does not touch the simulation.
fn layer_passes(
    points: &[GridPoint],
    reference: &Reference,
    path: &Path,
    plan: &Plan,
    args: &Args,
    tr: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let grid = points.len() as u64;
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < plan.min_passes || start.elapsed().as_secs_f64() < args.seconds {
        let k = passes.len();
        tr.set_on(k.is_multiple_of(2));
        let pass = run_pass(points, path, tr).map_err(|e| format!("pass {k}: {e}"))?;
        tr.set_on(true);
        let digest = model::digest(pass.rows.iter().map(|r| &r.row.report));
        let problem = compare(&pass.bytes, digest, reference, grid);
        out.check(grid, problem.is_none(), || {
            format!("pass {k}: {}", problem.unwrap_or_default())
        });
        eprintln!(
            "perfbench: {} pass {k}: wall {:.3} s, setup {:.3} s{}",
            args.workload,
            pass.wall_s,
            pass.rows.iter().map(|r| r.new_s).sum::<f64>(),
            if pass.traced { " (traced)" } else { "" }
        );
        passes.push(pass);
    }
    record_layers(&passes, out);
    let walls = |traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.wall_s)
            .collect()
    };
    out.set(
        "trace.overhead_s",
        median(&walls(true)) - median(&walls(false)),
        passes.len(),
    );
    trace_generation(points, tr, out);
    let reports: Vec<_> = passes[0].rows.iter().map(|r| &r.row.report).collect();
    model::record(&reports, out);
    Ok(())
}

/// Per-layer timings of the instrumented passes.
fn record_layers(passes: &[Pass], out: &mut Outcome) {
    let n = passes.len();
    let per =
        |f: &dyn Fn(&Pass) -> f64| -> f64 { median(&passes.iter().map(f).collect::<Vec<_>>()) };
    for m in MECHS {
        let of = |p: &Pass, f: &dyn Fn(&RowOut) -> f64| -> f64 {
            p.rows
                .iter()
                .filter(|r| mech_key(r.row.report.mechanism) == m)
                .map(f)
                .sum()
        };
        out.set(
            format!("machine.new_s.{m}"),
            per(&|p| of(p, &|r| r.new_s)),
            n,
        );
        out.set(
            format!("machine.run_s.{m}"),
            per(&|p| of(p, &|r| r.run_s)),
            n,
        );
    }
    for (key, blocking) in [("blocking", true), ("overlap", false)] {
        let ns_per_op = |p: &Pass| {
            let (run, ops) = p
                .rows
                .iter()
                .filter(|r| (r.row.report.mlp_window <= 1) == blocking)
                .fold((0.0, 0u64), |(s, o), r| (s + r.run_s, o + r.sim_ops));
            if ops == 0 {
                0.0
            } else {
                run * 1e9 / ops as f64
            }
        };
        out.set(format!("machine.run_ns_per_op.{key}"), per(&ns_per_op), n);
    }
    out.set(
        "parallel.busy_frac",
        per(&|p| {
            let busy: f64 = p.rows.iter().map(|r| r.new_s + r.run_s).sum::<f64>() + p.sink_s;
            busy / (p.wall_s * THREADS as f64)
        }),
        n,
    );
    out.set(
        "parallel.longest_row_s",
        per(&|p| p.rows.iter().map(|r| r.new_s + r.run_s).fold(0.0, f64::max)),
        n,
    );
    out.set("spec.sink_s", per(&|p| p.sink_s), n);
}

/// `workloads.trace_ns_per_op`: the grid's per-core traces, generated on
/// their own (each distinct trace once).
fn trace_generation(points: &[GridPoint], tr: &Tracer, out: &mut Outcome) {
    let mut seen = std::collections::BTreeSet::new();
    let mut ops = 0u64;
    let mut secs = 0.0;
    for p in points {
        let c = &p.config;
        for core in 0..u64::from(c.cores) {
            let params = ndp_workloads::TraceParams {
                seed: c.seed + core,
                footprint: Some(c.footprint_per_core()),
            };
            if !seen.insert((c.workload.name(), params.seed, params.footprint)) {
                continue;
            }
            let n = c.warmup_ops + c.measure_ops;
            tr.span("workloads.trace", SpanId::NONE, || {
                let a = Instant::now();
                let trace = c.workload.trace(params);
                let mut sink = 0u64;
                for op in trace.take(n as usize) {
                    sink = sink.wrapping_add(op.addr().map_or(1, |v| v.as_u64()));
                }
                std::hint::black_box(sink);
                secs += a.elapsed().as_secs_f64();
            });
            ops += n;
        }
    }
    out.set(
        "workloads.trace_ns_per_op",
        if ops == 0 {
            0.0
        } else {
            secs * 1e9 / ops as f64
        },
        seen.len(),
    );
}

/// Peak resident set (`VmHWM`) of a process, in MB; the current process
/// when `pid` is `None`.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
