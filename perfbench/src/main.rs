#![forbid(unsafe_code)]
//! `perfbench`: the NDPage simulator's end-to-end and per-layer
//! benchmark (design and metric map in `NOTES.md`).
//!
//! ```text
//! perfbench --workload paper_grid|mlp_corun|service --seed N --seconds S
//!           --trace 0|1 [--ndpsim PATH] [--work DIR]
//! ```
//!
//! The end-to-end run of `paper_grid` and `mlp_corun` starts this binary
//! again with `--child engine|setup --out PATH` for each pass it times
//! (see `grid::child`).
//!
//! Prints a table of every metric with its unit and sample count, then,
//! as the last line, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! ones with `--trace 1`). `run.py` builds the simulator and this
//! harness from source and runs it.

mod components;
mod grid;
mod model;
mod report;
mod service;
mod stats;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload paper_grid|mlp_corun|service --seed N \
                     --seconds S --trace 0|1 [--ndpsim PATH] [--work DIR]";

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper_grid", "mlp_corun", "service"];

/// Checked command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every simulated input derives from.
    pub seed: u64,
    /// Seconds of measured passes (or jobs) per run.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
    /// The `ndpsim` binary the service workload starts.
    pub ndpsim: Option<PathBuf>,
    /// Scratch directory for rows, server state and spans.
    pub work: PathBuf,
    /// Set in a child process of the end-to-end run: `engine` or `setup`.
    pub child: Option<String>,
    /// The rows file of an `engine` child.
    pub out: PathBuf,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            ndpsim: None,
            work: PathBuf::from(".perfbench_work"),
            child: None,
            out: PathBuf::new(),
        };
        let (mut seed, mut seconds, mut trace) = (false, false, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = value,
                "--workload" => return Err(format!("unknown workload {value:?}")),
                "--seed" => {
                    args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?;
                    seed = true;
                }
                "--seconds" => {
                    args.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad --seconds {value:?}"))?;
                    seconds = true;
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                    };
                    trace = true;
                }
                "--ndpsim" => args.ndpsim = Some(PathBuf::from(value)),
                "--work" => args.work = PathBuf::from(value),
                "--child" if matches!(value.as_str(), "engine" | "setup") => {
                    args.child = Some(value);
                }
                "--child" => return Err(format!("bad --child {value:?} (engine or setup)")),
                "--out" => args.out = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        if args.workload.is_empty() || !seed || !seconds || !trace {
            return Err("--workload, --seed, --seconds and --trace are required".into());
        }
        Ok(args)
    }
}

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(mode) = &args.child {
        match grid::child(mode, &grid::spec_of(&args.workload, args.seed), &args.out) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("perfbench: {} {mode} child: {e}", args.workload);
                std::process::exit(1);
            }
        }
        return;
    }
    let tr = Tracer::new(args.trace);
    let mut out = Outcome::default();
    let ran = match args.workload.as_str() {
        "service" => service::run(&args, &tr, &mut out),
        w => grid::run(&grid::spec_of(w, args.seed), &args, &tr, &mut out),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    if args.trace {
        tr.set_on(true);
        let points = grid::mlp_corun_spec(args.seed)
            .expand()
            .expect("mlp_corun expands");
        components::replay(&points[0].config, &tr, &mut out);
        for (name, secs) in tr.self_seconds() {
            out.set(format!("self_s.{name}"), secs, 1);
        }
        let spans = args.work.join(format!("spans-{}.json", args.workload));
        if let Err(e) = std::fs::write(&spans, tr.to_json()) {
            eprintln!("perfbench: cannot write {}: {e}", spans.display());
            std::process::exit(1);
        }
    }
    for note in &out.notes {
        println!("# {note}");
    }
    print!("{}", out.table(&args.workload, args.trace));
    match out.result_json(&args.workload, args.trace) {
        Ok(line) => println!("{line}"),
        Err(missing) => {
            eprintln!(
                "perfbench: {} did not measure {}",
                args.workload,
                missing.join(", ")
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse("--workload mlp_corun --seed 7 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload service --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload service --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload service --seed 1 --seconds 1").is_err());
        let c = parse("--workload mlp_corun --seed 1 --seconds 1 --trace 0 --child setup --out r")
            .expect("valid child");
        assert_eq!(c.child.as_deref(), Some("setup"));
        assert!(parse("--workload mlp_corun --seed 1 --seconds 1 --trace 0 --child x").is_err());
    }

    /// A small grid through the traced run: the same seed gives the same
    /// `model.digest`, another seed a different one. The run itself checks
    /// that its traced and untraced passes reproduce the rows and digest
    /// of an untraced engine pass, so tracing does not change them.
    #[test]
    fn digest_repeats_per_seed_and_differs_across_seeds() {
        let digest = |seed: u64, run: u32| {
            let spec = ndp_sim::SweepSpec::new(
                ndp_sim::SimConfig::cli_default()
                    .with_ops(500, 1000)
                    .with_footprint(64 << 20)
                    .with_seed(grid::sim_seed(seed)),
            )
            .named(&format!("digest-test-{seed}-{run}"))
            .axis("system", &["ndp"])
            .axis("cores", &[1])
            .axis("workload", &["RND"])
            .axis("mechanism", &["radix", "ndpage"]);
            let work = std::env::temp_dir().join(format!(
                "perfbench-test-{}-{seed}-{run}",
                std::process::id()
            ));
            let args = Args {
                workload: "mlp_corun".into(),
                seed,
                seconds: 0.01,
                trace: true,
                ndpsim: None,
                work: work.clone(),
                child: None,
                out: PathBuf::new(),
            };
            let mut out = Outcome::default();
            grid::run(&spec, &args, &Tracer::new(true), &mut out).expect("small grid runs");
            assert_eq!(out.failed, 0, "{:?}", out.notes);
            let _ = std::fs::remove_dir_all(&work);
            out.metrics["model.digest"].value
        };
        assert_eq!(digest(1, 0), digest(1, 1));
        assert_ne!(digest(1, 0), digest(2, 0));
    }
}
