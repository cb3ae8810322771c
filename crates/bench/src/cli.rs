//! Shared command-line plumbing for the `ndpsim` / `figures` /
//! `calibrate` binaries.
//!
//! One `Args` accessor, one error type, and one registry-driven
//! [`config_from_args`] replace the per-binary copies of `get`/`has`,
//! `num*`, `die_unknown` and the workload/mechanism name lists that each
//! binary used to carry (or go without). The flag table itself lives in
//! [`ndp_sim::spec::KNOBS`] — the single source of truth shared with
//! spec files and `--set` overrides — so a new `SimConfig` knob becomes
//! a CLI flag by adding exactly one registry entry.

use ndp_sim::parallel;
use ndp_sim::spec::{apply_knob, KNOBS};
use ndp_sim::SimConfig;
use std::fmt;

pub use ndp_sim::spec::{mechanism_names, parse_mechanism, parse_workload, workload_names};

/// A CLI failure: the message to print on stderr and the process exit
/// code (2 = usage/parse error, 1 = semantic/validation error — the
/// codes the pre-refactor binaries used).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Process exit code.
    pub code: i32,
    /// Message for stderr (already `error:`-prefixed where appropriate).
    pub message: String,
}

impl CliError {
    /// A usage/parse error (exit 2).
    #[must_use]
    pub fn usage(message: impl Into<String>) -> Self {
        CliError {
            code: 2,
            message: message.into(),
        }
    }

    /// A semantic error (exit 1), e.g. config validation.
    #[must_use]
    pub fn semantic(message: impl Into<String>) -> Self {
        CliError {
            code: 1,
            message: message.into(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Prints the error and exits with its code.
pub fn exit_on_err<T>(result: Result<T, CliError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{}", e.message);
        std::process::exit(e.code);
    })
}

/// The process arguments, with flag accessors.
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures `std::env::args()` (program name skipped).
    #[must_use]
    pub fn from_env() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Wraps an explicit argument vector (tests).
    #[must_use]
    pub fn new(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// The raw arguments.
    #[must_use]
    pub fn raw(&self) -> &[String] {
        &self.raw
    }

    /// First value following `flag`, if present.
    #[must_use]
    pub fn get(&self, flag: &str) -> Option<String> {
        self.raw
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.raw.get(i + 1).cloned())
    }

    /// Every value following an occurrence of `flag` (for repeatable
    /// flags like `--set`).
    #[must_use]
    pub fn get_all(&self, flag: &str) -> Vec<String> {
        self.raw
            .iter()
            .enumerate()
            .filter(|(_, a)| *a == flag)
            .filter_map(|(i, _)| self.raw.get(i + 1).cloned())
            .collect()
    }

    /// Whether `flag` appears at all.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.raw.iter().any(|a| a == flag)
    }

    /// Parses `flag`'s value as a non-negative integer. Absent is
    /// `Ok(None)`; present-but-malformed is a usage error naming the
    /// flag and the value — never a silent default.
    ///
    /// # Errors
    ///
    /// [`CliError::usage`] for a malformed value.
    pub fn num(&self, flag: &str) -> Result<Option<u64>, CliError> {
        self.get(flag)
            .map(|s| {
                s.parse().map_err(|_| {
                    CliError::usage(format!(
                        "error: {flag} expects a non-negative integer, got {s:?}"
                    ))
                })
            })
            .transpose()
    }

    /// [`Self::num`] with a `u32` range check (out-of-range is an error,
    /// never a silent wrap).
    ///
    /// # Errors
    ///
    /// [`CliError::usage`] for a malformed or out-of-range value.
    pub fn num_u32(&self, flag: &str) -> Result<Option<u32>, CliError> {
        self.num(flag)?
            .map(|n| {
                u32::try_from(n).map_err(|_| {
                    CliError::usage(format!("error: {flag} value {n} exceeds {}", u32::MAX))
                })
            })
            .transpose()
    }

    /// Rejects any `--flag` token not in `value_flags` (which consume
    /// the next token) or `bool_flags` (which don't). Catches typos like
    /// `--wndow 8` that the old parsers silently ignored.
    ///
    /// # Errors
    ///
    /// [`CliError::usage`] naming the unknown flag.
    pub fn reject_unknown(
        &self,
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<(), CliError> {
        self.check_tokens(value_flags, bool_flags, None)
    }

    /// [`Self::reject_unknown`] for a command that takes no positional
    /// arguments: a bare word that is not a flag's value (a mistyped or
    /// retired subcommand) is rejected too, naming `subcommands`, instead
    /// of silently running the default configuration.
    ///
    /// # Errors
    ///
    /// [`CliError::usage`] naming the unknown flag or stray word.
    pub fn reject_unknown_and_words(
        &self,
        value_flags: &[&str],
        bool_flags: &[&str],
        subcommands: &[&str],
    ) -> Result<(), CliError> {
        self.check_tokens(value_flags, bool_flags, Some(subcommands))
    }

    /// Walks the tokens in order and reports the first unknown flag, or
    /// (with `subcommands`) the first stray bare word.
    fn check_tokens(
        &self,
        value_flags: &[&str],
        bool_flags: &[&str],
        subcommands: Option<&[&str]>,
    ) -> Result<(), CliError> {
        let mut i = 0;
        while i < self.raw.len() {
            let a = self.raw[i].as_str();
            if value_flags.contains(&a) {
                i += 2;
            } else if bool_flags.contains(&a) {
                i += 1;
            } else if a.starts_with("--") {
                let mut valid: Vec<&str> = value_flags.to_vec();
                valid.extend_from_slice(bool_flags);
                valid.sort_unstable();
                return Err(CliError::usage(format!(
                    "error: unrecognized flag {a:?}; valid flags: {}",
                    valid.join(", ")
                )));
            } else if let Some(subcommands) = subcommands {
                return Err(CliError::usage(format!(
                    "error: unexpected argument {a:?}; subcommands: {}; \
                     everything else is a --flag (see --help)",
                    subcommands.join(", ")
                )));
            } else {
                i += 1;
            }
        }
        Ok(())
    }
}

/// Exits with a message listing the valid spellings — an unrecognised
/// value must never silently run some default configuration instead.
#[must_use]
pub fn die_unknown(flag: &str, got: &str, valid: &[String]) -> CliError {
    CliError::usage(format!(
        "error: unrecognized {flag} {got:?}; valid values: {}",
        valid.join(", ")
    ))
}

/// Installs a `--jobs N` override for the parallel driver (wins over
/// `NDP_THREADS`), and validates `NDP_THREADS` itself so a malformed
/// value fails up front instead of panicking mid-sweep.
///
/// # Errors
///
/// [`CliError::usage`] for a malformed `--jobs` or `NDP_THREADS` value.
pub fn install_jobs(args: &Args) -> Result<(), CliError> {
    if let Some(jobs) = args.num("--jobs")? {
        if jobs == 0 {
            return Err(CliError::usage(
                "error: --jobs must be a positive integer, got 0".to_string(),
            ));
        }
        parallel::set_jobs(jobs as usize);
    }
    parallel::env_thread_count()
        .map(|_| ())
        .map_err(|e| CliError::usage(format!("error: {e}")))
}

/// The `ndpsim` flags that take a value, derived from the knob registry
/// plus the run-local extras.
#[must_use]
pub fn ndpsim_value_flags() -> Vec<&'static str> {
    let mut flags: Vec<&'static str> = KNOBS.iter().filter_map(|k| k.flag).collect();
    flags.extend_from_slice(&["--set", "--jobs"]);
    flags
}

/// The `ndpsim` boolean flags (no value).
pub const NDPSIM_BOOL_FLAGS: &[&str] = &["--no-asid", "--no-fracture", "--histogram", "--help"];

/// Builds a [`SimConfig`] from `ndpsim`-style flags, entirely driven by
/// the knob registry: every registered knob with a flag is parsed here,
/// so flags can never drift from `SimConfig` again. On top of the
/// registry pass it applies the flag-layer conveniences the CLI has
/// always had — `--no-asid`, `--no-fracture`, `--window` implying
/// matching MSHRs unless `--mshrs` narrows them, and the fast CLI
/// defaults (1 GB footprint, 30 k ops, warmup = ops/3) — then `--set
/// knob=value` overrides (applied last, spec-file semantics), then
/// validation.
///
/// # Errors
///
/// Usage errors (exit 2) for malformed flags or values; a semantic
/// error (exit 1) when the final config fails [`SimConfig::validate`].
pub fn config_from_args(args: &Args) -> Result<SimConfig, CliError> {
    let mut cfg = SimConfig::cli_default();
    for k in KNOBS {
        let Some(flag) = k.flag else { continue };
        let Some(raw) = args.get(flag) else { continue };
        let value = if k.flag_scale == 1 {
            raw
        } else {
            // Scaled flags (--footprint-mb) parse here so the overflow
            // check happens before the multiply.
            let n: u64 = raw.parse().map_err(|_| {
                CliError::usage(format!(
                    "error: {flag} expects a non-negative integer, got {raw:?}"
                ))
            })?;
            n.checked_mul(k.flag_scale)
                .ok_or_else(|| CliError::usage(format!("error: {flag} value {n} is too large")))?
                .to_string()
        };
        (k.apply)(&mut cfg, &value).map_err(|e| CliError::usage(format!("error: {flag} {e}")))?;
    }

    if args.has("--no-asid") {
        cfg.tlb_tagging = false;
    }
    if args.has("--no-fracture") {
        cfg.tlb_fracture_huge = Some(false);
    }
    if args.get("--window").is_some() && args.get("--mshrs").is_none() {
        // A wider window usually wants matching MSHRs; default to that
        // unless --mshrs narrows the file.
        cfg.mshrs_per_core = cfg.mlp_window.max(1);
    }
    if args.get("--warmup").is_none() {
        cfg.warmup_ops = cfg.measure_ops / 3;
    }

    apply_sets(&mut cfg, args)?;

    cfg.validate()
        .map_err(|e| CliError::semantic(e.to_string()))?;
    Ok(cfg)
}

/// Applies every `--set knob=value` override in argument order.
///
/// # Errors
///
/// Usage errors for a missing `=` or an unknown knob / bad value (the
/// unknown-knob message lists every registered knob).
pub fn apply_sets(cfg: &mut SimConfig, args: &Args) -> Result<(), CliError> {
    for setting in args.get_all("--set") {
        let (name, value) = setting.split_once('=').ok_or_else(|| {
            CliError::usage(format!("error: --set expects knob=value, got {setting:?}"))
        })?;
        apply_knob(cfg, name.trim(), value.trim())
            .map_err(|e| CliError::usage(format!("error: --set: {e}")))?;
    }
    Ok(())
}

/// The knob table rendered for `--help`: one line per registered knob
/// with its CLI flag (if any) and help text — generated from the same
/// registry that parses the flags, so help can never go stale.
#[must_use]
pub fn knob_help_table() -> String {
    let mut out = String::from("knobs (spec files / --set; flagged ones also ndpsim flags):\n");
    for k in KNOBS {
        let flag = k.flag.unwrap_or("");
        out.push_str(&format!("  {:<28} {:<16} {}\n", k.name, flag, k.help));
    }
    out.push_str(
        "  (plus flag-only conveniences: --no-asid = tlb_tagging=false, \
         --no-fracture = tlb_fracture_huge=false)\n",
    );
    out
}

/// Splits a comma-separated workload list, validating every name.
///
/// # Errors
///
/// A usage error listing the valid workload names.
pub fn parse_workload_list(
    flag: &str,
    s: &str,
) -> Result<Vec<ndp_workloads::WorkloadId>, CliError> {
    s.split(',')
        .map(str::trim)
        .filter(|w| !w.is_empty())
        .map(|w| parse_workload(w).ok_or_else(|| die_unknown(flag, w, &workload_names())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpage::Mechanism;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| (*s).to_string()).collect())
    }

    #[test]
    fn accessors() {
        let a = args(&[
            "--workload",
            "RND",
            "--histogram",
            "--set",
            "x=1",
            "--set",
            "y=2",
        ]);
        assert_eq!(a.get("--workload").as_deref(), Some("RND"));
        assert!(a.has("--histogram"));
        assert!(!a.has("--quick"));
        assert_eq!(a.get_all("--set"), vec!["x=1", "y=2"]);
    }

    #[test]
    fn numeric_parsing_is_strict() {
        let a = args(&["--cores", "4"]);
        assert_eq!(a.num("--cores").unwrap(), Some(4));
        assert_eq!(a.num("--missing").unwrap(), None);
        let bad = args(&["--cores", "x"]);
        let err = bad.num("--cores").unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--cores") && err.message.contains('x'));
        let wide = args(&["--cores", "4294967297"]);
        let err = wide.num_u32("--cores").unwrap_err();
        assert!(err.message.contains("exceeds"));
    }

    #[test]
    fn config_from_args_matches_legacy_defaults() {
        let cfg = config_from_args(&args(&[])).unwrap();
        assert_eq!(cfg.footprint_override, Some(1 << 30));
        assert_eq!(cfg.measure_ops, 30_000);
        assert_eq!(cfg.warmup_ops, 10_000);
        assert_eq!(cfg.mechanism, Mechanism::NdPage);
        assert_eq!(cfg.cores, 1);
    }

    #[test]
    fn window_implies_matching_mshrs_unless_narrowed() {
        let cfg = config_from_args(&args(&["--window", "8"])).unwrap();
        assert_eq!(cfg.mlp_window, 8);
        assert_eq!(cfg.mshrs_per_core, 8);
        let cfg = config_from_args(&args(&["--window", "8", "--mshrs", "2"])).unwrap();
        assert_eq!(cfg.mshrs_per_core, 2);
    }

    #[test]
    fn warmup_defaults_to_a_third_of_ops() {
        let cfg = config_from_args(&args(&["--ops", "9000"])).unwrap();
        assert_eq!(cfg.measure_ops, 9000);
        assert_eq!(cfg.warmup_ops, 3000);
        let cfg = config_from_args(&args(&["--ops", "9000", "--warmup", "10"])).unwrap();
        assert_eq!(cfg.warmup_ops, 10);
    }

    #[test]
    fn footprint_flag_scales_mib() {
        let cfg = config_from_args(&args(&["--footprint-mb", "256"])).unwrap();
        assert_eq!(cfg.footprint_override, Some(256 << 20));
    }

    #[test]
    fn bad_values_are_usage_errors() {
        let err = config_from_args(&args(&["--workload", "bsf"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("bsf") && err.message.contains("BFS"));
        let err = config_from_args(&args(&["--cores", "4294967297"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("exceeds"));
    }

    #[test]
    fn validation_failures_are_semantic_errors() {
        let err = config_from_args(&args(&["--window", "0"])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("mlp_window"));
    }

    #[test]
    fn set_overrides_apply_last() {
        let cfg = config_from_args(&args(&["--cores", "2", "--set", "cores=4"])).unwrap();
        assert_eq!(cfg.cores, 4);
        let err = config_from_args(&args(&["--set", "nope=1"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("nope") && err.message.contains("valid knobs"));
        let err = config_from_args(&args(&["--set", "cores"])).unwrap_err();
        assert!(err.message.contains("knob=value"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let a = args(&["--wndow", "8"]);
        let err = a
            .reject_unknown(&ndpsim_value_flags(), NDPSIM_BOOL_FLAGS)
            .unwrap_err();
        assert!(err.message.contains("--wndow"));
        let ok = args(&["--window", "8", "--no-asid"]);
        assert!(ok
            .reject_unknown(&ndpsim_value_flags(), NDPSIM_BOOL_FLAGS)
            .is_ok());
    }

    #[test]
    fn help_table_covers_every_knob() {
        let help = knob_help_table();
        for k in KNOBS {
            assert!(help.contains(k.name), "missing {}", k.name);
        }
        assert!(help.contains("--no-asid"));
    }

    #[test]
    fn workload_lists_validate() {
        let ws = parse_workload_list("--workloads", "RND, bfs").unwrap();
        assert_eq!(ws.len(), 2);
        let err = parse_workload_list("--workloads", "RND,bogus").unwrap_err();
        assert!(err.message.contains("bogus") && err.message.contains("BFS"));
    }
}
