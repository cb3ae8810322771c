//! The `service` workload: a closed loop of one client over one TCP
//! connection to `ndpsim serve --workers 2 --jobs 1`.
//!
//! Each iteration submits a distinct 8-row job (its own seed, so its own
//! job id), watches it to its last row, asks its status, then re-watches
//! the previous, finished job (rows served from disk). Once the loop
//! ends, every job's spec is re-run in-process with `run_sweep`, and the
//! served rows must match those bytes.

use crate::grid::{peak_rss_mb, sim_ops, sim_seed};
use crate::report::Outcome;
use crate::stats::{median, tail};
use crate::trace::{SpanId, Tracer};
use crate::Args;
use ndp_bench::calibration;
use ndp_sim::spec::{parse_json, run_sweep, Json, SweepSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

/// Server starts timed for `setup_s` (the last one serves the loop).
const STARTS: usize = 25;

/// Fewest measured jobs, whatever `--seconds` says (40 jobs put the
/// tail at p75 or higher).
const MIN_JOBS: usize = 40;

/// Supervisor worker processes per job, and threads per worker.
const WORKERS: u32 = 2;

/// Fractional part of `k * step`: with an irrational `step` the values
/// cover [0, 1) evenly for any number of jobs (a low-discrepancy
/// sequence), so per-run medians do not depend on which draws a run got.
fn spread(k: u64, step: f64) -> f64 {
    (k as f64 * step).fract()
}

/// The job spec of iteration `k`: RND/BFS x radix/ndpage/ech/ideal on
/// NDP 4 cores, 64 MiB per core, 2k warmup ops per core and 2k..10k
/// measured ops spread over the jobs. The spread of job sizes keeps the
/// server's 25 ms supervisor and 50 ms executor poll grids from
/// quantizing the latency median (see `pause`). The benchmark seed sets
/// each job's simulator seed.
fn job_spec(seed: u64, k: u64) -> String {
    let s = sim_seed(seed.wrapping_mul(1_000_003).wrapping_add(k));
    let measure = 2_000 + (spread(k, 0.618_033_988_749_895) * 8_000.0) as u64;
    format!(
        "{{\"name\":\"service-job\",\"base\":{{\
         \"warmup_ops\":2000,\"measure_ops\":{measure},\"footprint\":67108864,\"seed\":{s}}},\
         \"axes\":[{{\"knob\":\"system\",\"values\":[\"ndp\"]}},{{\"knob\":\"cores\",\"values\":[4]}},\
         {{\"knob\":\"workload\",\"values\":[\"RND\",\"BFS\"]}},\
         {{\"knob\":\"mechanism\",\"values\":[\"radix\",\"ndpage\",\"ech\",\"ideal\"]}}]}}"
    )
}

/// A running server, killed and reaped if dropped while still alive.
struct Server {
    child: Child,
    addr: String,
    stdout: Option<std::thread::JoinHandle<Vec<String>>>,
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Server {
    /// Spawns the server and waits for its `listening` line; returns it
    /// with the seconds that took.
    fn start(ndpsim: &Path, state: &Path, log: &Path) -> Result<(Server, f64), String> {
        let _ = std::fs::remove_dir_all(state);
        let log = std::fs::File::create(log).map_err(|e| format!("server log: {e}"))?;
        let t0 = Instant::now();
        let mut child = Command::new(ndpsim)
            .arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--state")
            .arg(state)
            .arg("--workers")
            .arg(WORKERS.to_string())
            .arg("--jobs")
            .arg("1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ndpsim.display()))?;
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let first = lines.next();
        let secs = t0.elapsed().as_secs_f64();
        let mut server = Server {
            child,
            addr: String::new(),
            stdout: None,
        };
        let first = match first {
            Some(Ok(l)) => l,
            _ => return Err("server exited before listening".into()),
        };
        server.addr = parse_json(&first)
            .ok()
            .and_then(|v| v.get("addr").and_then(Json::scalar))
            .ok_or_else(|| format!("unexpected first server line {first:?}"))?;
        // Keep draining stdout (the supervisor's per-job summaries) so
        // the pipe never fills; the lines are parsed after shutdown.
        server.stdout = Some(std::thread::spawn(move || {
            lines.map_while(Result::ok).collect()
        }));
        Ok((server, secs))
    }

    /// Drains the server with `shutdown` and reaps it; returns its stdout.
    fn shutdown(mut self, conn: &mut Conn) -> Result<Vec<String>, String> {
        conn.request("{\"verb\":\"shutdown\"}")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while matches!(self.child.try_wait(), Ok(None)) {
            if Instant::now() > deadline {
                return Err("server did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let out = self.stdout.take().map(|h| h.join().unwrap_or_default());
        Ok(out.unwrap_or_default())
    }
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A response: its lines and when the first and last arrived.
struct Response {
    lines: Vec<String>,
    first: Instant,
    last: Instant,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer: s })
    }

    /// Sends one request line and reads the response up to its blank
    /// terminator.
    fn request(&mut self, line: &str) -> Result<Response, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut lines = Vec::new();
        let mut first = None;
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = self
                .reader
                .read_line(&mut buf)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            let now = Instant::now();
            let text = buf.trim_end_matches(['\n', '\r']);
            if text.is_empty() {
                return Ok(Response {
                    lines,
                    first: first.unwrap_or(now),
                    last: now,
                });
            }
            first.get_or_insert(now);
            lines.push(text.to_string());
        }
    }
}

fn field(line: &str, key: &str) -> Option<String> {
    parse_json(line).ok()?.get(key).and_then(Json::scalar)
}

/// One measured job.
struct Job {
    spec: String,
    /// Why the job counts as failed (empty when it passed every check).
    problems: Vec<String>,
    rows: Vec<String>,
    latency_ms: f64,
    first_row_ms: f64,
    iteration_s: f64,
    traced: bool,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Milliseconds from `a` to `b` on the wall clock (negative if `b` is
/// earlier).
fn wall_ms(a: SystemTime, b: SystemTime) -> f64 {
    match b.duration_since(a) {
        Ok(d) => ms(d),
        Err(e) => -ms(e.duration()),
    }
}

/// A pause in [0, 50) ms, spread over the jobs like the job sizes: before
/// submit `k` (think time, `step` 0.414...) or between submit `k` and its
/// watch (`step` 0.732...).
///
/// The server works on 50 ms poll grids: the executor checks its queue
/// every 50 ms, and `watch` checks for rows every 50 ms from the moment
/// it is asked. Without these pauses the closed loop locks onto those
/// grids, and the latency median jumps by whole grid steps between runs
/// (150 or 200 ms) with small changes in host speed. Random pauses put
/// each submit and each watch at a random point of the grids, so the
/// measured latency is continuous. Neither pause counts in latency or
/// `wall_s`.
fn pause(k: u64, step: f64) -> Duration {
    Duration::from_secs_f64(spread(k, step) * 0.05)
}

/// Submits `spec`, waits `delay`, and watches the job to its last row;
/// returns the job id, the submit instant and the watch response.
fn submit_and_watch(
    conn: &mut Conn,
    spec: &str,
    delay: Duration,
    tr: &Tracer,
    out: &mut Samples,
) -> Result<(String, Instant, Response), String> {
    let t0 = Instant::now();
    let sys0 = SystemTime::now();
    let sub = tr.span("serve.submit", SpanId::NONE, || {
        conn.request(&format!("{{\"verb\":\"submit\",\"spec\":{spec}}}"))
    })?;
    let first = sub.lines.first().cloned().unwrap_or_default();
    let id = match (field(&first, "ok").as_deref(), field(&first, "job")) {
        (Some("true"), Some(id)) => id,
        _ => return Err(format!("submit refused: {first}")),
    };
    out.submit_ms.push(ms(sub.last - t0));
    out.submit_sys = Some(sys0);
    std::thread::sleep(delay);
    let watch = tr.span("serve.watch", SpanId::NONE, || {
        conn.request(&format!("{{\"verb\":\"watch\",\"job\":\"{id}\"}}"))
    })?;
    Ok((id, t0, watch))
}

#[derive(Default)]
struct Samples {
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    done_to_last_ms: Vec<f64>,
    rewatch_ms: Vec<f64>,
    submit_sys: Option<SystemTime>,
}

/// Runs the service workload and records its metrics.
///
/// # Errors
///
/// The server cannot be built, started, reached or shut down.
pub fn run(args: &Args, tr: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let ndpsim: PathBuf = args
        .ndpsim
        .clone()
        .ok_or("the service workload needs --ndpsim PATH (run.py passes it)")?;
    let dir = args.work.join("service");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;

    // Set-up: the server's start-to-listening time, several times over.
    let mut starts = Vec::new();
    let mut server = None;
    for k in 0..STARTS {
        let (s, secs) = tr.span("serve.start", SpanId::NONE, || {
            Server::start(
                &ndpsim,
                &dir.join(format!("state-{k}")),
                &dir.join(format!("server-{k}.log")),
            )
        })?;
        starts.push(secs);
        if k + 1 < STARTS {
            let mut c = Conn::open(&s.addr)?;
            s.shutdown(&mut c)?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("the last start serves the loop");
    let state = dir.join(format!("state-{}", STARTS - 1));
    let journal = state.join("journal.jsonl");
    let mut conn = Conn::open(&server.addr)?;

    // Warm-up job (not measured); it is the first re-watch target.
    let mut samples = Samples::default();
    let warm_spec = job_spec(args.seed, 0);
    let (mut prev_id, _, warm) =
        submit_and_watch(&mut conn, &warm_spec, Duration::ZERO, tr, &mut samples)?;
    let mut prev_rows = warm.lines;
    samples = Samples::default();

    let loop_start = Instant::now();
    let mut jobs: Vec<Job> = Vec::new();
    while jobs.len() < MIN_JOBS || loop_start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && jobs.len().is_multiple_of(2);
        tr.set_on(traced);
        let k = jobs.len() as u64 + 1;
        let spec = job_spec(args.seed, k);
        let delay = pause(k, 0.732_050_807_568_877);
        std::thread::sleep(pause(k, 0.414_213_562_373_095));
        let it0 = Instant::now();
        let (id, t0, watch) = submit_and_watch(&mut conn, &spec, delay, tr, &mut samples)?;
        let mut problems = Vec::new();
        let last_sys = SystemTime::now();
        let latency_ms = ms(watch.last - t0);
        let first_row_ms = ms(watch.first - t0);

        let s0 = Instant::now();
        let status = tr.span("serve.status", SpanId::NONE, || {
            conn.request(&format!("{{\"verb\":\"status\",\"job\":\"{id}\"}}"))
        })?;
        samples.status_ms.push(ms(s0.elapsed()));
        let rec = status.lines.first().cloned().unwrap_or_default();
        let state_now = field(&rec, "state").unwrap_or_default();
        let job_wall_ms = field(&rec, "wall_s")
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
            * 1e3;
        // The journal's last append is this job's terminal record.
        if let Ok(done) = std::fs::metadata(&journal).and_then(|m| m.modified()) {
            samples.done_to_last_ms.push(wall_ms(done, last_sys));
            if let Some(sub) = samples.submit_sys {
                samples.queue_wait_ms.push(wall_ms(sub, done) - job_wall_ms);
            }
        }
        if state_now != "done" {
            problems.push(format!("ended {state_now:?}"));
        }

        let r0 = Instant::now();
        let again = tr.span("serve.rewatch", SpanId::NONE, || {
            conn.request(&format!("{{\"verb\":\"watch\",\"job\":\"{prev_id}\"}}"))
        })?;
        samples.rewatch_ms.push(ms(again.last - r0));
        if again.lines != prev_rows {
            problems.push("the re-watch before it served different rows".to_string());
        }

        jobs.push(Job {
            spec,
            problems,
            rows: watch.lines.clone(),
            latency_ms,
            first_row_ms,
            iteration_s: (it0.elapsed() - delay).as_secs_f64(),
            traced,
        });
        prev_id = id;
        prev_rows = watch.lines;
    }
    tr.set_on(args.trace);

    let rss = peak_rss_mb(Some(server.child.id()));
    let journal_bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
    let stdout = server.shutdown(&mut conn)?;
    drop(conn);

    // Supervisor process accounting from its per-job summaries.
    let (mut spawns, mut respawns) = (0u64, 0u64);
    for line in stdout.iter().filter(|l| l.contains("\"shards\"")) {
        if let Ok(v) = parse_json(line) {
            if let Some(Json::Arr(shards)) = v.get("shards") {
                for s in shards {
                    let a: u64 = s
                        .get("attempts")
                        .and_then(Json::scalar)
                        .and_then(|x| x.parse().ok())
                        .unwrap_or(0);
                    spawns += a;
                    respawns += a.saturating_sub(1);
                }
            }
        }
    }

    // In-process references: the same specs through `run_sweep`.
    let mut overhead_ms = Vec::new();
    let mut sink_s = Vec::new();
    let mut reports = Vec::new();
    let mut all_rows = String::new();
    let mut sim_ops_total = 0u64;
    for (k, job) in jobs.iter().enumerate() {
        let spec = SweepSpec::from_json(&job.spec).map_err(|e| format!("job spec: {e}"))?;
        let points = spec.expand().map_err(|e| format!("job spec: {e}"))?;
        sim_ops_total += points.iter().map(|p| sim_ops(&p.config)).sum::<u64>();
        let a = Instant::now();
        let result = tr
            .span("supervisor.reference", SpanId::NONE, || run_sweep(&spec))
            .map_err(|e| format!("reference sweep: {e}"))?;
        overhead_ms.push(job.latency_ms - ms(a.elapsed()));
        let b = Instant::now();
        let lines: Vec<String> = tr.span("spec.sink", SpanId::NONE, || {
            result.rows.iter().map(|r| r.to_jsonl()).collect()
        });
        sink_s.push(b.elapsed().as_secs_f64());
        let mut problems = job.problems.clone();
        if job.rows != lines {
            problems.push(format!(
                "served {} rows differing from the in-process run_sweep's {}",
                job.rows.len(),
                lines.len()
            ));
        }
        out.check(1, problems.is_empty(), || {
            format!("job {k}: {}", problems.join("; "))
        });
        for l in &job.rows {
            all_rows.push_str(l);
            all_rows.push('\n');
        }
        reports.extend(result.rows.into_iter().map(|r| r.report));
    }

    let n = jobs.len();
    let lat: Vec<f64> = jobs.iter().map(|j| j.latency_ms).collect();
    let t = tail(&lat);
    out.notes.push(format!(
        "job_tail_ms is p{} of {} job latencies ({} beyond it)",
        t.pct, t.samples, t.beyond
    ));
    let first_spec = SweepSpec::from_json(&jobs[0].spec).map_err(|e| format!("job spec: {e}"))?;
    let iters: Vec<f64> = jobs.iter().map(|j| j.iteration_s).collect();
    out.set("wall_s", median(&iters), n);
    out.set("setup_s", median(&starts), STARTS);
    out.set(
        "sim_ops_per_s",
        sim_ops_total as f64 / iters.iter().sum::<f64>(),
        n,
    );
    out.set("peak_rss_mb", rss.unwrap_or(0.0), 1);
    out.set("job_p50_ms", median(&lat), n);
    out.set("job_tail_ms", t.value, t.samples);
    out.set(
        "serve.first_row_ms",
        median(&jobs.iter().map(|j| j.first_row_ms).collect::<Vec<_>>()),
        n,
    );
    out.set(
        "serve.rewatch_ms",
        median(&samples.rewatch_ms),
        samples.rewatch_ms.len(),
    );

    out.set(
        "serve.submit_rtt_ms",
        median(&samples.submit_ms),
        samples.submit_ms.len(),
    );
    out.set(
        "serve.status_rtt_ms",
        median(&samples.status_ms),
        samples.status_ms.len(),
    );
    out.set(
        "serve.queue_wait_ms",
        median(&samples.queue_wait_ms),
        samples.queue_wait_ms.len(),
    );
    out.set(
        "serve.done_to_last_row_ms",
        median(&samples.done_to_last_ms),
        samples.done_to_last_ms.len(),
    );
    out.set(
        "serve.journal_bytes",
        journal_bytes as f64 / (n + 1) as f64,
        n + 1,
    );
    out.set("supervisor.overhead_ms", median(&overhead_ms), n);
    out.set("supervisor.spawns", spawns as f64, n + 1);
    out.set("supervisor.respawns", respawns as f64, n + 1);
    out.set("spec.sink_s", median(&sink_s), n);
    let a = Instant::now();
    let _ = std::hint::black_box(tr.span("spec.expand", SpanId::NONE, || first_spec.expand()));
    out.set("spec.expand_s", a.elapsed().as_secs_f64(), 1);
    let a = Instant::now();
    let ingested = tr.span("spec.ingest", SpanId::NONE, || {
        ndp_sim::spec::ingest_jsonl(&all_rows, "served rows")
    });
    out.set("spec.ingest_s", a.elapsed().as_secs_f64(), 1);
    out.check(
        1,
        ingested.is_ok_and(|i| i.rows.len() == all_rows.lines().count()),
        || "served rows do not ingest".to_string(),
    );

    let a = Instant::now();
    let findings = tr
        .span("calibration.evaluate", SpanId::NONE, || {
            calibration::parse_rows(&all_rows)
                .and_then(|rows| calibration::evaluate(&rows, &[], 1.0))
        })
        .map_err(|e| format!("calibration: {e}"))?;
    out.set("calibration.evaluate_s", a.elapsed().as_secs_f64(), 1);
    out.set(
        "calibration.in_band",
        findings.iter().filter(|f| f.pass).count() as f64,
        findings.len(),
    );
    out.set(
        "cal_max_rel_dev",
        calibration::max_rel_deviation(&findings),
        findings.len(),
    );

    if args.trace {
        let on: Vec<f64> = jobs
            .iter()
            .filter(|j| j.traced)
            .map(|j| j.iteration_s)
            .collect();
        let off: Vec<f64> = jobs
            .iter()
            .filter(|j| !j.traced)
            .map(|j| j.iteration_s)
            .collect();
        out.set("trace.overhead_s", median(&on) - median(&off), n);
    }
    let refs: Vec<_> = reports.iter().collect();
    crate::model::record(&refs, out);
    Ok(())
}
