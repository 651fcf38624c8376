//! `lsqbench` — the benchmark's command line.
//!
//! ```text
//! lsqbench [run|trace] [--workload <name>|all] [--seed <n>] [--seconds <s>]
//!          [--trace 0|1] [--workers <n>] [--out <file>] [--spans <file>]
//! lsqbench --bless --reason "<why>" [--seed <n>]
//! ```
//!
//! `run` (or `--trace 0`) is the untraced pass that end-to-end metrics
//! come from; `trace` (or `--trace 1`) is the separate traced pass that
//! per-layer metrics come from. Each workload runs for `--seconds` as a
//! series of batches, one fresh child process per batch and one child at
//! a time. The last line of standard output is the JSON result. Exit
//! status: 0 when every operation passed its checks, 1 when one failed,
//! 2 on a usage error or a build with debug assertions.

use lsq_obs::Json;
use lsqbench::batch::{self, BatchReport};
use lsqbench::golden::{self, Op, Reference};
use lsqbench::layers::{self, Span};
use lsqbench::report;
use lsqbench::workload::{Pass, Workload};
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// How long a child may outlive the measuring window before it is
/// killed and its batch counted as failed.
const CHILD_GRACE: Duration = Duration::from_secs(120);

#[derive(Debug)]
struct Args {
    trace: bool,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    workers: usize,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    bless: bool,
    reason: Option<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\n\nusage: lsqbench [run|trace] [--workload <name>|all] [--seed <n>] \
         [--seconds <s>] [--trace 0|1] [--workers <n>] [--out <file>] [--spans <file>]\n       \
         lsqbench --bless --reason \"<why>\" [--seed <n>]\nworkloads: paper_all seg_search \
         mem_bound store_squash"
    );
    std::process::exit(2);
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        trace: false,
        workload: None,
        seed: 1,
        seconds: 20.0,
        workers: nproc(),
        out: None,
        spans: None,
        bless: false,
        reason: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "run" => args.trace = false,
            "trace" => args.trace = true,
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    other => usage(&format!("--trace wants 0 or 1, not {other}")),
                }
            }
            "--workload" => {
                let name = value();
                args.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(
                        Workload::parse(&name)
                            .unwrap_or_else(|| usage(&format!("unknown workload {name}"))),
                    ),
                }
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--workers" => {
                args.workers = value()
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("bad --workers"))
            }
            "--out" => args.out = Some(PathBuf::from(value())),
            "--spans" => args.spans = Some(PathBuf::from(value())),
            "--bless" => args.bless = true,
            "--reason" => args.reason = Some(value()),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    args
}

fn git_rev() -> String {
    Command::new("git")
        .args([
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What one child process should do.
#[derive(Debug, Clone, Copy)]
struct ChildTask {
    workload: Workload,
    seed: u64,
    pass: Pass,
    workers: usize,
    profiled: bool,
    setup: bool,
    layers: bool,
}

/// Reads a child's pipe to the end on its own thread, so neither pipe
/// can fill and stall the child.
fn drain<R: Read + Send + 'static>(pipe: Option<R>) -> std::thread::JoinHandle<String> {
    std::thread::spawn(move || {
        let mut text = String::new();
        if let Some(mut p) = pipe {
            let _ = p.read_to_string(&mut text);
        }
        text
    })
}

/// Runs one batch in a fresh child process with a clean environment:
/// only the engine's worker count, progress off, and (for a profiled
/// batch) the self-profiler are set, so stray `LSQ_*` settings cannot
/// perturb it. Kills the child at `deadline`.
fn run_child(task: ChildTask, deadline: Instant) -> Result<BatchReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let flag = |b: bool| if b { "1" } else { "0" };
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        task.workload.name(),
        &task.seed.to_string(),
        task.pass.name(),
        &task.workers.to_string(),
        flag(task.setup),
        flag(task.layers),
    ])
    .env_clear()
    .env("LSQ_JOBS", task.workers.to_string())
    .env("LSQ_PROGRESS", "0")
    .stdin(Stdio::null())
    .stdout(Stdio::piped())
    .stderr(Stdio::piped());
    if task.profiled {
        cmd.env("LSQ_PROFILE", "1");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = drain(child.stdout.take());
    let stderr = drain(child.stderr.take());
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let stdout = stdout.join().unwrap_or_default();
    let stderr = stderr.join().unwrap_or_default();
    let lines: Vec<&str> = stderr.lines().collect();
    let tail = lines[lines.len().saturating_sub(5)..].join(" | ");
    match status {
        None => Err(format!(
            "{} batch timed out and was killed",
            task.workload.name()
        )),
        Some(s) if !s.success() => Err(format!(
            "{} batch failed ({s}): {tail}",
            task.workload.name()
        )),
        Some(_) => stdout
            .lines()
            .last()
            .and_then(|l| Json::parse(l).ok())
            .as_ref()
            .and_then(BatchReport::from_json)
            .ok_or_else(|| format!("{} batch printed no report", task.workload.name())),
    }
}

/// The child side: one batch, then the requested passes, then one JSON
/// line on standard output.
fn child_main(argv: &[String]) -> ExitCode {
    let parsed = (|| {
        let [workload, seed, pass, workers, setup, layers] = argv else {
            return None;
        };
        Some((
            Workload::parse(workload)?,
            seed.parse::<u64>().ok()?,
            Pass::ALL.into_iter().find(|p| p.name() == pass)?,
            workers.parse::<usize>().ok()?,
            setup == "1",
            layers == "1",
        ))
    })();
    let Some((workload, seed, pass, workers, setup, layers)) = parsed else {
        eprintln!("lsqbench child: bad arguments {argv:?}");
        return ExitCode::from(2);
    };
    let budget = workload.budget(pass);
    let mut report = batch::run_batch(workload, seed, budget, workers);
    let extra = (|| -> Result<(), String> {
        if setup {
            report.setup_ns = Some(batch::setup_pass(workload, seed, budget)?);
        }
        if layers {
            report.spans = layers::run_layers(workload, seed, budget, report.counted())?;
        }
        Ok(())
    })();
    if let Err(e) = extra {
        eprintln!("lsqbench child: {e}");
        return ExitCode::from(1);
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

/// One workload's outcome.
struct Outcome {
    batches: usize,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(String, f64)>,
}

/// Runs batches of `workload` for `args.seconds` (at least one batch, and
/// in the trace pass at least one untraced and one profiled batch),
/// checking every operation. Appends the batches' spans to `spans`.
fn measure(args: &Args, workload: Workload, origin: Instant, spans: &mut Vec<Span>) -> Outcome {
    let pass = if args.trace { Pass::Trace } else { Pass::Run };
    let reference = match Reference::load(args.seed) {
        Ok(r) => r,
        Err(e) => {
            return Outcome {
                batches: 0,
                attempted: 1,
                failed: 1,
                failures: vec![format!("reference outputs: {e}")],
                metrics: Vec::new(),
            }
        }
    };
    let reference_ops = reference
        .as_ref()
        .and_then(|r| r.ops(workload.name(), pass.name()));
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds) + CHILD_GRACE;
    let (mut untraced, mut profiled) = (Vec::<BatchReport>::new(), Vec::<BatchReport>::new());
    let mut last_secs = [0.0f64; 2];
    let mut first: Option<Vec<Op>> = None;
    let mut out = Outcome {
        batches: 0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
    };
    let min_batches = if args.trace { 2 } else { 1 };
    for k in 0.. {
        let profile = args.trace && k % 2 == 1;
        let elapsed = started.elapsed().as_secs_f64();
        if k >= min_batches && elapsed + last_secs[usize::from(profile)] > args.seconds {
            break;
        }
        let task = ChildTask {
            workload,
            seed: args.seed,
            pass,
            workers: args.workers,
            profiled: profile,
            setup: !args.trace,
            layers: args.trace && k == 0,
        };
        let t0 = Instant::now();
        let result = run_child(task, deadline);
        let dur = t0.elapsed();
        last_secs[usize::from(profile)] = dur.as_secs_f64();
        out.batches += 1;
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                // A lost batch fails every operation it held.
                let lost = first.as_ref().map_or(1, |f| f.len() as u64);
                out.attempted += lost;
                out.failed += lost;
                out.failures.push(e);
                return out;
            }
        };
        let failures = golden::failures(&report.ops, reference_ops, first.as_deref());
        out.attempted += report.ops.len() as u64;
        out.failed += failures.len() as u64;
        out.failures.extend(failures);
        first.get_or_insert_with(|| report.ops.clone());
        let batch_id = spans.len() as u64;
        let offset = (t0 - origin).as_nanos() as u64;
        spans.push(Span {
            name: "batch".to_string(),
            job: 0,
            id: batch_id,
            parent: None,
            start_ns: offset,
            dur_ns: dur.as_nanos() as u64,
            args: vec![
                ("workload".to_string(), workload.name().into()),
                ("pass".to_string(), pass.name().into()),
                ("profiled".to_string(), profile.into()),
            ],
        });
        for mut s in report.spans.iter().cloned() {
            s.id += batch_id + 1;
            s.parent = Some(s.parent.map_or(batch_id, |p| p + batch_id + 1));
            s.start_ns += offset;
            spans.push(s);
        }
        if profile {
            profiled.push(report);
        } else {
            untraced.push(report);
        }
    }
    out.metrics = if args.trace {
        report::per_layer(&untraced, &profiled, args.workers)
    } else {
        report::end_to_end(&untraced)
    };
    out
}

fn bless(args: &Args) -> ExitCode {
    let Some(reason) = args.reason.as_deref().filter(|r| !r.trim().is_empty()) else {
        usage("--bless needs --reason \"<why the reference outputs change>\"");
    };
    let mut reference = Reference {
        seed: args.seed,
        sections: Vec::new(),
    };
    for workload in Workload::ALL {
        for pass in Pass::ALL {
            let task = ChildTask {
                workload,
                seed: args.seed,
                pass,
                workers: args.workers,
                profiled: false,
                setup: false,
                layers: false,
            };
            let ops = match run_child(task, Instant::now() + CHILD_GRACE) {
                Ok(r) => r.ops,
                Err(e) => {
                    eprintln!("lsqbench: cannot bless: {e}");
                    return ExitCode::from(1);
                }
            };
            let failures = golden::failures(&ops, None, None);
            if !failures.is_empty() {
                eprintln!("lsqbench: cannot bless: {}", failures.join("; "));
                return ExitCode::from(1);
            }
            println!("{} {}: {} records", workload.name(), pass.name(), ops.len());
            reference
                .sections
                .push((workload.name().to_string(), pass.name().to_string(), ops));
        }
    }
    let path = Reference::path(args.seed);
    if let Err(e) = std::fs::write(&path, reference.render(reason, &git_rev())) {
        eprintln!("lsqbench: cannot write {}: {e}", path.display());
        return ExitCode::from(1);
    }
    println!("wrote {}", path.display());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("lsqbench: built with debug assertions; timings need --release");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("child") {
        return child_main(&argv[1..]);
    }
    let args = parse_args(&argv);
    if args.bless {
        return bless(&args);
    }
    let origin = Instant::now();
    let rev = git_rev();
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mode = if args.trace { "trace" } else { "run" };
    let mut spans = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut failures = Vec::new();
    for &workload in &workloads {
        let o = measure(&args, workload, origin, &mut spans);
        println!(
            "lsqbench {mode}: workload={} seed={} workers={} nproc={} rev={rev} batches={} \
             attempted={} failed={}",
            workload.name(),
            args.seed,
            args.workers,
            nproc(),
            o.batches,
            o.attempted,
            o.failed,
        );
        for (name, value) in &o.metrics {
            println!("  {name:<32} {value:>14.6} {}", report::unit(name));
        }
        for f in o.failures.iter().take(5) {
            eprintln!("lsqbench: FAILED {f}");
        }
        attempted += o.attempted;
        failed += o.failed;
        failures.extend(o.failures);
        for (name, value) in o.metrics {
            let name = if workloads.len() == 1 {
                name
            } else {
                format!("{}/{name}", workload.name())
            };
            metrics.push((name, value));
        }
    }
    let result = report::result_json(attempted, failed, &metrics);
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, layers::chrome_trace(&spans).to_string()) {
            eprintln!("lsqbench: cannot write {}: {e}", path.display());
        }
    }
    if let Some(path) = &args.out {
        let doc = Json::obj(vec![
            ("git_rev", rev.as_str().into()),
            ("nproc", nproc().into()),
            ("workers", args.workers.into()),
            ("seed", args.seed.into()),
            ("mode", mode.into()),
            ("seconds", args.seconds.into()),
            ("result", result.clone()),
            (
                "failures",
                Json::Arr(failures.iter().map(|f| f.as_str().into()).collect()),
            ),
        ]);
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("lsqbench: cannot write {}: {e}", path.display());
        }
    }
    println!("{result}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
