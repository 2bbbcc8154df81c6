//! The repository's one benchmark. `run.sh` builds and runs this binary;
//! `README.md` describes the workloads, metrics and protocol.
//!
//! ```text
//! dai-benchmark --out DIR --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! dai-benchmark --out DIR [--seed N] [--seconds S] [--smoke]      all workloads, both runs
//! dai-benchmark --manifest                                         print BENCHMARK.json
//! dai-benchmark --describe [--seed N] [--smoke]                    what each workload runs
//! dai-benchmark --emit-programs DIR                                write programs/*.dai
//! ```
//!
//! With `--workload` the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod check;
mod exec;
mod gen;
mod ladder;
mod manifest;
mod prng;
mod probe;
mod run;
mod stack;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use dai_domains::{IntervalDomain, OctagonDomain};
use run::Report;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{DomainKind, Spec, FULL, SMOKE, SPECS};

/// The default `--seed`.
pub const DEFAULT_SEED: u64 = 0xDA1;

#[derive(Debug, Default)]
struct Args {
    out: Option<PathBuf>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    manifest: bool,
    describe: bool,
    emit_programs: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                args.seed = Some(parsed.map_err(|e| format!("--seed {v}: {e}"))?);
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = Some(v.parse().map_err(|e| format!("--seconds {v}: {e}"))?);
            }
            "--trace" => args.trace = value()? != "0",
            "--smoke" => args.smoke = true,
            "--manifest" => args.manifest = true,
            "--describe" => args.describe = true,
            "--emit-programs" => args.emit_programs = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The JSON object the contract asks for, on one line.
fn result_line(report: &Report) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            manifest::number(m.value),
            m.unit
        );
    }
    line.push_str("}}");
    line
}

fn print_report(spec: &Spec, traced: bool, report: &Report) {
    let run = if traced {
        "traced (per-layer)"
    } else {
        "untraced (end-to-end)"
    };
    println!("== {} — {run}", spec.name);
    for note in &report.notes {
        println!("   {note}");
    }
    for m in &report.metrics {
        println!(
            "   {:<36} {:>16} {}",
            m.name,
            manifest::number(m.value),
            m.unit
        );
    }
    for p in &report.problems {
        println!("   FAILED: {p}");
    }
    if report.known_mismatches > 0 {
        println!(
            "   KNOWN DEFECT: {} checked answers differ from a from-scratch analysis \
             (dai-core InterAnalyzer; see README, \"Known defect\")",
            report.known_mismatches
        );
    }
    println!(
        "   failed_share {} / {} {}",
        report.failed,
        report.attempted,
        if report.failed == 0 {
            "ok"
        } else {
            "INCORRECT"
        }
    );
}

/// Runs one workload in this process, inside a scratch directory of its
/// own under `out` (sockets, journal and snapshot files live there, under
/// relative names), and removes the directory afterwards.
fn run_workload(args: &Args, spec: &Spec, out: &Path) -> Result<Report, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let sizes = if args.smoke { &SMOKE } else { &FULL };
    let seconds = args.seconds.unwrap_or(if args.smoke {
        0.1
    } else {
        f64::from(manifest::RUN_SECONDS)
    });
    let out = std::fs::canonicalize(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let work = out.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    std::env::set_current_dir(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    // One client means one thread runs at a time: keep them on one CPU.
    // The durable workload is the concurrent one and keeps both.
    let pinned = (spec.transport != workloads::Transport::SocketJournal)
        .then(stats::pin_to_one_cpu)
        .flatten();
    let result = match (spec.domain, args.trace) {
        (DomainKind::Octagon, false) => {
            run::end_to_end::<OctagonDomain>(spec, seed, sizes, seconds, &work)
        }
        (DomainKind::Interval, false) => {
            run::end_to_end::<IntervalDomain>(spec, seed, sizes, seconds, &work)
        }
        (DomainKind::Octagon, true) => {
            ladder::traced::<OctagonDomain>(spec, seed, sizes, &work, &out)
        }
        (DomainKind::Interval, true) => {
            ladder::traced::<IntervalDomain>(spec, seed, sizes, &work, &out)
        }
    };
    let _ = std::env::set_current_dir(&out);
    let _ = std::fs::remove_dir_all(&work);
    let mut report = result.map_err(|e| format!("{}: {e}", spec.name))?;
    report.notes.push(match pinned {
        Some(cpu) => format!("process pinned to CPU {cpu}"),
        None => "process not pinned".to_string(),
    });
    Ok(report)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Where and on what the results were recorded, and what each workload
/// ran: seed, frozen sizes, script digest, load shape, configuration.
fn meta_json(args: &Args) -> String {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let sizes = if args.smoke { &SMOKE } else { &FULL };
    let mut out = format!(
        "{{\"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"seed\": {seed}, \
         \"run_seconds\": {}, \"sizes\": \"{sizes:?}\", \"workloads\": {{",
        std::thread::available_parallelism().map_or(0, usize::from),
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "HEAD"]),
        args.seconds.unwrap_or(f64::from(manifest::RUN_SECONDS)),
    );
    for (i, spec) in SPECS.iter().enumerate() {
        let script = workloads::script(spec, seed, sizes);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"script_digest\": \"{:016x}\", \"ops_per_repetition\": {}, \
             \"load\": \"closed loop, {} client(s), {} session(s)\", \"domain\": \"{:?}\", \
             \"resolver\": \"{:?}\", \"transport\": \"{:?}\", \"workers\": {}, \"why\": \"{}\"}}",
            spec.name,
            script.digest,
            script.op_count(),
            script.clients.len(),
            script.sources.len(),
            spec.domain,
            spec.resolver,
            spec.transport,
            spec.workers,
            spec.why
        );
    }
    out.push_str("}}");
    out
}

/// Runs every workload, untraced and traced, each in a child process of
/// its own so that no workload inherits another's heap (`peak_rss_mb`),
/// and writes the results to `out/results.json`.
fn run_all(args: &Args, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut results = format!("{{\n  \"_meta\": {},\n", meta_json(args));
    for (w, spec) in SPECS.iter().enumerate() {
        let mut lines = Vec::new();
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .arg("--out")
                .arg(out)
                .args(["--workload", spec.name, "--trace", trace]);
            if let Some(seed) = args.seed {
                child.args(["--seed", &seed.to_string()]);
            }
            if let Some(seconds) = args.seconds {
                child.args(["--seconds", &seconds.to_string()]);
            }
            if args.smoke {
                child.arg("--smoke");
            }
            // `output` waits for the child to end.
            let output = child
                .output()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (body, last) = match stdout.trim_end().rsplit_once('\n') {
                Some((body, last)) => (body, last),
                None => ("", stdout.trim_end()),
            };
            println!("{body}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            if !output.status.success() || !last.contains("\"correct\": true") {
                all_correct = false;
            }
            lines.push(if last.starts_with('{') {
                last.to_string()
            } else {
                "null".to_string()
            });
        }
        let sep = if w + 1 == SPECS.len() { "" } else { "," };
        let _ = writeln!(
            results,
            "  \"{}\": {{\"end_to_end\": {}, \"per_layer\": {}}}{sep}",
            spec.name, lines[0], lines[1]
        );
    }
    results.push_str("}\n");
    let path = out.join("results.json");
    std::fs::write(&path, results).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dai-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", manifest::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.describe {
        println!("{}", meta_json(&args));
        return ExitCode::SUCCESS;
    }
    if let Some(dir) = &args.emit_programs {
        for (name, text) in gen::source_programs() {
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("dai-benchmark: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    let Some(out) = args.out.clone() else {
        eprintln!("dai-benchmark: --out DIR is required (run.sh passes benchmark/out)");
        return ExitCode::from(2);
    };
    let Some(name) = &args.workload else {
        return match run_all(&args, &out) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("dai-benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let Some(spec) = workloads::spec(name) else {
        eprintln!("dai-benchmark: no workload `{name}`");
        return ExitCode::from(2);
    };
    match run_workload(&args, spec, &out) {
        Ok(report) => {
            print_report(spec, args.trace, &report);
            println!("{}", result_line(&report));
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            // No result line: the run could not be made at all.
            eprintln!("dai-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
