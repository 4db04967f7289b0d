//! `honeybench` command line.
//!
//! ```text
//! honeybench [run|trace] [--workload NAME] [--seed S] [--seconds N]
//!            [--trace 0|1] [--out FILE.json] [--trace-out SPANS.jsonl]
//!            [--smoke] [--server-bin PATH]
//! ```
//!
//! `run` (the default) measures the end-to-end metrics with tracing off;
//! `trace` (or `--trace 1`) measures the per-layer metrics. Without
//! `--workload` every workload runs in turn. Each workload prints its
//! metrics by name with their units, then one JSON result line; the exit
//! code is non-zero if any correctness gate failed, and then no `--out`
//! file is written.

use honeybench::{live, metrics, offline, Outcome, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    smoke: bool,
    server_bin: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: honeybench [run|trace] [--workload {}] [--seed S] [--seconds N] [--trace 0|1] \
         [--out FILE] [--trace-out FILE] [--smoke] [--server-bin PATH]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 15.0,
        traced: false,
        out: None,
        trace_out: None,
        smoke: false,
        server_bin: None,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "run" => a.traced = false,
            "trace" => a.traced = true,
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload '{w}'"));
                }
                a.workloads.push(w);
            }
            "--seed" => a.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                a.seconds = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
                seconds_given = true;
            }
            "--trace" => {
                a.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => a.out = Some(value("--out")?.into()),
            "--trace-out" => a.trace_out = Some(value("--trace-out")?.into()),
            "--server-bin" => a.server_bin = Some(value("--server-bin")?.into()),
            "--smoke" => a.smoke = true,
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    if a.smoke && !seconds_given {
        a.seconds = 2.0;
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// The server under test: `honeylab` next to this executable.
fn server_bin(a: &Args) -> Result<PathBuf, String> {
    let bin = match &a.server_bin {
        Some(p) => p.clone(),
        None => std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .with_file_name("honeylab"),
    };
    if !bin.is_file() {
        return Err(format!(
            "server binary {} not found (build it with `cargo build --release --bin honeylab`)",
            bin.display()
        ));
    }
    Ok(bin)
}

fn run_one(a: &Args, workload: &str, work: &Path) -> Result<Outcome, String> {
    let trace_out = a.trace_out.as_deref();
    match live::spec(workload) {
        Some(spec) => {
            let scale = if a.smoke { live::SMOKE } else { live::FULL };
            live::run(
                &spec,
                &server_bin(a)?,
                a.seed,
                a.seconds,
                a.traced,
                scale,
                work,
                trace_out,
            )
        }
        None => {
            let scale = if a.smoke {
                offline::SMOKE_SCALE
            } else {
                offline::SCALE
            };
            offline::run(a.seed, a.seconds, a.traced, scale, work, trace_out)
        }
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(p) = &a.trace_out {
        let _ = std::fs::remove_file(p);
    }
    let mut ok = true;
    let mut docs = Vec::new();
    for workload in &a.workloads {
        let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        if let Err(e) = std::fs::create_dir_all(&work) {
            eprintln!("{workload}: create {}: {e}", work.display());
            return ExitCode::FAILURE;
        }
        let result = run_one(&a, workload, &work);
        let _ = std::fs::remove_dir_all(&work);
        let _ = std::fs::remove_dir(".bench_work"); // only if empty
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        metrics::print_human(workload, &out, a.traced);
        ok &= out.gate_failures.is_empty();
        docs.push((
            workload.clone(),
            metrics::out_json(workload, a.seed, &out, a.traced),
        ));
        println!("{}", metrics::result_json(&out, a.traced).render());
    }
    if !ok {
        eprintln!("correctness gate failed; no --out file written");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &a.out {
        let doc = hutil::Json::Obj(docs);
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
