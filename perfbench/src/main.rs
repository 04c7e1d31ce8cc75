//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> --hq <path>
//! perfbench summarise <spans.jsonl>
//! ```
//!
//! With `--trace 0` a run drives the real `hq` binary (a spawned
//! `hq serve --listen 127.0.0.1:0` over loopback, or fresh CLI
//! processes), checks every reply against the ordered-map oracle, and
//! prints the end-to-end metrics. With `--trace 1` it replays the
//! seed's inputs through each layer's public functions in process,
//! records spans around every call, and prints the per-layer metrics.
//! The last line of standard output is the JSON result.

mod cli;
mod e2e;
mod gen;
mod oracle;
mod report;
mod trace;
mod wire;

use report::{print_table, result_line, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WireHotReads,
    WireTenants,
    CliSolve,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload::WireHotReads,
    Workload::WireTenants,
    Workload::CliSolve,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireHotReads => "wire_hot_reads",
            Workload::WireTenants => "wire_tenants",
            Workload::CliSolve => "cli_solve",
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    hq: PathBuf,
    work: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![WORKLOADS
            .into_iter()
            .find(|w| w.name() == workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?]
    };
    let number = |v: Option<String>, flag: &str| -> Result<u64, String> {
        v.ok_or_else(|| format!("{flag} is required"))?
            .parse()
            .map_err(|_| format!("{flag}: expected a non-negative integer"))
    };
    let seed = number(get("--seed"), "--seed")?;
    let seconds = number(get("--seconds"), "--seconds")?.max(1);
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let hq = PathBuf::from(get("--hq").ok_or("--hq is required")?);
    let work = PathBuf::from(get("--work").unwrap_or_else(|| ".bench_work".to_owned()));
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
        hq,
        work,
    })
}

/// Runs one workload and returns its result line.
fn run_one(
    args: &Args,
    workload: Workload,
    dir: &Path,
) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    if args.trace {
        let spans = args
            .work
            .join(format!("spans-{}-{}.jsonl", workload.name(), args.seed));
        let t = trace::run(&args.hq, dir, args.seed, args.seconds, &spans)?;
        print_table(
            &format!("{} per layer (traced)", workload.name()),
            &t.metrics,
        );
        println!("spans: {}", spans.display());
        return Ok((t.mismatches.is_empty(), t.attempted, t.failed, t.metrics));
    }
    let out = match workload {
        Workload::WireHotReads => e2e::run_wire(&args.hq, dir, args.seed, args.seconds, false)?,
        Workload::WireTenants => e2e::run_wire(&args.hq, dir, args.seed, args.seconds, true)?,
        Workload::CliSolve => e2e::run_cli(&args.hq, dir, args.seed, args.seconds)?,
    };
    print_table(workload.name(), &out.metrics);
    print_table(&format!("{} detail", workload.name()), &out.detail);
    for m in &out.mismatches {
        println!("MISMATCH {m}");
    }
    Ok((
        out.mismatches.is_empty(),
        out.attempted,
        out.failed,
        out.metrics,
    ))
}

fn run(argv: &[String]) -> Result<String, String> {
    if argv.first().map(String::as_str) == Some("summarise") {
        let path = argv.get(1).ok_or("summarise: expected a span file")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        trace::print_summary(&trace::parse_dump(&text)?);
        return Ok(String::new());
    }
    let args = parse_args(argv)?;
    if !args.hq.is_file() {
        return Err(format!("no hq binary at {}", args.hq.display()));
    }
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    let all = args.workloads.len() > 1;
    for &w in &args.workloads {
        let dir = args
            .work
            .join(format!("{}-{}-{}", w.name(), args.seed, std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let result = run_one(&args, w, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let (ok, a, f, ms) = result?;
        correct &= ok;
        attempted += a;
        failed += f;
        for mut m in ms {
            if all {
                m.name = format!("{}.{}", w.name(), m.name);
            }
            metrics.push(m);
        }
    }
    Ok(result_line(correct, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
