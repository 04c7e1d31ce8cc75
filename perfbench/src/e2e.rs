//! The untraced runs: every end-to-end figure comes from here.

use crate::cli::{self, Tool};
use crate::gen;
use crate::oracle::{self, Checker};
use crate::report::{latency_ms, median, quantile, Metric};
use crate::wire::{self, Record, Verb, WireStats};
use hq_db::Interner;
use std::path::Path;

/// `hq serve` is started this many times per run; `setup_s` is the
/// median.
pub const SETUPS: usize = 5;

/// Answers of the read mix must lie in this band, so that a nine-digit
/// comparison still tells a right kernel from a wrong one.
pub const BAND: (f64, f64) = (1e-3, 0.999);

/// What one run measured and checked.
pub struct Outcome {
    /// The end-to-end metrics of `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    /// Everything else worth printing: per-verb latencies, per-tool
    /// times, the error rate and the server's counters.
    pub detail: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

/// Fails unless every answer of the read mix lies inside [`BAND`].
pub fn assert_unsaturated(answers: &[String]) -> Result<(), String> {
    for a in answers {
        let p = oracle::value_of(a).ok_or_else(|| format!("no value in {a:?}"))?;
        if !(BAND.0..=BAND.1).contains(&p) {
            return Err(format!(
                "generated inputs saturate: {a} lies outside [{}, {}]",
                BAND.0, BAND.1
            ));
        }
    }
    Ok(())
}

/// Both wire workloads. `tenants` selects `wire_tenants`, else
/// `wire_hot_reads`.
pub fn run_wire(
    hq: &Path,
    dir: &Path,
    seed: u64,
    seconds: u64,
    tenants: bool,
) -> Result<Outcome, String> {
    let inputs = gen::wire(seed, seconds);
    let db_text = gen::fact_file(&inputs.facts, true);
    let db = dir.join("wire.facts");
    std::fs::write(&db, &db_text).map_err(|e| e.to_string())?;
    let mut interner = Interner::new();
    let base = oracle::load(&db_text, &mut interner)?;
    let mut checker = Checker::new(&base, interner);
    let base_answers = inputs
        .reads
        .iter()
        .map(|r| checker.expect_base(r))
        .collect::<Result<Vec<_>, _>>()?;
    assert_unsaturated(&base_answers)?;

    let scripts = if tenants {
        inputs.tenant_scripts(usize::MAX)
    } else {
        inputs.hot.to_vec()
    };

    let (setups, server) = wire::spawn_repeated(hq, &db, SETUPS)?;
    let warm = wire::run_script(wire::Conn::open(server.addr), &warm_up(&inputs.reads));
    let (conns, wall) = wire::closed_loop(server.addr, &scripts);
    let stats = wire::fetch_stats(server.addr);
    let rss_kb = server.peak_rss_kb();
    server.shutdown()?;
    let stats = stats?;
    let rss_kb = rss_kb.ok_or("could not read the server's VmHWM")?;

    let mut all = vec![warm.clone()];
    all.extend(conns.iter().cloned());
    let mismatches = checker.check(&all);
    let timed: Vec<&Record> = conns.iter().flatten().collect();
    let attempted = (timed.len() + warm.len()) as u64;
    let failed = timed
        .iter()
        .copied()
        .chain(&warm)
        .filter(|r| r.failed())
        .count() as u64;
    let ok: Vec<f64> = timed
        .iter()
        .filter(|r| !r.failed())
        .map(|r| r.secs)
        .collect();
    if ok.is_empty() {
        return Err("no request succeeded".to_owned());
    }

    let verb_secs = |verb: Verb| -> Vec<f64> {
        timed
            .iter()
            .filter(|r| r.verb() == verb && !r.failed())
            .map(|r| r.secs)
            .collect()
    };
    let (reads, fixes) = (verb_secs(Verb::Read), verb_secs(Verb::Fix));
    let ms = |name: &str, secs: &[f64], q: f64| {
        Metric::new(name, quantile(secs, q) * 1e3, "ms", secs.len())
    };
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s", setups.len()),
        ms("read_p50_ms", &reads, 0.5),
        ms("read_p90_ms", &reads, 0.9),
        ms("fix_p50_ms", &fixes, 0.5),
        ms("fix_p90_ms", &fixes, 0.9),
        Metric::new("ops_per_s", ok.len() as f64 / wall, "1/s", ok.len()),
        Metric::new("peak_rss_mb", rss_kb as f64 / 1024.0, "MB", 1),
    ];
    let mut detail = vec![
        Metric::new("p50_ms", median(&ok) * 1e3, "ms", ok.len()),
        Metric::new("p90_ms", quantile(&ok, 0.9) * 1e3, "ms", ok.len()),
    ];
    detail.extend(verb_latencies(
        &timed,
        &[Verb::Write, Verb::Pin, Verb::Unpin],
    ));
    detail.push(Metric::new(
        "error_rate",
        failed as f64 / attempted as f64,
        "ratio",
        attempted as usize,
    ));
    detail.extend(stats_counts("stats", &stats));
    Ok(Outcome {
        metrics,
        detail,
        attempted,
        failed,
        mismatches,
    })
}

/// The untimed warm-up: every read of the mix once, cold, pinned to
/// the initial epoch so the oracle knows the state it read.
pub fn warm_up(reads: &[String]) -> Vec<String> {
    let mut lines = vec!["pin".to_owned()];
    lines.extend(reads.iter().cloned());
    lines.push("unpin".to_owned());
    lines
}

/// `write_p50_ms`, `write_p90_ms`, … for `verbs`, where the samples
/// allow.
pub fn verb_latencies(records: &[&Record], verbs: &[Verb]) -> Vec<Metric> {
    let mut out = Vec::new();
    for &verb in verbs {
        let secs: Vec<f64> = records
            .iter()
            .filter(|r| r.verb() == verb && !r.failed())
            .map(|r| r.secs)
            .collect();
        for (q, tag) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
            if let Some(m) = latency_ms(&format!("{}_{tag}_ms", verb.name()), &secs, q) {
                out.push(m);
            }
        }
    }
    out
}

pub fn stats_counts(prefix: &str, stats: &WireStats) -> Vec<Metric> {
    stats
        .counters()
        .into_iter()
        .map(|(name, v)| Metric::new(format!("{prefix}.{name}"), v as f64, "count", 1))
        .collect()
}

/// `cli_solve`: fresh `hq` processes, one at a time, in passes over
/// the five tools.
pub fn run_cli(hq: &Path, dir: &Path, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let jobs = cli::TOOLS
        .iter()
        .map(|&t| cli::prepare(dir, seed, t).map(|job| (t, job)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let server = wire::ServeProc::spawn(hq, &jobs[0].1.setup_db)?;
        setups.push(server.setup_s);
        server.shutdown()?;
    }
    let out = dir.join("out");
    let mut runs: Vec<(Tool, cli::Invocation)> = Vec::new();
    let mut pass_secs = Vec::new();
    let start = std::time::Instant::now();
    for _ in 0..cli::passes(seconds) {
        let pass = std::time::Instant::now();
        for (tool, job) in &jobs {
            for _ in 0..tool.repeats() {
                // Each output is kept and checked after the timed passes.
                runs.push((*tool, cli::invoke(hq, &job.args, &out)?));
            }
        }
        pass_secs.push(pass.elapsed().as_secs_f64());
    }
    let wall = start.elapsed().as_secs_f64();
    let mut mismatches = Vec::new();
    let mut failed = 0u64;
    for (tool, run) in &runs {
        let job = &jobs
            .iter()
            .find(|(t, _)| t == tool)
            .expect("every tool has a job")
            .1;
        if !run.success {
            failed += 1;
        } else if !job.expected.matches(&run.stdout) {
            mismatches.push(format!("{tool:?}: output differs from the oracle's"));
        }
    }
    let ok = runs.iter().filter(|(_, r)| r.success).count();
    let rss_kb = runs.iter().map(|(_, r)| r.max_rss_kb).max().unwrap_or(0);
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s", setups.len()),
        Metric::new("p50_ms", median(&pass_secs) * 1e3, "ms", pass_secs.len()),
        Metric::new("ops_per_s", ok as f64 / wall, "1/s", ok),
        Metric::new("peak_rss_mb", rss_kb as f64 / 1024.0, "MB", runs.len()),
    ];
    let mut detail = Vec::new();
    for tool in cli::TOOLS {
        let secs: Vec<f64> = runs
            .iter()
            .filter(|(t, r)| *t == tool && r.success)
            .map(|(_, r)| r.secs)
            .collect();
        if !secs.is_empty() {
            detail.push(Metric::new(tool.metric(), median(&secs), "s", secs.len()));
        }
    }
    detail.push(Metric::new(
        "error_rate",
        failed as f64 / runs.len() as f64,
        "ratio",
        runs.len(),
    ));
    Ok(Outcome {
        metrics,
        detail,
        attempted: runs.len() as u64,
        failed,
        mismatches,
    })
}
