//! The CLI workloads: fresh `hq` processes, one at a time, each timed
//! from spawn to exit, with its peak resident set from `wait4`.

use crate::gen;
use crate::oracle;
use hq_query::parse_query;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tool {
    Pqe,
    Bsm,
    Shapley,
    Script,
    Incremental,
}

/// The tools of one `cli_solve` pass, in order.
pub const TOOLS: [Tool; 5] = [
    Tool::Pqe,
    Tool::Bsm,
    Tool::Shapley,
    Tool::Script,
    Tool::Incremental,
];

impl Tool {
    /// The per-tool time the detail table prints (`pqe_s`, …).
    pub fn metric(self) -> &'static str {
        match self {
            Tool::Pqe => "pqe_s",
            Tool::Bsm => "bsm_s",
            Tool::Shapley => "shapley_s",
            Tool::Script => "script_s",
            Tool::Incremental => "incremental_s",
        }
    }

    /// Invocations of the tool in one pass, chosen so that each tool
    /// takes a similar share of the pass (0.5–0.8 s each on a 2 GHz
    /// Xeon) and a slowdown of any one of them moves the pass time.
    pub fn repeats(self) -> usize {
        match self {
            Tool::Pqe => 4,
            Tool::Bsm => 7,
            Tool::Shapley => 1,
            Tool::Script => 1,
            Tool::Incremental => 10,
        }
    }
}

/// Passes in a run of `seconds`: sized so a run lasts about that long,
/// and fixed so the parent and a change make the same invocations.
pub fn passes(seconds: u64) -> usize {
    ((3 * seconds as usize).div_ceil(10)).max(3)
}

/// What a CLI output must be.
pub enum Expected {
    Exact(String),
    /// The answer lines, followed by `hq`'s cache trailer.
    Prefix(String),
}

impl Expected {
    pub fn matches(&self, out: &str) -> bool {
        match self {
            Expected::Exact(want) => out == want,
            Expected::Prefix(want) => out
                .strip_prefix(want.as_str())
                .is_some_and(|rest| rest.starts_with("served ")),
        }
    }
}

/// One workload's prepared command line and its oracle output.
pub struct Job {
    pub args: Vec<String>,
    pub expected: Expected,
    /// The database `setup_s` loads.
    pub setup_db: PathBuf,
}

fn write(dir: &Path, name: &str, text: &str) -> Result<String, String> {
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.to_string_lossy().into_owned())
}

/// Writes the workload's inputs under `dir` and computes the oracle's
/// output.
pub fn prepare(dir: &Path, seed: u64, tool: Tool) -> Result<Job, String> {
    let inputs = gen::cli(seed);
    let s = |v: &[&str]| -> Vec<String> { v.iter().map(|s| (*s).to_owned()).collect() };
    let (args, expected, setup_db) = match tool {
        Tool::Pqe => {
            let text = gen::fact_file(&inputs.chain, true);
            let db = write(dir, "chain.facts", &text)?;
            let q = parse_query(gen::CHAIN).map_err(|e| e.to_string())?;
            let want = oracle::pqe_output(&q, &text)?;
            crate::e2e::assert_unsaturated(std::slice::from_ref(&want))?;
            let args = s(&["pqe", "--query", gen::CHAIN, "--db", &db]);
            (args, Expected::Exact(want), db)
        }
        Tool::Bsm => {
            let d = gen::fact_file(&inputs.bsm_d, false);
            let r = gen::fact_file(&inputs.bsm_repair, false);
            let d_path = write(dir, "bsm_d.facts", &d)?;
            let r_path = write(dir, "bsm_r.facts", &r)?;
            let q = parse_query(gen::STAR).map_err(|e| e.to_string())?;
            let want = oracle::bsm_output(&q, &d, &r, gen::BSM_THETA)?;
            let theta = gen::BSM_THETA.to_string();
            let args = s(&[
                "bsm",
                "--query",
                gen::STAR,
                "--db",
                &d_path,
                "--repair",
                &r_path,
                "--theta",
                &theta,
            ]);
            (args, Expected::Exact(want), d_path)
        }
        Tool::Shapley => {
            let endo = gen::fact_file(&inputs.endo, false);
            let exo = gen::fact_file(&inputs.exo, false);
            let endo_path = write(dir, "endo.facts", &endo)?;
            let exo_path = write(dir, "exo.facts", &exo)?;
            let q = parse_query(gen::STAR).map_err(|e| e.to_string())?;
            let want = oracle::shapley_output(&q, &endo, &exo)?;
            let args = s(&[
                "shapley",
                "--query",
                gen::STAR,
                "--db",
                &endo_path,
                "--exogenous",
                &exo_path,
            ]);
            (args, Expected::Exact(want), exo_path)
        }
        Tool::Script => {
            let text = gen::fact_file(&inputs.script_db, true);
            let db = write(dir, "script.facts", &text)?;
            let script = write(dir, "serve.script", &gen::lines_file(&inputs.script))?;
            let want = oracle::script_output(&text, &inputs.script)?;
            let first_block: Vec<String> = want
                .lines()
                .skip_while(|l| l.starts_with("applied"))
                .take_while(|l| !l.starts_with("applied"))
                .map(str::to_owned)
                .collect();
            crate::e2e::assert_unsaturated(&first_block)?;
            let rows = gen::SCRIPT_CACHE_ROWS.to_string();
            let args = s(&[
                "pqe",
                "--mode",
                "serve",
                "--script",
                &script,
                "--db",
                &db,
                "--cache-rows",
                &rows,
            ]);
            (args, Expected::Prefix(want), db)
        }
        Tool::Incremental => {
            let text = gen::fact_file(&inputs.inc_db, true);
            let db = write(dir, "inc.facts", &text)?;
            let updates = write(dir, "inc.updates", &gen::lines_file(&inputs.inc_updates))?;
            let q = parse_query(gen::CHAIN).map_err(|e| e.to_string())?;
            let want = oracle::incremental_output(&q, &text, &inputs.inc_updates, gen::INC_BATCH)?;
            crate::e2e::assert_unsaturated(
                &want.lines().take(1).map(str::to_owned).collect::<Vec<_>>(),
            )?;
            let batch = gen::INC_BATCH.to_string();
            let args = s(&[
                "pqe",
                "--mode",
                "incremental",
                "--query",
                gen::CHAIN,
                "--db",
                &db,
                "--updates",
                &updates,
                "--batch",
                &batch,
            ]);
            (args, Expected::Exact(want), db)
        }
    };
    Ok(Job {
        args,
        expected,
        setup_db: PathBuf::from(setup_db),
    })
}

/// One finished `hq` process.
pub struct Invocation {
    pub secs: f64,
    pub max_rss_kb: u64,
    pub success: bool,
    pub stdout: String,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s, the first of which is `ru_maxrss` (kB).
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs `hq args…` to completion with standard output in `out`.
pub fn invoke(hq: &Path, args: &[String], out: &Path) -> Result<Invocation, String> {
    let stdout = File::create(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let start = Instant::now();
    let child = Command::new(hq)
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", hq.display()))?;
    let pid = i32::try_from(child.id()).map_err(|e| e.to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `pid` is our own unreaped child (std never waits on it:
    // `child` is only dropped, which does not reap), and both pointers
    // are to live locals of the types `wait4` writes.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let secs = start.elapsed().as_secs_f64();
    drop(child);
    if reaped != pid {
        return Err(format!("wait4 on {pid} failed"));
    }
    let stdout = std::fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(Invocation {
        secs,
        max_rss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
        // Exited normally with code 0.
        success: status == 0,
        stdout,
    })
}
