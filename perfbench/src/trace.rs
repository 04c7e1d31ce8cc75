//! The traced run. The seed's inputs are replayed in process through
//! each layer's public functions, with a span recorded by this file
//! around every call; nothing inside the program is instrumented. The
//! spans stay in memory and are written out when the run ends.
//!
//! A traced run is the same whichever workload names it: it covers
//! every layer on the seed's inputs, so every per-layer metric exists
//! on every workload.

use crate::gen;
use crate::oracle::{self, Checker};
use crate::report::{self, median, quantile, Metric};
use crate::wire::{self, Record, Verb};
use hq_db::text::parse_database;
use hq_db::{Database, Fact, Interner, Sym, Tuple};
use hq_monoid::ProbMonoid;
use hq_query::parse_query;
use hq_unify::script::{parse_command, render_command, ScriptCommand};
use hq_unify::{
    bsm, engine, fixpoint, pqe, shapley, Backend, ColumnarRelation, EncodedDb, Parallelism,
    PatchOutcome, Server, Session, StepShape,
};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Shared by every span of one request (or one probe call).
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Records spans for one thread. A disabled tracer runs the closures
/// and records nothing (the untraced replay behind
/// `trace.overhead_ratio.*`).
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    request: u64,
    open: Vec<u64>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            request: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts a new request: later spans share its id.
    pub fn request(&mut self) {
        self.request = next_id();
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = next_id();
        let parent = self.open.last().copied();
        let start = Instant::now();
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = Instant::now();
        self.spans.push(Span {
            id,
            parent,
            request: self.request,
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        out
    }

    /// Records a span measured elsewhere (a wire round trip).
    pub fn record(&mut self, name: &str, start: Instant, secs: f64) {
        self.request();
        let start_ns = self.ns(start);
        self.spans.push(Span {
            id: next_id(),
            parent: None,
            request: self.request,
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns + (secs * 1e9) as u64,
        });
    }
}

/// A span's self time: its duration minus the time its children cover.
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut covered: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            covered.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = covered.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut union, mut reach) = (0u64, 0u64);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            (
                s.id,
                (s.end_ns - s.start_ns).saturating_sub(union) as f64 * 1e-9,
            )
        })
        .collect()
}

fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// The per-layer table: for every span name, its count and its
/// duration and self time.
pub fn print_summary(spans: &[Span]) {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(&s.name).or_default();
        e.0.push(s.secs());
        e.1.push(selfs[&s.id]);
    }
    println!(
        "  {:<34} {:>7} {:>12} {:>12} {:>12}",
        "span", "count", "p50 ms", "self p50 ms", "self sum ms"
    );
    for (name, (durs, own)) in by_name {
        println!(
            "  {:<34} {:>7} {:>12.4} {:>12.4} {:>12.3}",
            name,
            durs.len(),
            median(&durs) * 1e3,
            median(&own) * 1e3,
            own.iter().sum::<f64>() * 1e3
        );
    }
}

pub fn dump(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&report::span_json(&[
            ("id", s.id.to_string()),
            ("parent", parent),
            ("request", s.request.to_string()),
            ("name", report::quote(&s.name)),
            ("start_ns", s.start_ns.to_string()),
            ("end_ns", s.end_ns.to_string()),
        ]));
        out.push('\n');
    }
    out
}

/// Reads a dump written by [`dump`].
pub fn parse_dump(text: &str) -> Result<Vec<Span>, String> {
    let field = |line: &str, key: &str| -> Result<String, String> {
        let tag = format!("\"{key}\": ");
        let rest = line
            .split_once(&tag)
            .ok_or_else(|| format!("no {key} in {line}"))?
            .1;
        let end = if let Some(quoted) = rest.strip_prefix('"') {
            return Ok(quoted
                .split_once('"')
                .ok_or("unterminated string")?
                .0
                .to_owned());
        } else {
            rest.find([',', '}']).unwrap_or(rest.len())
        };
        Ok(rest[..end].to_owned())
    };
    let num = |s: String| s.parse::<u64>().map_err(|e| format!("{s}: {e}"));
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let parent = field(l, "parent")?;
            Ok(Span {
                id: num(field(l, "id")?)?,
                parent: if parent == "null" {
                    None
                } else {
                    Some(num(parent)?)
                },
                request: num(field(l, "request")?)?,
                name: field(l, "name")?,
                start_ns: num(field(l, "start_ns")?)?,
                end_ns: num(field(l, "end_ns")?)?,
            })
        })
        .collect()
}

type Srv = Server<ProbMonoid, ColumnarRelation<f64>>;
type Sess = Session<ProbMonoid, ColumnarRelation<f64>>;

/// `(fact, probability)` pairs as `hq` builds them from a fact file:
/// facts without a weight weigh 1.
fn tid_of(text: &str, interner: &mut Interner) -> Result<Vec<(Fact, f64)>, String> {
    let parsed = parse_database(text, interner).map_err(|e| e.to_string())?;
    let weights: BTreeMap<Fact, f64> = parsed.weights.into_iter().collect();
    Ok(parsed
        .database
        .facts()
        .into_iter()
        .map(|f| {
            let p = weights.get(&f).copied().unwrap_or(1.0);
            (f, p)
        })
        .collect())
}

/// Serves one wire line the way `hq serve` does: parse under the
/// interner write lock, then evaluate or commit under the read lock.
fn serve_line(
    tr: &mut Tracer,
    server: &Srv,
    session: &mut Sess,
    interner: &RwLock<Interner>,
    line: &str,
) -> String {
    match line {
        "pin" => tr.span("unify.server.pin", |_| {
            format!("pinned epoch {}", session.pin())
        }),
        "unpin" => {
            tr.span("unify.server.unpin", |_| session.unpin());
            "ok".to_owned()
        }
        _ => {
            let parsed = {
                let mut guard = tr.span("unify.script.lock_wait", |_| {
                    interner.write().expect("interner lock")
                });
                tr.span("unify.script.parse", |_| {
                    parse_command(line, 0, "wire", &mut guard)
                })
            };
            let i = interner.read().expect("interner lock");
            match parsed {
                Err(e) => format!("error: {e}"),
                Ok(ScriptCommand::Query(q)) => {
                    match tr.span("unify.server.query", |_| session.query(&i, &q)) {
                        Ok((p, _)) => format!("{q} -> P(Q) = {p:.9}"),
                        Err(e) => format!("error: {e}"),
                    }
                }
                Ok(ref cmd @ ScriptCommand::Fix { ref rel, src, dst }) => {
                    let echo = render_command(cmd, &i);
                    match tr.span("unify.server.query_fix", |_| {
                        session.query_fix(&i, rel, src, dst)
                    }) {
                        Ok((p, _)) => format!("{} -> P(Q) = {p:.9}", echo.trim_start_matches("? ")),
                        Err(e) => format!("error: {e}"),
                    }
                }
                Ok(ScriptCommand::Update(fact, action)) => {
                    let updates = [(fact, action.prob_weight())];
                    let ticket =
                        tr.span("unify.server.submit", |_| server.submit_batch(&i, &updates));
                    let receipt =
                        ticket.and_then(|t| tr.span("unify.server.commit_wait", |_| t.wait(&i)));
                    match receipt {
                        Ok(r) => format!("ok epoch {}", r.epoch),
                        Err(e) => format!("error: {e}"),
                    }
                }
            }
        }
    }
}

/// What one in-process replay of a wire workload produced.
struct Replay {
    spans: Vec<Span>,
    records: Vec<Vec<Record>>,
    wall: f64,
    plan_hits: u64,
    reader_ops: u64,
    queries: u64,
    live_epochs_max: usize,
    server: Srv,
}

/// Replays `scripts` (one per thread) `passes` times over one server
/// built from `tid`, after an untimed, untraced warm-up of `reads`.
fn replay(
    origin: Instant,
    traced: bool,
    interner: &Interner,
    tid: &[(Fact, f64)],
    reads: &[String],
    scripts: &[Vec<String>],
    passes: usize,
) -> Result<Replay, String> {
    let server: Srv =
        Server::new(ProbMonoid, interner, tid.iter().cloned()).map_err(|e| e.to_string())?;
    let lock = RwLock::new(interner.clone());
    let mut warm = Tracer::new(origin, false);
    let mut session = server.session();
    for r in reads {
        serve_line(&mut warm, &server, &mut session, &lock, r);
    }
    let (hits0, ops0) = (server.plan_hits(), server.ops_performed());
    let live_max = AtomicU64::new(server.live_epochs() as u64);
    let start = Instant::now();
    let per_thread: Vec<(Vec<Span>, Vec<Record>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                let (server, lock, live_max) = (&server, &lock, &live_max);
                scope.spawn(move || {
                    let mut tr = Tracer::new(origin, traced);
                    let mut session = server.session();
                    let mut records = Vec::new();
                    for _ in 0..passes {
                        for line in script {
                            tr.request();
                            let t = Instant::now();
                            let verb = Verb::of(line).name();
                            let reply = tr.span(&format!("replay.{verb}"), |tr| {
                                serve_line(tr, server, &mut session, lock, line)
                            });
                            records.push(Record {
                                line: line.clone(),
                                reply: Ok(reply),
                                secs: t.elapsed().as_secs_f64(),
                                started: t,
                            });
                            if verb == "unpin" {
                                live_max.fetch_max(server.live_epochs() as u64, Ordering::Relaxed);
                            }
                        }
                    }
                    (tr.spans, records)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let queries = scripts
        .iter()
        .flatten()
        .filter(|l| matches!(Verb::of(l), Verb::Read | Verb::Fix))
        .count() as u64
        * passes as u64;
    let mut spans = Vec::new();
    let mut records = Vec::new();
    for (s, r) in per_thread {
        spans.extend(s);
        records.push(r);
    }
    Ok(Replay {
        spans,
        records,
        wall,
        plan_hits: server.plan_hits() - hits0,
        reader_ops: server.ops_performed() - ops0,
        queries,
        live_epochs_max: live_max.load(Ordering::Relaxed) as usize,
        server,
    })
}

/// A short loopback segment of a wire workload against a fresh
/// `hq serve`, each request recorded as a `cli.serve.<verb>` span.
fn wire_segment(
    tr: &mut Tracer,
    hq: &Path,
    db: &Path,
    reads: &[String],
    scripts: &[Vec<String>],
) -> Result<(Vec<Vec<Record>>, wire::WireStats), String> {
    let server = wire::ServeProc::spawn(hq, db)?;
    let warm = wire::run_script(wire::Conn::open(server.addr), &crate::e2e::warm_up(reads));
    let (conns, _) = wire::closed_loop(server.addr, scripts);
    let stats = wire::fetch_stats(server.addr);
    server.shutdown()?;
    for r in conns.iter().flatten() {
        if !r.failed() {
            tr.record(&format!("cli.serve.{}", r.verb().name()), r.started, r.secs);
        }
    }
    let mut all = vec![warm];
    all.extend(conns);
    Ok((all, stats?))
}

/// Runs `f` `times` times inside spans named `name`; returns the last
/// result.
fn probe<T>(tr: &mut Tracer, name: &str, times: usize, mut f: impl FnMut() -> T) -> T {
    let mut out = None;
    for _ in 0..times {
        tr.request();
        out = Some(tr.span(name, |_| f()));
    }
    out.expect("at least one probe call")
}

pub struct TraceOutcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

/// Wire requests per connection in the loopback segments of a traced
/// run (hot reads), and tenant cycles per connection.
const SEGMENT_HOT: usize = 40;
const SEGMENT_CYCLES: usize = 8;
/// In-process passes over the hot scripts, enough for a p99 of
/// `Session::query` with ten samples beyond it.
const HOT_PASSES: usize = 5;
/// In-process passes over the tenant scripts, each on a fresh server.
const TENANT_PASSES: usize = 2;

pub fn run(
    hq: &Path,
    dir: &Path,
    seed: u64,
    seconds: u64,
    spans_path: &Path,
) -> Result<TraceOutcome, String> {
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, true);
    let mut m: Vec<Metric> = Vec::new();
    let mut mismatches = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut tally = |records: &[Vec<Record>], checker: &mut Checker, bad: &mut Vec<String>| {
        bad.extend(checker.check(records));
        let all = records.iter().flatten();
        attempted += records.iter().map(|r| r.len() as u64).sum::<u64>();
        failed += all.filter(|r| r.failed()).count() as u64;
    };

    // Inputs, parsed the way `hq` parses them.
    let inputs = gen::wire(seed, seconds);
    let wire_text = gen::fact_file(&inputs.facts, true);
    let wire_db = dir.join("wire.facts");
    std::fs::write(&wire_db, &wire_text).map_err(|e| e.to_string())?;
    let mut interner = Interner::new();
    let base = oracle::load(&wire_text, &mut interner)?;
    let mut checker = Checker::new(&base, interner);
    let cli_inputs = gen::cli(seed);
    let mut parse_secs = 0.0;
    let mut parse_file =
        |tr: &mut Tracer, text: &str| -> Result<(Interner, Vec<(Fact, f64)>), String> {
            let mut interner = Interner::new();
            tr.request();
            let t = Instant::now();
            let tid = tr.span("db.text.parse", |_| tid_of(text, &mut interner))?;
            parse_secs += t.elapsed().as_secs_f64();
            Ok((interner, tid))
        };
    let (wire_interner, wire_tid) = parse_file(&mut tr, &wire_text)?;
    let chain_text = gen::fact_file(&cli_inputs.chain, true);
    let (chain_interner, chain_tid) = parse_file(&mut tr, &chain_text)?;
    let script_text = gen::fact_file(&cli_inputs.script_db, true);
    let (mut script_interner, script_tid) = parse_file(&mut tr, &script_text)?;
    let inc_text = gen::fact_file(&cli_inputs.inc_db, true);
    let (mut inc_interner, inc_tid) = parse_file(&mut tr, &inc_text)?;
    for facts in [
        &cli_inputs.bsm_d,
        &cli_inputs.bsm_repair,
        &cli_inputs.endo,
        &cli_inputs.exo,
    ] {
        parse_file(&mut tr, &gen::fact_file(facts, false))?;
    }
    m.push(Metric::new("db.text.parse_ms", parse_secs * 1e3, "ms", 8));

    // cli.serve: loopback segments, then the same lines in process.
    let hot_segment: Vec<Vec<String>> = inputs
        .hot
        .iter()
        .map(|s| s[..SEGMENT_HOT.min(s.len())].to_vec())
        .collect();
    let (hot_wire, hot_stats) = wire_segment(&mut tr, hq, &wire_db, &inputs.reads, &hot_segment)?;
    tally(&hot_wire, &mut checker, &mut mismatches);
    let ten_segment = inputs.tenant_scripts(SEGMENT_CYCLES);
    let (ten_wire, ten_stats) = wire_segment(&mut tr, hq, &wire_db, &inputs.reads, &ten_segment)?;
    tally(&ten_wire, &mut checker, &mut mismatches);

    let hot_scripts = inputs.hot.to_vec();
    let ten_scripts = inputs.tenant_scripts(usize::MAX);
    let hot = replay(
        origin,
        true,
        &wire_interner,
        &wire_tid,
        &inputs.reads,
        &hot_scripts,
        HOT_PASSES,
    )?;
    tally(&hot.records, &mut checker, &mut mismatches);
    let hot_plain = replay(
        origin,
        false,
        &wire_interner,
        &wire_tid,
        &inputs.reads,
        &hot_scripts,
        HOT_PASSES,
    )?;
    let mut tenants = Vec::new();
    for _ in 0..TENANT_PASSES {
        let t = replay(
            origin,
            true,
            &wire_interner,
            &wire_tid,
            &inputs.reads,
            &ten_scripts,
            1,
        )?;
        tally(&t.records, &mut checker, &mut mismatches);
        tenants.push(t);
    }
    let ten_plain = replay(
        origin,
        false,
        &wire_interner,
        &wire_tid,
        &inputs.reads,
        &ten_scripts,
        1,
    )?;

    let wire_spans = &tr.spans;
    let hot_spans = &hot.spans;
    let ten_spans: Vec<Span> = tenants
        .iter()
        .flat_map(|t| t.spans.iter().cloned())
        .collect();
    let self_ms = |wire: &str, replay: &[Span], name: &str| {
        (median(&durations(wire_spans, wire)) - median(&durations(replay, name))) * 1e3
    };
    m.push(Metric::new(
        "cli.serve.read_self_ms_p50",
        self_ms("cli.serve.read", hot_spans, "replay.read"),
        "ms",
        1,
    ));
    m.push(Metric::new(
        "cli.serve.fix_self_ms_p50",
        self_ms("cli.serve.fix", hot_spans, "replay.fix"),
        "ms",
        1,
    ));
    m.push(Metric::new(
        "cli.serve.write_self_ms_p50",
        self_ms("cli.serve.write", &ten_spans, "replay.write"),
        "ms",
        1,
    ));
    let us = |spans: &[Span], name: &str, q: f64| quantile(&durations(spans, name), q) * 1e6;
    m.push(Metric::new(
        "unify.script.parse_us_p50",
        us(hot_spans, "unify.script.parse", 0.5),
        "us",
        1,
    ));
    let waits = durations(hot_spans, "unify.script.lock_wait");
    let mean_wait = waits.iter().sum::<f64>() / waits.len().max(1) as f64;
    m.push(Metric::new(
        "unify.script.lock_wait_us_mean",
        mean_wait * 1e6,
        "us",
        waits.len(),
    ));
    m.push(Metric::new(
        "unify.server.query_us_p50",
        us(hot_spans, "unify.server.query", 0.5),
        "us",
        1,
    ));
    m.push(Metric::new(
        "unify.server.query_us_p99",
        us(hot_spans, "unify.server.query", 0.99),
        "us",
        1,
    ));
    m.push(Metric::new(
        "unify.server.query_fix_us_p50",
        us(hot_spans, "unify.server.query_fix", 0.5),
        "us",
        1,
    ));
    m.push(Metric::new(
        "unify.server.plan_hit_ratio",
        hot.plan_hits as f64 / hot.queries.max(1) as f64,
        "ratio",
        1,
    ));
    m.push(Metric::new(
        "unify.server.reader_ops_hot",
        hot.reader_ops as f64,
        "count",
        1,
    ));
    let t0 = &tenants[0];
    m.push(Metric::new(
        "unify.server.reader_ops",
        t0.reader_ops as f64,
        "count",
        1,
    ));
    m.push(Metric::new(
        "unify.server.submit_us_p50",
        us(&ten_spans, "unify.server.submit", 0.5),
        "us",
        1,
    ));
    let ms = |spans: &[Span], name: &str, q: f64| quantile(&durations(spans, name), q) * 1e3;
    m.push(Metric::new(
        "unify.server.commit_ms_p50",
        ms(&ten_spans, "unify.server.commit_wait", 0.5),
        "ms",
        1,
    ));
    m.push(Metric::new(
        "unify.server.commit_ms_p90",
        ms(&ten_spans, "unify.server.commit_wait", 0.9),
        "ms",
        1,
    ));
    let w = t0.server.write_stats();
    m.push(Metric::new(
        "unify.server.batches_per_commit",
        w.batches_committed as f64 / w.commits.max(1) as f64,
        "ratio",
        1,
    ));
    m.push(Metric::new(
        "unify.server.epochs_published",
        t0.server.current_epoch() as f64,
        "count",
        1,
    ));
    m.push(Metric::new(
        "unify.server.writer_ops_per_commit",
        t0.server.writer_ops_performed() as f64 / w.commits.max(1) as f64,
        "count",
        1,
    ));
    m.push(Metric::new(
        "unify.server.rejected",
        (w.rejected_invalid + w.rejected_full) as f64,
        "count",
        1,
    ));
    m.push(Metric::new(
        "unify.server.live_epochs_max",
        t0.live_epochs_max as f64,
        "count",
        1,
    ));
    m.push(Metric::new(
        "unify.server.cached_rows",
        t0.server.materialised_rows() as f64,
        "count",
        1,
    ));
    m.push(Metric::new(
        "unify.server.storage_bytes",
        t0.server.storage_bytes() as f64,
        "bytes",
        1,
    ));
    m.push(Metric::new(
        "unify.server.evictions",
        t0.server.evictions() as f64,
        "count",
        1,
    ));
    m.push(Metric::new(
        "trace.overhead_ratio.wire_hot_reads",
        hot.wall / hot_plain.wall,
        "ratio",
        1,
    ));
    m.push(Metric::new(
        "trace.overhead_ratio.wire_tenants",
        t0.wall / ten_plain.wall,
        "ratio",
        1,
    ));
    // The wire counters that move: a hot-reads server never commits,
    // evicts or rejects.
    for (prefix, stats, keep) in [
        (
            "wire.hot_reads",
            &hot_stats,
            &["ops_performed", "plan_hits", "cached_rows", "cached_bytes"][..],
        ),
        (
            "wire.tenants",
            &ten_stats,
            &[
                "commits",
                "batches",
                "max_group",
                "queue_high_water",
                "ops_performed",
                "plan_hits",
                "live_epochs",
                "cached_rows",
                "cached_bytes",
            ][..],
        ),
    ] {
        m.extend(
            crate::e2e::stats_counts(prefix, stats)
                .into_iter()
                .filter(|c| keep.iter().any(|k| c.name.ends_with(k))),
        );
    }
    tr.spans.extend(hot.spans);
    tr.spans.extend(ten_spans);

    // unify.storage: encode, then refresh after tenant A's writes.
    let mut db = Database::new();
    for (f, _) in &wire_tid {
        db.insert(f.clone());
    }
    let enc = probe(&mut tr, "unify.storage.encode", 3, || EncodedDb::new(&db));
    m.push(Metric::new(
        "unify.storage.encode_ms",
        quantile(&durations(&tr.spans, "unify.storage.encode"), 0.5) * 1e3,
        "ms",
        3,
    ));
    {
        let mut enc = enc.clone();
        let mut db = db.clone();
        let mut i = wire_interner.clone();
        for c in &inputs.tenants[0] {
            let Ok(ScriptCommand::Update(f, a)) = parse_command(&c.write, 0, "probe", &mut i)
            else {
                return Err(format!("tenant write {:?} does not parse", c.write));
            };
            let changed = if a.prob_weight() == 0.0 {
                db.remove(&f)
            } else {
                db.insert(f)
            };
            if !changed {
                continue; // an annotation change leaves the encoding as it is
            }
            tr.request();
            let outcome = tr.span("unify.storage.refresh", |_| enc.refresh(&db));
            let last = tr.spans.last_mut().expect("span just recorded");
            last.name = if outcome.dict_extended {
                "unify.storage.refresh_novel"
            } else {
                "unify.storage.refresh_existing"
            }
            .to_owned();
        }
    }
    m.push(Metric::new(
        "unify.storage.refresh_existing_us_p50",
        us(&tr.spans, "unify.storage.refresh_existing", 0.5),
        "us",
        1,
    ));
    m.push(Metric::new(
        "unify.storage.refresh_novel_ms_p50",
        ms(&tr.spans, "unify.storage.refresh_novel", 0.5),
        "ms",
        1,
    ));

    // unify.engine: each query of the read mix, cold, over the encoding.
    let weights: HashMap<Sym, HashMap<Tuple, f64>> = {
        let mut w: HashMap<Sym, HashMap<Tuple, f64>> = HashMap::new();
        for (f, pr) in &wire_tid {
            w.entry(f.rel).or_default().insert(f.tuple.clone(), *pr);
        }
        w
    };
    let mut eval_secs = 0.0;
    let mut engine_ops = 0u64;
    for q in gen::READ_QUERIES {
        let q = parse_query(q).map_err(|e| e.to_string())?;
        tr.request();
        let t = Instant::now();
        let (_, stats) = tr
            .span("unify.engine.evaluate_encoded", |_| {
                engine::evaluate_encoded(
                    Parallelism::default(),
                    &ProbMonoid,
                    &q,
                    &wire_interner,
                    &db,
                    &enc,
                    |sym, t| weights[&sym][t],
                )
            })
            .map_err(|e| e.to_string())?;
        eval_secs += t.elapsed().as_secs_f64();
        engine_ops += stats.total_ops();
    }
    m.push(Metric::new(
        "unify.engine.eval_ms",
        eval_secs * 1e3,
        "ms",
        gen::READ_QUERIES.len(),
    ));
    m.push(Metric::new(
        "unify.engine.ops",
        engine_ops as f64,
        "count",
        1,
    ));

    // unify.fixpoint: build over G, then tenant B's writes as patches.
    let g = wire_interner.get("G").ok_or("no relation G")?;
    let mut edges: BTreeMap<Tuple, f64> =
        weights[&g].iter().map(|(t, pr)| (t.clone(), *pr)).collect();
    let edge_list = |e: &BTreeMap<Tuple, f64>| -> Vec<(Tuple, f64)> {
        e.iter().map(|(t, pr)| (t.clone(), *pr)).collect()
    };
    let list = edge_list(&edges);
    let mut run = probe(&mut tr, "unify.fixpoint.build", 3, || {
        fixpoint::transitive_closure_on(Backend::Columnar, &ProbMonoid, &list)
    })
    .map_err(|e| e.to_string())?;
    m.push(Metric::new(
        "unify.fixpoint.build_ms",
        ms(&tr.spans, "unify.fixpoint.build", 0.5),
        "ms",
        3,
    ));
    let (mut rebuilds, mut refolded) = (0usize, Vec::new());
    let mut i = wire_interner.clone();
    for c in &inputs.tenants[1] {
        let Ok(ScriptCommand::Update(f, a)) = parse_command(&c.write, 0, "probe", &mut i) else {
            return Err(format!("tenant write {:?} does not parse", c.write));
        };
        let w = a.prob_weight();
        let fresh = !edges.contains_key(&f.tuple);
        if w == 0.0 {
            edges.remove(&f.tuple);
        } else {
            edges.insert(f.tuple.clone(), w);
        }
        let list = edge_list(&edges);
        let outcome = if w != 0.0 && fresh {
            let new = [(f.tuple.clone(), w)];
            tr.request();
            let o = tr.span("unify.fixpoint.patch", |_| {
                fixpoint::patch_inserts(
                    &ProbMonoid,
                    &mut run,
                    &list,
                    &new,
                    &new,
                    StepShape::LeftLinear,
                )
            });
            Some(o.map_err(|e| e.to_string())?)
        } else {
            None
        };
        match outcome {
            Some(PatchOutcome::Patched(s)) => refolded.push(s.refolded_rows as f64),
            _ => {
                rebuilds += 1;
                run = fixpoint::transitive_closure_on(Backend::Columnar, &ProbMonoid, &list)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    m.push(Metric::new(
        "unify.fixpoint.patch_ms_p50",
        ms(&tr.spans, "unify.fixpoint.patch", 0.5),
        "ms",
        1,
    ));
    m.push(Metric::new(
        "unify.fixpoint.patch_refolded_rows",
        quantile(&refolded, 0.5),
        "count",
        refolded.len(),
    ));
    m.push(Metric::new(
        "unify.fixpoint.rebuild_ratio",
        rebuilds as f64 / inputs.tenants[1].len().max(1) as f64,
        "ratio",
        inputs.tenants[1].len(),
    ));

    // Front doors (and arith, as the gap between the two Shapley calls).
    let chain_q = parse_query(gen::CHAIN).map_err(|e| e.to_string())?;
    let star_q = parse_query(gen::STAR).map_err(|e| e.to_string())?;
    let prob = probe(&mut tr, "unify.pqe.probability", 3, || {
        pqe::probability_on(Backend::Columnar, &chain_q, &chain_interner, &chain_tid)
    })
    .map_err(|e| e.to_string())?;
    m.push(Metric::new(
        "unify.pqe.probability_ms",
        ms(&tr.spans, "unify.pqe.probability", 0.5),
        "ms",
        3,
    ));
    let want = oracle::pqe_output(&chain_q, &chain_text)?;
    if format!("P(Q) = {prob:.9}\n") != want {
        mismatches.push(format!("pqe::probability_on: {prob:.9}, oracle {want}"));
    }
    let mut bi = Interner::new();
    let d = database_of(&gen::fact_file(&cli_inputs.bsm_d, false), &mut bi)?;
    let d_r = database_of(&gen::fact_file(&cli_inputs.bsm_repair, false), &mut bi)?;
    let sol = probe(&mut tr, "unify.bsm.maximize", 3, || {
        bsm::maximize_on(Backend::Columnar, &star_q, &bi, &d, &d_r, gen::BSM_THETA)
    })
    .map_err(|e| e.to_string())?;
    m.push(Metric::new(
        "unify.bsm.maximize_ms",
        ms(&tr.spans, "unify.bsm.maximize", 0.5),
        "ms",
        3,
    ));
    let oracle_sol = bsm::maximize_on(Backend::Map, &star_q, &bi, &d, &d_r, gen::BSM_THETA)
        .map_err(|e| e.to_string())?;
    if sol.curve != oracle_sol.curve {
        mismatches.push("bsm::maximize_on: curve differs from the map backend's".to_owned());
    }
    let mut si = Interner::new();
    let endo = database_of(&gen::fact_file(&cli_inputs.endo, false), &mut si)?.facts();
    let exo = database_of(&gen::fact_file(&cli_inputs.exo, false), &mut si)?.facts();
    probe(&mut tr, "unify.shapley.sat_counts", 3, || {
        shapley::sat_counts_on(Backend::Columnar, &star_q, &si, &exo, &endo)
    })
    .map_err(|e| e.to_string())?;
    m.push(Metric::new(
        "unify.shapley.sat_counts_ms",
        ms(&tr.spans, "unify.shapley.sat_counts", 0.5),
        "ms",
        3,
    ));
    probe(&mut tr, "unify.shapley.values", 1, || {
        shapley::shapley_values_on(Backend::Columnar, &star_q, &si, &exo, &endo)
    })
    .map_err(|e| e.to_string())?;
    m.push(Metric::new(
        "unify.shapley.values_ms",
        ms(&tr.spans, "unify.shapley.values", 0.5),
        "ms",
        1,
    ));

    // unify.serving: the --script workload through PqeSession.
    let script: Vec<ScriptCommand> = cli_inputs
        .script
        .iter()
        .map(|l| parse_command(l, 0, "script", &mut script_interner))
        .collect::<Result<_, _>>()?;
    let mut session =
        pqe::PqeSession::columnar(&script_interner, &script_tid).map_err(|e| e.to_string())?;
    session.set_cache_budget(Some(gen::SCRIPT_CACHE_ROWS));
    let mut pending: Vec<(Fact, f64)> = Vec::new();
    let mut script_queries = 0u64;
    let mut script_out = String::new();
    for cmd in &script {
        if let ScriptCommand::Update(f, a) = cmd {
            pending.push((f.clone(), a.prob_weight()));
            continue;
        }
        tr.request();
        if !pending.is_empty() {
            let n = pending.len();
            tr.span("unify.serving.update_batch", |_| {
                session.update_batch(&script_interner, &pending)
            })
            .map_err(|e| e.to_string())?;
            script_out.push_str(&format!("applied {n} update(s)\n"));
            pending.clear();
        }
        let (prob, echo) = match cmd {
            ScriptCommand::Query(q) => {
                script_queries += 1;
                let (pr, _) = tr
                    .span("unify.serving.query", |_| {
                        session.query(&script_interner, q)
                    })
                    .map_err(|e| e.to_string())?;
                (pr, q.to_string())
            }
            ScriptCommand::Fix { rel, src, dst } => {
                let (pr, _) = tr
                    .span("unify.serving.reachability", |_| {
                        session.reachability(&script_interner, rel, *src, *dst)
                    })
                    .map_err(|e| e.to_string())?;
                (
                    pr,
                    render_command(cmd, &script_interner)
                        .trim_start_matches("? ")
                        .to_owned(),
                )
            }
            ScriptCommand::Update(..) => unreachable!("updates are queued above"),
        };
        script_out.push_str(&format!("{echo} -> P(Q) = {prob:.9}\n"));
    }
    if !pending.is_empty() {
        session
            .update_batch(&script_interner, &pending)
            .map_err(|e| e.to_string())?;
        script_out.push_str(&format!("applied {} update(s)\n", pending.len()));
    }
    if script_out != oracle::script_output(&script_text, &cli_inputs.script)? {
        mismatches.push("PqeSession: the script trajectory differs from the oracle's".to_owned());
    }
    let mut serving_q: Vec<f64> = durations(&tr.spans, "unify.serving.query");
    serving_q.extend(durations(&tr.spans, "unify.serving.reachability"));
    m.push(Metric::new(
        "unify.serving.query_us_p50",
        quantile(&serving_q, 0.5) * 1e6,
        "us",
        serving_q.len(),
    ));
    m.push(Metric::new(
        "unify.serving.update_ms_p50",
        ms(&tr.spans, "unify.serving.update_batch", 0.5),
        "ms",
        1,
    ));
    m.push(Metric::new(
        "unify.serving.ops_performed",
        session.session().ops_performed() as f64,
        "count",
        1,
    ));
    m.push(Metric::new(
        "unify.serving.evictions",
        session.session().evictions() as f64,
        "count",
        1,
    ));
    m.push(Metric::new(
        "unify.serving.memo_hit_ratio",
        session.session().lower_hits() as f64 / script_queries.max(1) as f64,
        "ratio",
        1,
    ));

    // unify.incremental: the --mode incremental workload.
    let mut inc = pqe::IncrementalPqe::columnar(&chain_q, &inc_interner, &inc_tid)
        .map_err(|e| e.to_string())?;
    let updates: Vec<(Fact, f64)> = cli_inputs
        .inc_updates
        .iter()
        .map(
            |l| match parse_command(l, 0, "updates", &mut inc_interner) {
                Ok(ScriptCommand::Update(f, a)) => Ok((f, a.prob_weight())),
                _ => Err(format!("bad update line {l:?}")),
            },
        )
        .collect::<Result<_, _>>()?;
    let mut trajectory = vec![inc.probability()];
    for batch in updates.chunks(gen::INC_BATCH) {
        tr.request();
        trajectory.push(
            tr.span("unify.incremental.update_batch", |_| {
                inc.update_batch(&inc_interner, batch)
            })
            .map_err(|e| e.to_string())?,
        );
    }
    let want: Vec<String> =
        oracle::incremental_output(&chain_q, &inc_text, &cli_inputs.inc_updates, gen::INC_BATCH)?
            .lines()
            .map(|l| l.rsplit_once("P(Q) = ").map_or(l, |(_, v)| v).to_owned())
            .collect();
    let got: Vec<String> = trajectory.iter().map(|v| format!("{v:.9}")).collect();
    if got != want {
        mismatches.push("IncrementalPqe: the trajectory differs from the oracle's".to_owned());
    }
    m.push(Metric::new(
        "unify.incremental.update_us_p50",
        us(&tr.spans, "unify.incremental.update_batch", 0.5),
        "us",
        1,
    ));

    // The span dump and its summary.
    if let Some(parent) = spans_path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    std::fs::write(spans_path, dump(&tr.spans))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    println!("== spans ({} recorded)", tr.spans.len());
    print_summary(&tr.spans);
    Ok(TraceOutcome {
        metrics: m,
        attempted,
        failed,
        mismatches,
    })
}

fn database_of(text: &str, interner: &mut Interner) -> Result<Database, String> {
    Ok(parse_database(text, interner)
        .map_err(|e| e.to_string())?
        .database)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_dumps_round_trip() {
        let mut tr = Tracer::new(Instant::now(), true);
        tr.request();
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let selfs = self_times(&tr.spans);
        let inner = tr.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = tr.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.request, outer.request);
        assert!(selfs[&outer.id] < outer.secs() - 0.004);
        assert_eq!(parse_dump(&dump(&tr.spans)).unwrap(), tr.spans);
    }
}
