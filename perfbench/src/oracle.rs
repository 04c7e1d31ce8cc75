//! The independent oracle. Every wire reply and every CLI output is
//! recomputed from the generated text with the ordered-map backend's
//! front doors, fresh, outside the timed region, and compared
//! string-for-string with what `hq` printed.

use hq_arith::Rational;
use hq_db::text::parse_database;
use hq_db::{Database, Fact, Interner, Sym, Tuple};
use hq_query::Query;
use hq_unify::script::{parse_command, render_command, ScriptCommand};
use hq_unify::{bsm, pqe, shapley, Backend};
use std::collections::BTreeMap;

/// Relation contents with probabilities: a tuple absent from its map
/// is absent from the database.
pub type Rels = BTreeMap<Sym, BTreeMap<Tuple, f64>>;

/// Parses a fact file as `hq` loads it: facts without `@ p` weigh 1.
pub fn load(text: &str, interner: &mut Interner) -> Result<Rels, String> {
    let parsed = parse_database(text, interner).map_err(|e| e.to_string())?;
    let weights: BTreeMap<Fact, f64> = parsed.weights.into_iter().collect();
    let mut rels = Rels::new();
    for f in parsed.database.facts() {
        let p = weights.get(&f).copied().unwrap_or(1.0);
        rels.entry(f.rel).or_default().insert(f.tuple, p);
    }
    Ok(rels)
}

fn tid(rels: &Rels, only: &[Sym]) -> Vec<(Fact, f64)> {
    let mut out = Vec::new();
    for sym in only {
        for (t, p) in rels.get(sym).into_iter().flatten() {
            out.push((Fact::new(*sym, t.clone()), *p));
        }
    }
    out
}

/// A database of the given relations, as `hq bsm` / `hq shapley` load it.
fn database(rels: &Rels) -> Database {
    let mut db = Database::new();
    for (sym, tuples) in rels {
        for t in tuples.keys() {
            db.insert_tuple(*sym, t.clone());
        }
    }
    db
}

/// One parsed script or wire line.
pub fn parse(line: &str, interner: &mut Interner) -> Result<ScriptCommand, String> {
    parse_command(line, 0, "oracle", interner)
}

/// The relations a read line reads.
pub fn read_relations(cmd: &ScriptCommand, interner: &mut Interner) -> Vec<Sym> {
    match cmd {
        ScriptCommand::Query(q) => q.atoms().iter().map(|a| interner.intern(&a.rel)).collect(),
        ScriptCommand::Fix { rel, .. } => vec![interner.intern(rel)],
        ScriptCommand::Update(f, _) => vec![f.rel],
    }
}

/// Applies one update line to `rels` (a delete and a zero weight
/// coincide under PQE, as in `hq`).
pub fn apply(rels: &mut Rels, line: &str, interner: &mut Interner) -> Result<(), String> {
    match parse(line, interner)? {
        ScriptCommand::Update(f, action) => {
            let p = action.prob_weight();
            let rel = rels.entry(f.rel).or_default();
            if p == 0.0 {
                rel.remove(&f.tuple);
            } else {
                rel.insert(f.tuple, p);
            }
            Ok(())
        }
        _ => Err(format!("not an update: {line}")),
    }
}

fn prob_query(q: &Query, rels: &Rels, interner: &mut Interner) -> Result<f64, String> {
    let syms: Vec<Sym> = q.atoms().iter().map(|a| interner.intern(&a.rel)).collect();
    pqe::probability_on(Backend::Map, q, interner, &tid(rels, &syms)).map_err(|e| e.to_string())
}

/// The reply `hq` must give to the read `line` over `rels`, in the
/// `{:.9}` form the wire and `--script` print.
pub fn answer(rels: &Rels, line: &str, interner: &mut Interner) -> Result<String, String> {
    let cmd = parse(line, interner)?;
    let (p, echo) = match &cmd {
        ScriptCommand::Query(q) => (prob_query(q, rels, interner)?, q.to_string()),
        ScriptCommand::Fix { rel, src, dst } => {
            let sym = interner.intern(rel);
            let edges: Vec<(Tuple, f64)> = rels
                .get(&sym)
                .into_iter()
                .flatten()
                .map(|(t, p)| (t.clone(), *p))
                .collect();
            let (p, _) = pqe::reachability_on(Backend::Map, &edges, *src, *dst)
                .map_err(|e| e.to_string())?;
            let echo = render_command(&cmd, interner);
            (p, echo.trim_start_matches("? ").to_owned())
        }
        ScriptCommand::Update(..) => return Err(format!("not a read: {line}")),
    };
    Ok(format!("{echo} -> P(Q) = {p:.9}"))
}

/// The probability a read line answers, for the saturation check.
pub fn value_of(reply: &str) -> Option<f64> {
    reply.rsplit_once("P(Q) = ")?.1.trim().parse().ok()
}

/// `hq pqe --query Q --db F`.
pub fn pqe_output(q: &Query, db: &str) -> Result<String, String> {
    let mut interner = Interner::new();
    let rels = load(db, &mut interner)?;
    Ok(format!(
        "P(Q) = {:.9}\n",
        prob_query(q, &rels, &mut interner)?
    ))
}

/// `hq bsm --query Q --db D --repair R --theta θ`.
pub fn bsm_output(q: &Query, d: &str, repair: &str, theta: usize) -> Result<String, String> {
    let mut interner = Interner::new();
    let d = database(&load(d, &mut interner)?);
    let d_r = database(&load(repair, &mut interner)?);
    let sol =
        bsm::maximize_on(Backend::Map, q, &interner, &d, &d_r, theta).map_err(|e| e.to_string())?;
    let mut out = format!("max Q(D') within budget θ={theta}: {}\n", sol.optimum());
    out.push_str("budget curve:\n");
    for i in 0..=theta {
        out.push_str(&format!("  θ={i}: {}\n", sol.value_at(i)));
    }
    Ok(out)
}

/// `hq shapley --query Q --db ENDO --exogenous EXO`: exact rationals.
pub fn shapley_output(q: &Query, endo: &str, exo: &str) -> Result<String, String> {
    let mut interner = Interner::new();
    let endogenous = database(&load(endo, &mut interner)?).facts();
    let exogenous = database(&load(exo, &mut interner)?).facts();
    let values = shapley::shapley_values_on(Backend::Map, q, &interner, &exogenous, &endogenous)
        .map_err(|e| e.to_string())?;
    let mut out = String::from("Shapley values (exact):\n");
    let mut total = Rational::zero();
    for (f, v) in &values {
        out.push_str(&format!(
            "  {:<30} {} ≈ {:.6}\n",
            f.display(&interner).to_string(),
            v,
            v.to_f64()
        ));
        total = &total + v;
    }
    out.push_str(&format!("  total = {total} ≈ {:.6}\n", total.to_f64()));
    Ok(out)
}

/// `hq pqe --mode serve --script S --db F`: every line before the
/// trailer (the trailer's cache counters depend on the cache bound and
/// are not answers).
pub fn script_output(db: &str, script: &[String]) -> Result<String, String> {
    let mut interner = Interner::new();
    let mut rels = load(db, &mut interner)?;
    let mut out = String::new();
    let mut pending = 0usize;
    for line in script {
        if line.starts_with('?') {
            if pending > 0 {
                out.push_str(&format!("applied {pending} update(s)\n"));
                pending = 0;
            }
            out.push_str(&answer(&rels, line, &mut interner)?);
            out.push('\n');
        } else {
            apply(&mut rels, line, &mut interner)?;
            pending += 1;
        }
    }
    if pending > 0 {
        out.push_str(&format!("applied {pending} update(s)\n"));
    }
    Ok(out)
}

/// `hq pqe --mode incremental --query Q --db F --updates U --batch n`:
/// the whole probability trajectory.
pub fn incremental_output(
    q: &Query,
    db: &str,
    updates: &[String],
    batch: usize,
) -> Result<String, String> {
    let mut interner = Interner::new();
    let mut rels = load(db, &mut interner)?;
    let mut out = format!("P(Q) = {:.9}\n", prob_query(q, &rels, &mut interner)?);
    for chunk in updates.chunks(batch) {
        let mut labels = Vec::new();
        for line in chunk {
            apply(&mut rels, line, &mut interner)?;
            labels.push(render_command(&parse(line, &mut interner)?, &interner));
        }
        let p = prob_query(q, &rels, &mut interner)?;
        out.push_str(&format!("{} -> P(Q) = {p:.9}\n", labels.join(", ")));
    }
    Ok(out)
}

/// One acknowledged write: `ok epoch <epoch>`.
struct Acked {
    epoch: u64,
    rel: Sym,
    line: String,
}

/// Checks wire replies, one record list per connection, against the
/// oracle. A read inside `pin`/`unpin` answers for the pinned epoch,
/// whose state is the fact file plus every write acknowledged at an
/// epoch no later than it; unpinned reads only occur before any write
/// and answer for the fact file. Returns one line per mismatch.
pub struct Checker<'a> {
    base: &'a Rels,
    interner: Interner,
    /// `(read line, relevant writes included) → expected reply`.
    memo: BTreeMap<(String, usize), String>,
}

impl<'a> Checker<'a> {
    pub fn new(base: &'a Rels, interner: Interner) -> Checker<'a> {
        Checker {
            base,
            interner,
            memo: BTreeMap::new(),
        }
    }

    /// The oracle's reply to `line` on the base state.
    pub fn expect_base(&mut self, line: &str) -> Result<String, String> {
        self.expect(line, 0, &[])
    }

    fn expect(&mut self, line: &str, epoch: u64, writes: &[Acked]) -> Result<String, String> {
        let cmd = parse(line, &mut self.interner)?;
        let rels = read_relations(&cmd, &mut self.interner);
        // Writes sorted by epoch: those visible at `epoch` on the read's
        // relations are a prefix of the relevant ones, so their count
        // names the state.
        let relevant: Vec<&Acked> = writes
            .iter()
            .filter(|w| w.epoch <= epoch && rels.contains(&w.rel))
            .collect();
        let key = (line.to_owned(), relevant.len());
        if let Some(hit) = self.memo.get(&key) {
            return Ok(hit.clone());
        }
        let mut state = Rels::new();
        for sym in &rels {
            state.insert(*sym, self.base.get(sym).cloned().unwrap_or_default());
        }
        for w in relevant {
            apply(&mut state, &w.line, &mut self.interner)?;
        }
        let expected = answer(&state, line, &mut self.interner)?;
        self.memo.insert(key, expected.clone());
        Ok(expected)
    }

    pub fn check(&mut self, conns: &[Vec<crate::wire::Record>]) -> Vec<String> {
        use crate::wire::Verb;
        let mut bad = Vec::new();
        let mut writes = Vec::new();
        for rec in conns.iter().flatten() {
            let Ok(reply) = &rec.reply else { continue };
            if rec.verb() != Verb::Write || reply.starts_with("error:") {
                continue;
            }
            match reply.strip_prefix("ok epoch ").map(str::parse::<u64>) {
                Some(Ok(epoch)) => {
                    let rel = match parse(&rec.line, &mut self.interner) {
                        Ok(ScriptCommand::Update(f, _)) => f.rel,
                        _ => {
                            bad.push(format!("unparsable write {:?}", rec.line));
                            continue;
                        }
                    };
                    writes.push(Acked {
                        epoch,
                        rel,
                        line: rec.line.clone(),
                    });
                }
                _ => bad.push(format!("{:?} -> {reply:?}", rec.line)),
            }
        }
        writes.sort_by_key(|w| w.epoch);
        let any_write = !writes.is_empty();
        for conn in conns {
            let mut pinned: Option<u64> = None;
            for rec in conn {
                let Ok(reply) = &rec.reply else { continue };
                if reply.starts_with("error:") {
                    continue;
                }
                match rec.verb() {
                    Verb::Pin => match reply.strip_prefix("pinned epoch ").map(str::parse) {
                        Some(Ok(e)) => pinned = Some(e),
                        _ => bad.push(format!("pin -> {reply:?}")),
                    },
                    Verb::Unpin => {
                        pinned = None;
                        if reply != "ok" {
                            bad.push(format!("unpin -> {reply:?}"));
                        }
                    }
                    Verb::Write => {}
                    Verb::Read | Verb::Fix => {
                        let epoch = match (pinned, any_write) {
                            (Some(e), _) => e,
                            (None, false) => 0,
                            (None, true) => {
                                bad.push(format!("unpinned read beside writes: {:?}", rec.line));
                                continue;
                            }
                        };
                        match self.expect(&rec.line, epoch, &writes) {
                            Ok(want) if &want == reply => {}
                            Ok(want) => bad.push(format!(
                                "{:?} at epoch {epoch}: got {reply:?}, want {want:?}",
                                rec.line
                            )),
                            Err(e) => bad.push(format!("{:?}: oracle failed: {e}", rec.line)),
                        }
                    }
                }
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Record;
    use std::time::Instant;

    const DB: &str = "E(1,2) @ 0.5\nF(2,3) @ 0.5\nF(2,9) @ 0.25\nG(1,2) @ 0.5\nG(2,3) @ 0.5\n";
    const CHAIN: &str = "? Q() :- E(X,Y), F(Y,Z)";

    fn rec(line: &str, reply: &str) -> Record {
        Record {
            line: line.to_owned(),
            reply: Ok(reply.to_owned()),
            started: Instant::now(),
            secs: 0.0,
        }
    }

    #[test]
    fn answers_match_the_paper_oracle_value() {
        let mut interner = Interner::new();
        let rels = load(DB, &mut interner).unwrap();
        let chain = answer(&rels, CHAIN, &mut interner).unwrap();
        assert_eq!(chain, "Q() :- E(X, Y), F(Y, Z) -> P(Q) = 0.312500000");
        assert_eq!(
            answer(&rels, "? fix G 1 3", &mut interner).unwrap(),
            "fix G 1 3 -> P(Q) = 0.250000000"
        );
    }

    #[test]
    fn a_tampered_reply_is_caught() {
        let mut interner = Interner::new();
        let rels = load(DB, &mut interner).unwrap();
        let mut checker = Checker::new(&rels, interner);
        let good = checker.expect_base(CHAIN).unwrap();
        let bad = good.replace("0.312500000", "0.312500001");
        assert!(checker.check(&[vec![rec(CHAIN, &good)]]).is_empty());
        assert_eq!(checker.check(&[vec![rec(CHAIN, &bad)]]).len(), 1);
    }

    #[test]
    fn pinned_reads_answer_for_their_epoch() {
        let mut interner = Interner::new();
        let rels = load(DB, &mut interner).unwrap();
        let mut checker = Checker::new(&rels, interner);
        let before = "Q() :- E(X, Y), F(Y, Z) -> P(Q) = 0.312500000";
        // E(1,2) @ 0.9 lifts P(Q) to 0.9 · 0.625.
        let after = "Q() :- E(X, Y), F(Y, Z) -> P(Q) = 0.562500000";
        let reader = vec![
            rec("pin", "pinned epoch 0"),
            rec(CHAIN, before),
            rec("unpin", "ok"),
        ];
        let writer = vec![
            rec("E(1,2) @ 0.9", "ok epoch 1"),
            rec("pin", "pinned epoch 1"),
            rec(CHAIN, after),
            rec("unpin", "ok"),
        ];
        assert!(checker.check(&[reader.clone(), writer.clone()]).is_empty());
        // The same reply at the other epoch is wrong.
        let mut stale = writer;
        stale[2] = rec(CHAIN, before);
        assert_eq!(checker.check(&[reader, stale]).len(), 1);
    }

    #[test]
    fn cli_outputs_must_match_in_full() {
        let q = hq_query::parse_query("Q() :- E(X,Y), F(Y,Z)").unwrap();
        let want = crate::cli::Expected::Exact(pqe_output(&q, DB).unwrap());
        assert!(want.matches("P(Q) = 0.312500000\n"));
        assert!(!want.matches("P(Q) = 0.312500001\n"));
        let script = vec!["E(1,2) @ 0.9".to_owned(), CHAIN.to_owned()];
        let prefix = crate::cli::Expected::Prefix(script_output(DB, &script).unwrap());
        let out =
            "applied 1 update(s)\nQ() :- E(X, Y), F(Y, Z) -> P(Q) = 0.562500000\nserved 1 query";
        assert!(prefix.matches(out));
        assert!(!prefix.matches(&out.replace("0.5625", "0.5626")));
    }
}
