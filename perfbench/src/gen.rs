//! Seeded inputs. Every file `hq` reads and every line a client sends
//! is a pure function of the workload seed (and of `--seconds`, which
//! fixes the request counts), so the parent commit and a change see
//! byte-identical inputs.

/// splitmix64: tiny, and the same stream on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// One generated fact.
#[derive(Clone, Debug, PartialEq)]
pub struct GenFact {
    pub rel: &'static str,
    pub args: Vec<i64>,
    pub p: f64,
}

impl GenFact {
    pub fn atom(&self) -> String {
        let args: Vec<String> = self.args.iter().map(i64::to_string).collect();
        format!("{}({})", self.rel, args.join(","))
    }

    /// The fact-file / wire upsert line. Probabilities are written with
    /// nine decimals; `hq` and the oracle both parse this text.
    pub fn line(&self) -> String {
        format!("{} @ {:.9}", self.atom(), self.p)
    }
}

/// Probability range per relation, chosen so that every query of the
/// read mix answers well inside (0, 1) at the sizes below:
/// Σp over E (and over F) is ≈ 1.8 spread over 16 join values; R sums
/// to ≈ 0.5 per star root; S·T to ≈ 0.4 per root; forest edges are
/// ≤ 0.45 on trees of 9 nodes.
fn prob_range(rel: &str) -> (f64, f64) {
    match rel {
        "E" | "F" => (1e-5, 1e-4),
        "R" => (5e-5, 4.4e-4),
        "S" | "T" => (0.004, 0.024),
        "G" => (0.05, 0.45),
        other => unreachable!("no probability range for relation {other}"),
    }
}

fn fact(rng: &mut Rng, rel: &'static str, args: Vec<i64>) -> GenFact {
    let (lo, hi) = prob_range(rel);
    GenFact {
        rel,
        args,
        p: rng.uniform(lo, hi),
    }
}

pub const CHAIN: &str = "Q() :- E(X,Y), F(Y,Z)";
pub const STAR: &str = "Q() :- R(A,B), S(A,C), T(A,C,D)";

/// The hierarchical queries of the read mix: the chain, the Eq. (1)
/// star and overlapping sub-queries of both, so the plan cache shares
/// nodes across them.
pub const READ_QUERIES: [&str; 6] = [
    CHAIN,
    "Q() :- E(X,Y)",
    "Q() :- F(Y,Z)",
    STAR,
    "Q() :- R(A,B), S(A,C)",
    "Q() :- S(A,C), T(A,C,D)",
];

/// Chain: 16 join values, `CHAIN_FANOUT` facts per value on each side.
const CHAIN_JOIN: i64 = 16;
/// Star: 4 roots; R and S have `STAR_FANOUT` facts per root, T one per
/// (root, C) pair.
const STAR_ROOTS: i64 = 4;
/// Forest: trees of `TREE_NODES` nodes (8 edges each).
const TREE_NODES: usize = 9;
const NODE_BASE: i64 = 10_000;

/// Novel values sit far above every generated value, so an insert that
/// carries one always extends the dictionary.
const NOVEL_A: i64 = 100_000_000;
const NOVEL_B: i64 = 200_000_000;

fn chain(rng: &mut Rng, fanout: i64) -> Vec<GenFact> {
    let mut out = Vec::new();
    for y in 0..CHAIN_JOIN {
        for x in 0..fanout {
            out.push(fact(rng, "E", vec![x, y]));
        }
    }
    for y in 0..CHAIN_JOIN {
        for z in 0..fanout {
            out.push(fact(rng, "F", vec![y, z]));
        }
    }
    out
}

fn star(rng: &mut Rng, fanout: i64) -> Vec<GenFact> {
    let mut out = Vec::new();
    for a in 0..STAR_ROOTS {
        for b in 0..fanout {
            out.push(fact(rng, "R", vec![a, b]));
        }
    }
    for a in 0..STAR_ROOTS {
        for c in 0..fanout {
            out.push(fact(rng, "S", vec![a, c]));
        }
    }
    for a in 0..STAR_ROOTS {
        for c in 0..fanout {
            let d = rng.below(64) as i64;
            out.push(fact(rng, "T", vec![a, c, d]));
        }
    }
    out
}

/// A forest of `trees` random recursive trees; returns the edges and
/// each tree's parent array.
fn forest(rng: &mut Rng, trees: usize) -> (Vec<GenFact>, Vec<Vec<usize>>) {
    let mut edges = Vec::new();
    let mut parents = Vec::new();
    for t in 0..trees {
        let mut parent = vec![0usize; TREE_NODES];
        for (j, slot) in parent.iter_mut().enumerate().skip(1) {
            *slot = rng.below(j);
            edges.push(fact(rng, "G", vec![node(t, *slot), node(t, j)]));
        }
        parents.push(parent);
    }
    (edges, parents)
}

fn node(tree: usize, j: usize) -> i64 {
    NODE_BASE + (tree * 16 + j) as i64
}

fn depth(parent: &[usize], mut j: usize) -> usize {
    let mut d = 0;
    while j != 0 {
        j = parent[j];
        d += 1;
    }
    d
}

/// `? fix G` readouts in the three shapes: pair (at distance ≤ 2),
/// src-only (a tree root) and dst-only (a tree's deepest node). Two of
/// each. The full `? fix G` total is left out: over thousands of edges
/// it saturates to 1.
fn fix_readouts(rng: &mut Rng, parents: &[Vec<usize>]) -> Vec<String> {
    let mut out = Vec::new();
    for hops in [1, 2] {
        let t = rng.below(parents.len());
        let p = &parents[t];
        let j = (1..TREE_NODES)
            .find(|&j| depth(p, j) >= hops)
            .expect("node 1 hangs off the root");
        let mut a = j;
        for _ in 0..hops.min(depth(p, j)) {
            a = p[a];
        }
        out.push(format!("? fix G {} {}", node(t, a), node(t, j)));
    }
    for _ in 0..2 {
        let t = rng.below(parents.len());
        out.push(format!("? fix G {}", node(t, 0)));
    }
    for _ in 0..2 {
        let t = rng.below(parents.len());
        let p = &parents[t];
        let deepest = (1..TREE_NODES)
            .max_by_key(|&j| (depth(p, j), j))
            .expect("trees have edges");
        out.push(format!("? fix G _ {}", node(t, deepest)));
    }
    out
}

/// The live facts of the relations one writer owns, so that writes can
/// pick an existing fact, delete it, and insert it again later.
struct Owned {
    live: Vec<GenFact>,
    deleted: Vec<GenFact>,
    next_novel: i64,
    written: usize,
}

impl Owned {
    fn new(facts: impl IntoIterator<Item = GenFact>, novel_base: i64) -> Owned {
        Owned {
            live: facts.into_iter().collect(),
            deleted: Vec::new(),
            next_novel: novel_base,
            written: 0,
        }
    }

    fn novel(&mut self) -> i64 {
        self.next_novel += 1;
        self.next_novel
    }

    /// The next write of `mix`, applied to the model. The kinds cycle
    /// through `mix` in order, so every seed writes the same shares;
    /// the seed picks the facts and the probabilities.
    fn write(&mut self, rng: &mut Rng, mix: &[WriteKind]) -> String {
        let kind = mix[self.written % mix.len()];
        self.written += 1;
        match kind {
            WriteKind::Delete => {
                let f = self.live.swap_remove(rng.below(self.live.len()));
                let line = format!("!{}", f.atom());
                self.deleted.push(f);
                line
            }
            WriteKind::Reinsert if !self.deleted.is_empty() => {
                let mut f = self.deleted.swap_remove(rng.below(self.deleted.len()));
                let (lo, hi) = prob_range(f.rel);
                f.p = rng.uniform(lo, hi);
                let line = f.line();
                self.live.push(f);
                line
            }
            WriteKind::Novel => {
                let base = self.live[rng.below(self.live.len())].clone();
                let mut args = base.args.clone();
                match base.rel {
                    // A new leaf under an existing node keeps G a forest.
                    "G" => args = vec![base.args[1], self.novel()],
                    // Otherwise the novel value goes in a non-join column.
                    "E" => args[0] = self.novel(),
                    _ => *args.last_mut().expect("facts have arguments") = self.novel(),
                }
                let f = fact(rng, base.rel, args);
                let line = f.line();
                self.live.push(f);
                line
            }
            WriteKind::Annotate | WriteKind::Reinsert => {
                let i = rng.below(self.live.len());
                let (lo, hi) = prob_range(self.live[i].rel);
                self.live[i].p = rng.uniform(lo, hi);
                self.live[i].line()
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum WriteKind {
    /// A new probability for an existing fact.
    Annotate,
    /// `!R(..)` of an existing fact.
    Delete,
    /// A deleted fact, back with a new probability.
    Reinsert,
    /// A fact carrying a value no relation has held.
    Novel,
}

use WriteKind::{Annotate, Delete, Novel, Reinsert};

/// Tenant A (E F R S T): 40 % annotation changes, 20 % deletes, 20 %
/// re-inserts of deleted facts, 20 % novel-value inserts.
const TENANT_A: &[WriteKind] = &[Annotate, Novel, Delete, Annotate, Reinsert];
/// Tenant B (G): 5 in 7 new leaves (forest-preserving, novel node),
/// 1 in 7 edge deletes, 1 in 7 re-inserts of deleted edges. A deleted
/// edge makes its child a root, and re-inserting it restores the
/// original parent, so G stays a forest.
const TENANT_B: &[WriteKind] = &[Novel, Novel, Delete, Novel, Novel, Reinsert, Novel];

/// One tenant cycle: a write, then `pin`, the reads, `unpin`.
#[derive(Clone, Debug)]
pub struct Cycle {
    pub write: String,
    pub reads: Vec<String>,
}

/// Wire workload sizes.
const WIRE_CHAIN_FANOUT: i64 = 2048;
const WIRE_STAR_FANOUT: i64 = 2048;
const WIRE_TREES: usize = 1024;
/// Requests per connection per second of `--seconds` on
/// `wire_hot_reads`, and cycles per tenant per second on
/// `wire_tenants`: sized to the ~22 replies/s a connection gets today,
/// so a run lasts about `--seconds`; the counts stay fixed so the
/// parent and a change make the same requests.
const HOT_PER_CONN_PER_S: usize = 20;
const CYCLES_PER_TENANT_PER_10S: usize = 35;

/// The shared fact file and the client scripts of both wire workloads.
pub struct WireInputs {
    pub facts: Vec<GenFact>,
    /// Every distinct read of the mix (queries then `? fix` readouts).
    pub reads: Vec<String>,
    /// Per-connection request lines of `wire_hot_reads`.
    pub hot: [Vec<String>; 2],
    /// Per-tenant cycles of `wire_tenants` (A owns E F R S T, B owns G).
    pub tenants: [Vec<Cycle>; 2],
}

impl WireInputs {
    /// Each tenant's first `cycles` cycles as wire lines.
    pub fn tenant_scripts(&self, cycles: usize) -> Vec<Vec<String>> {
        self.tenants
            .iter()
            .map(|cs| {
                cs.iter()
                    .take(cycles)
                    .flat_map(|c| {
                        let mut lines = vec![c.write.clone(), "pin".to_owned()];
                        lines.extend(c.reads.iter().cloned());
                        lines.push("unpin".to_owned());
                        lines
                    })
                    .collect()
            })
            .collect()
    }
}

pub fn wire(seed: u64, seconds: u64) -> WireInputs {
    let mut rng = Rng::new(seed, 1);
    let mut facts = chain(&mut rng, WIRE_CHAIN_FANOUT);
    facts.extend(star(&mut rng, WIRE_STAR_FANOUT));
    let (edges, parents) = forest(&mut rng, WIRE_TREES);
    let mut reads: Vec<String> = READ_QUERIES.iter().map(|q| format!("? {q}")).collect();
    reads.extend(fix_readouts(&mut rng, &parents));
    let per_conn = HOT_PER_CONN_PER_S * seconds as usize;
    let hot = [0, 1].map(|_| {
        (0..per_conn)
            .map(|_| reads[rng.below(reads.len())].clone())
            .collect()
    });
    let cycles = (CYCLES_PER_TENANT_PER_10S * seconds as usize).div_ceil(10);
    let queries = READ_QUERIES.len();
    let tenant = |owned: &mut Owned, mix: &[WriteKind], rng: &mut Rng| -> Vec<Cycle> {
        (0..cycles)
            .map(|_| {
                let write = owned.write(rng, mix);
                let first = rng.below(queries);
                let second = (first + 1 + rng.below(queries - 1)) % queries;
                let fix = queries + rng.below(reads.len() - queries);
                Cycle {
                    write,
                    reads: vec![
                        reads[first].clone(),
                        reads[second].clone(),
                        reads[fix].clone(),
                    ],
                }
            })
            .collect()
    };
    let mut a = Owned::new(facts.iter().cloned(), NOVEL_A);
    let mut b = Owned::new(edges.iter().cloned(), NOVEL_B);
    let tenants = [
        tenant(&mut a, TENANT_A, &mut rng),
        tenant(&mut b, TENANT_B, &mut rng),
    ];
    facts.extend(edges);
    WireInputs {
        facts,
        reads,
        hot,
        tenants,
    }
}

/// Inputs of the five CLI workloads.
pub struct CliInputs {
    /// `hq pqe` on the chain.
    pub chain: Vec<GenFact>,
    /// `hq bsm` on Eq. (1): the database and the repair candidates.
    pub bsm_d: Vec<GenFact>,
    pub bsm_repair: Vec<GenFact>,
    /// `hq shapley` on Eq. (1): endogenous and exogenous facts.
    pub endo: Vec<GenFact>,
    pub exo: Vec<GenFact>,
    /// `hq pqe --mode serve --script`: database and script lines.
    pub script_db: Vec<GenFact>,
    pub script: Vec<String>,
    /// `hq pqe --mode incremental`: database and update lines.
    pub inc_db: Vec<GenFact>,
    pub inc_updates: Vec<String>,
}

pub const BSM_THETA: usize = 128;
pub const INC_BATCH: usize = 16;
const BSM_FANOUT: i64 = 2048;
const BSM_REPAIRS_PER_REL: usize = 2048;
const SHAPLEY_ENDO_PER_REL: usize = 24;
const SHAPLEY_EXO_FANOUT: i64 = 64;
const SCRIPT_CHAIN_FANOUT: i64 = 512;
const SCRIPT_STAR_FANOUT: i64 = 512;
const SCRIPT_TREES: usize = 256;
const SCRIPT_BLOCKS: usize = 24;
/// The script's `--cache-rows`, below its working set, so nodes are
/// evicted and rebuilt.
pub const SCRIPT_CACHE_ROWS: usize = 8192;
const INC_FANOUT: i64 = 256;
const INC_UPDATES: usize = 2048;

pub fn cli(seed: u64) -> CliInputs {
    let mut rng = Rng::new(seed, 2);
    let chain_db = chain(&mut rng, WIRE_CHAIN_FANOUT);

    // BSM: repair candidates are new facts over the same roots, so
    // each can raise the bag-set count.
    let bsm_d = star(&mut rng, BSM_FANOUT);
    let mut bsm_repair = Vec::new();
    for k in 0..BSM_REPAIRS_PER_REL as i64 {
        let a = rng.below(STAR_ROOTS as usize) as i64;
        bsm_repair.push(fact(&mut rng, "R", vec![a, BSM_FANOUT + k]));
        let a = rng.below(STAR_ROOTS as usize) as i64;
        bsm_repair.push(fact(&mut rng, "S", vec![a, BSM_FANOUT + k]));
        let a = rng.below(STAR_ROOTS as usize) as i64;
        let c = rng.below(BSM_FANOUT as usize) as i64;
        bsm_repair.push(fact(&mut rng, "T", vec![a, c, 64 + k]));
    }

    // Shapley: root 0 has exogenous R, roots 2 and 3 exogenous T, and
    // every root exogenous S. An endogenous T completes a star at root
    // 0, an endogenous R one at roots 2 and 3, and root 1 needs an
    // endogenous R and T together, so the values are unequal exact
    // rationals. The endogenous S facts join no T: null players.
    let k_exo = SHAPLEY_EXO_FANOUT;
    let mut exo = Vec::new();
    for b in 0..k_exo {
        exo.push(fact(&mut rng, "R", vec![0, b]));
    }
    for a in 0..STAR_ROOTS {
        for c in 0..k_exo {
            exo.push(fact(&mut rng, "S", vec![a, c]));
        }
    }
    for a in 2..STAR_ROOTS {
        for c in 0..k_exo {
            let d = rng.below(64) as i64;
            exo.push(fact(&mut rng, "T", vec![a, c, d]));
        }
    }
    let mut endo = Vec::new();
    for k in 0..SHAPLEY_ENDO_PER_REL as i64 {
        let a = 1 + rng.below(3) as i64;
        endo.push(fact(&mut rng, "R", vec![a, k_exo + k]));
        let a = rng.below(2) as i64;
        let c = rng.below(k_exo as usize) as i64;
        endo.push(fact(&mut rng, "T", vec![a, c, 64 + k]));
        let a = rng.below(STAR_ROOTS as usize) as i64;
        endo.push(fact(&mut rng, "S", vec![a, k_exo + k]));
    }

    // Script: blocks of updates (existing, novel, delete) followed by
    // queries and readouts of the mix.
    let mut script_db = chain(&mut rng, SCRIPT_CHAIN_FANOUT);
    script_db.extend(star(&mut rng, SCRIPT_STAR_FANOUT));
    let (edges, parents) = forest(&mut rng, SCRIPT_TREES);
    let mut reads: Vec<String> = READ_QUERIES.iter().map(|q| format!("? {q}")).collect();
    reads.extend(fix_readouts(&mut rng, &parents));
    let mut rel_owner = Owned::new(script_db.iter().cloned(), NOVEL_A);
    let mut g_owner = Owned::new(edges.iter().cloned(), NOVEL_B);
    script_db.extend(edges);
    let mut script = Vec::new();
    for block in 0..SCRIPT_BLOCKS {
        for _ in 0..3 {
            script.push(rel_owner.write(&mut rng, TENANT_A));
        }
        script.push(g_owner.write(&mut rng, TENANT_B));
        // Every block reads the whole mix once, in a seeded rotation.
        let start = (block * 5 + rng.below(reads.len())) % reads.len();
        for i in 0..reads.len() {
            script.push(reads[(start + i) % reads.len()].clone());
        }
    }

    let inc_db = chain(&mut rng, INC_FANOUT);
    let mut inc_owner = Owned::new(inc_db.iter().cloned(), NOVEL_A);
    let inc_updates = (0..INC_UPDATES)
        .map(|_| inc_owner.write(&mut rng, TENANT_A))
        .collect();

    CliInputs {
        chain: chain_db,
        bsm_d,
        bsm_repair,
        endo,
        exo,
        script_db,
        script,
        inc_db,
        inc_updates,
    }
}

/// A fact file's text. `weighted: false` writes bare facts (the BSM and
/// Shapley inputs carry no probabilities).
pub fn fact_file(facts: &[GenFact], weighted: bool) -> String {
    let mut out = String::new();
    for f in facts {
        if weighted {
            out.push_str(&f.line());
        } else {
            out.push_str(&f.atom());
        }
        out.push('\n');
    }
    out
}

pub fn lines_file(lines: &[String]) -> String {
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire_text(seed: u64) -> String {
        let w = wire(seed, 2);
        let mut text = fact_file(&w.facts, true);
        for lines in w.hot.iter() {
            text.push_str(&lines_file(lines));
        }
        for cycles in w.tenants.iter() {
            for c in cycles {
                text.push_str(&c.write);
                text.push_str(&lines_file(&c.reads));
            }
        }
        text
    }

    fn cli_text(seed: u64) -> String {
        let c = cli(seed);
        let mut text = String::new();
        for facts in [
            &c.chain,
            &c.bsm_d,
            &c.bsm_repair,
            &c.endo,
            &c.exo,
            &c.script_db,
            &c.inc_db,
        ] {
            text.push_str(&fact_file(facts, true));
        }
        text.push_str(&lines_file(&c.script));
        text.push_str(&lines_file(&c.inc_updates));
        text
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(wire_text(7), wire_text(7));
        assert_eq!(cli_text(7), cli_text(7));
        assert_ne!(wire_text(7), wire_text(8));
        assert_ne!(cli_text(7), cli_text(8));
    }

    #[test]
    fn tenant_writes_keep_the_forest_a_forest() {
        let w = wire(3, 10);
        let mut interner = hq_db::Interner::new();
        let mut rels = crate::oracle::load(&fact_file(&w.facts, true), &mut interner).unwrap();
        for c in &w.tenants[1] {
            crate::oracle::apply(&mut rels, &c.write, &mut interner).unwrap();
        }
        let g = interner.get("G").unwrap();
        let mut parents = std::collections::HashMap::new();
        for t in rels[&g].keys() {
            assert!(
                parents.insert(t.get(1), t.get(0)).is_none(),
                "two parents for {t:?}"
            );
        }
        for &child in parents.keys() {
            let (mut node, mut hops) = (child, 0);
            while let Some(&up) = parents.get(&node) {
                node = up;
                hops += 1;
                assert!(hops <= parents.len(), "cycle through {child:?}");
            }
        }
    }
}
