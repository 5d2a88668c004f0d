//! What the simulated users ask for: the charts of an exploration path,
//! as SPARQL text, and the seeded request sequences of each workload.

use crate::reference::{Answer, Reference, RDF_TYPE, SUB_CLASS_OF};
use std::collections::HashMap;

pub const DBO: &str = "http://dbpedia.org/ontology/";
pub const OWL_THING: &str = "http://www.w3.org/2002/07/owl#Thing";

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    Out,
    In,
}

/// One chart of an exploration path. Types are materialized in the
/// dataset, so the node set after a run of subclass drill-downs is the
/// instance set of the last class, and a chart is fixed by its class
/// (and, for object charts, the property bar it expands).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Chart {
    /// Direct subclasses of the class with their instance counts.
    Subclass { class: String },
    /// Properties featured by the class's instances (the eLinda
    /// property-expansion query, which the decomposer recognises).
    Property { class: String, dir: Dir },
    /// Classes of the nodes reached through `prop` from the instances.
    Object {
        class: String,
        prop: String,
        dir: Dir,
    },
}

impl Chart {
    pub fn class(&self) -> &str {
        match self {
            Chart::Subclass { class }
            | Chart::Property { class, .. }
            | Chart::Object { class, .. } => class,
        }
    }

    /// The SPARQL text the explorer sends for this chart.
    pub fn sparql(&self) -> String {
        match self {
            Chart::Subclass { class } => format!(
                "SELECT ?c (COUNT(?s) AS ?n) WHERE {{ ?c <{SUB_CLASS_OF}> <{class}> . \
                 ?s <{RDF_TYPE}> ?c . }} GROUP BY ?c ORDER BY DESC(?n)"
            ),
            Chart::Property { class, dir } => {
                use elinda_endpoint::decomposer::{property_expansion_sparql, ExpansionDirection};
                let d = match dir {
                    Dir::Out => ExpansionDirection::Outgoing,
                    Dir::In => ExpansionDirection::Incoming,
                };
                property_expansion_sparql(class, d)
            }
            Chart::Object { class, prop, dir } => {
                let (anchor, far) = match dir {
                    Dir::Out => ("?s", "?o"),
                    Dir::In => ("?o", "?s"),
                };
                format!(
                    "SELECT ?c (COUNT(DISTINCT {far}) AS ?n) WHERE {{ {anchor} <{RDF_TYPE}> <{class}> . \
                     ?s <{prop}> ?o . {far} <{RDF_TYPE}> ?c . }} GROUP BY ?c ORDER BY DESC(?n)"
                )
            }
        }
    }
}

fn dbo(local: &str) -> String {
    format!("{DBO}{local}")
}

fn subclass(class: &str) -> Chart {
    Chart::Subclass {
        class: class.to_string(),
    }
}

/// The popular paths the `hot-paths` and `live-updates` users replay.
pub fn hot_paths() -> Vec<Vec<Chart>> {
    let thing = subclass(OWL_THING);
    let agent = subclass(&dbo("Agent"));
    let person = subclass(&dbo("Person"));
    vec![
        // Fig. 2: owl:Thing → Agent → Person → Philosopher, then the
        // objects of its `influencedBy` bar.
        vec![
            thing.clone(),
            agent.clone(),
            person.clone(),
            Chart::Property {
                class: dbo("Philosopher"),
                dir: Dir::Out,
            },
            Chart::Object {
                class: dbo("Philosopher"),
                prop: dbo("influencedBy"),
                dir: Dir::Out,
            },
        ],
        // S2: people born in food — Person's properties, then the
        // objects of `birthPlace`, where the Food bar shows.
        vec![
            thing.clone(),
            agent.clone(),
            Chart::Property {
                class: dbo("Person"),
                dir: Dir::Out,
            },
            Chart::Object {
                class: dbo("Person"),
                prop: dbo("birthPlace"),
                dir: Dir::Out,
            },
        ],
        // Politician's properties, both directions (1,482 outgoing).
        vec![
            thing,
            agent,
            person,
            Chart::Property {
                class: dbo("Politician"),
                dir: Dir::Out,
            },
            Chart::Property {
                class: dbo("Politician"),
                dir: Dir::In,
            },
        ],
    ]
}

/// Every distinct chart of the hot paths, in first-seen order.
pub fn hot_set() -> Vec<Chart> {
    let mut out: Vec<Chart> = Vec::new();
    for chart in hot_paths().into_iter().flatten() {
        if !out.contains(&chart) {
            out.push(chart);
        }
    }
    out
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
    /// An index drawn in proportion to `weights` (`None` if all zero).
    pub fn weighted(&mut self, weights: &[i64]) -> Option<usize> {
        let total: i64 = weights.iter().map(|w| (*w).max(0)).sum();
        if total <= 0 {
            return None;
        }
        let mut pick = (self.next_u64() % total as u64) as i64;
        for (i, w) in weights.iter().enumerate() {
            let w = (*w).max(0);
            if pick < w {
                return Some(i);
            }
            pick -= w;
        }
        None
    }
}

/// The per-user seed: users of one run never share a sequence.
pub fn user_seed(seed: u64, user: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(user)
}

/// A `hot-paths` user: rounds of every hot path, each round in a
/// seeded order.
pub struct HotUser {
    rng: Rng,
    queue: Vec<Chart>,
}

impl HotUser {
    pub fn new(seed: u64) -> HotUser {
        HotUser {
            rng: Rng::new(seed),
            queue: Vec::new(),
        }
    }
}

impl Iterator for HotUser {
    type Item = Chart;
    fn next(&mut self) -> Option<Chart> {
        if self.queue.is_empty() {
            let mut paths = hot_paths();
            // Fisher-Yates over the paths, then queue them reversed so
            // `pop` yields them in shuffled order.
            for i in (1..paths.len()).rev() {
                let j = self.rng.below(i + 1);
                paths.swap(i, j);
            }
            self.queue = paths.into_iter().flatten().collect();
            self.queue.reverse();
        }
        self.queue.pop()
    }
}

/// Longest walk before a user starts again from owl:Thing.
const WALK_STEPS: usize = 6;

enum WalkAt {
    Class(String),
    PropertyBar {
        class: String,
        prop: String,
        dir: Dir,
    },
}

/// A `cold-walks` user: seeded walks from owl:Thing. From a class bar
/// the next expansion is a subclass or a property chart (either
/// direction); from a property bar it is the object chart. The next bar
/// — and with it the property an object chart uses — is drawn in
/// proportion to bar height, read off the reference chart (memoised in
/// `charts`, shared with the checker), so the
/// sequence is fixed by the seed alone.
pub struct WalkUser<'a> {
    reference: &'a Reference,
    charts: &'a mut HashMap<Chart, Answer>,
    rng: Rng,
    at: WalkAt,
    steps: usize,
}

impl<'a> WalkUser<'a> {
    pub fn new(
        reference: &'a Reference,
        charts: &'a mut HashMap<Chart, Answer>,
        seed: u64,
    ) -> WalkUser<'a> {
        WalkUser {
            reference,
            charts,
            rng: Rng::new(seed),
            at: WalkAt::Class(OWL_THING.to_string()),
            steps: 0,
        }
    }
}

impl WalkUser<'_> {
    /// The next bar after `chart`, drawn in proportion to bar height.
    fn draw(&mut self, chart: &Chart) -> Option<String> {
        let reference = self.reference;
        let bars = self
            .charts
            .entry(chart.clone())
            .or_insert_with(|| reference.with_extra(&[]).chart(chart));
        let weights: Vec<i64> = bars.rows.iter().map(|r| r.counts[0]).collect();
        let i = self.rng.weighted(&weights)?;
        Some(bars.rows[i].label.clone())
    }
}

impl Iterator for WalkUser<'_> {
    type Item = Chart;
    fn next(&mut self) -> Option<Chart> {
        if self.steps == WALK_STEPS {
            self.at = WalkAt::Class(OWL_THING.to_string());
            self.steps = 0;
        }
        self.steps += 1;
        let (chart, next) = match &self.at {
            WalkAt::Class(class) => {
                let class = class.clone();
                let chart = match self.rng.below(4) {
                    0 | 1 => Chart::Subclass {
                        class: class.clone(),
                    },
                    2 => Chart::Property {
                        class: class.clone(),
                        dir: Dir::Out,
                    },
                    _ => Chart::Property {
                        class: class.clone(),
                        dir: Dir::In,
                    },
                };
                let next = self.draw(&chart).map(|label| match &chart {
                    Chart::Property { dir, .. } => WalkAt::PropertyBar {
                        class,
                        prop: label,
                        dir: *dir,
                    },
                    _ => WalkAt::Class(label),
                });
                (chart, next)
            }
            WalkAt::PropertyBar { class, prop, dir } => {
                let chart = Chart::Object {
                    class: class.clone(),
                    prop: prop.clone(),
                    dir: *dir,
                };
                let next = self.draw(&chart).map(WalkAt::Class);
                (chart, next)
            }
        };
        match next {
            Some(at) => self.at = at,
            // An empty chart ends the walk.
            None => self.steps = WALK_STEPS,
        }
        Some(chart)
    }
}

/// The IRI of the `k`-th entity the update feed inserts in a run.
pub fn inserted_entity(seed: u64, k: usize) -> String {
    format!("http://perfbench.example/seed{seed}/entity{k}")
}

/// The single-triple `INSERT DATA` for the `k`-th write: a new Person.
pub fn insert_update(seed: u64, k: usize) -> String {
    format!(
        "INSERT DATA {{ <{}> <{RDF_TYPE}> <{}> . }}",
        inserted_entity(seed, k),
        dbo("Person")
    )
}

/// The triple the `k`-th write inserts, as the reference overlay
/// takes it.
pub fn inserted_triple(seed: u64, k: usize) -> (String, String, String) {
    (
        inserted_entity(seed, k),
        RDF_TYPE.to_string(),
        dbo("Person"),
    )
}
