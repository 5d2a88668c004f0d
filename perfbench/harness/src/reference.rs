//! The independent chart reference.
//!
//! Every subclass, property and object chart is computed straight from
//! the N-Triples file with plain hash maps — no elinda parser, store,
//! query engine or JSON codec is involved — and every response the
//! server sends is checked against it: its variables, its multiset of
//! rows, and its order.

use crate::workload::{Chart, Dir};
use std::collections::{HashMap, HashSet};
use std::io::BufRead;
use std::path::Path;

pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
pub const SUB_CLASS_OF: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";

type Id = u32;

/// The dataset as plain maps over interned N-Triples tokens.
pub struct Reference {
    /// Token text; IRIs are kept without their angle brackets.
    terms: Vec<String>,
    ids: HashMap<String, Id>,
    /// subject → (predicate, object), in file order.
    out: HashMap<Id, Vec<(Id, Id)>>,
    /// object → (predicate, subject).
    inc: HashMap<Id, Vec<(Id, Id)>>,
    /// entity → its classes.
    types: HashMap<Id, Vec<Id>>,
    /// class → its instances.
    instances: HashMap<Id, Vec<Id>>,
    /// class → its direct subclasses.
    subclasses: HashMap<Id, Vec<Id>>,
    rdf_type: Id,
    pub triples: usize,
}

/// One chart row as the checker compares it: the label IRI and the
/// integer cells.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Row {
    pub label: String,
    pub counts: Vec<i64>,
}

/// A chart answer: column names and rows in answer order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub vars: Vec<String>,
    pub rows: Vec<Row>,
}

/// Split one N-Triples line into subject, predicate and object tokens.
fn split_line(line: &str) -> Option<(&str, &str, &str)> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let line = line.strip_suffix('.')?.trim_end();
    let (s, rest) = line.split_once(' ')?;
    let (p, o) = rest.trim_start().split_once(' ')?;
    Some((s, p, o.trim()))
}

fn strip_iri(token: &str) -> &str {
    token
        .strip_prefix('<')
        .and_then(|t| t.strip_suffix('>'))
        .unwrap_or(token)
}

impl Reference {
    pub fn load(path: &Path) -> Result<Reference, String> {
        let file =
            std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        let mut r = Reference {
            terms: Vec::new(),
            ids: HashMap::new(),
            out: HashMap::new(),
            inc: HashMap::new(),
            types: HashMap::new(),
            instances: HashMap::new(),
            subclasses: HashMap::new(),
            rdf_type: 0,
            triples: 0,
        };
        r.rdf_type = r.intern(RDF_TYPE);
        let sub_class_of = r.intern(SUB_CLASS_OF);
        let mut seen: HashSet<(Id, Id, Id)> = HashSet::new();
        for line in std::io::BufReader::new(file).lines() {
            let line = line.map_err(|e| format!("read {}: {e}", path.display()))?;
            let Some((s, p, o)) = split_line(&line) else {
                continue;
            };
            let (s, p, o) = (
                r.intern(strip_iri(s)),
                r.intern(strip_iri(p)),
                r.intern(strip_iri(o)),
            );
            if !seen.insert((s, p, o)) {
                continue;
            }
            r.add(s, p, o, sub_class_of);
        }
        r.triples = seen.len();
        Ok(r)
    }

    fn intern(&mut self, token: &str) -> Id {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = self.terms.len() as Id;
        self.terms.push(token.to_string());
        self.ids.insert(token.to_string(), id);
        id
    }

    fn add(&mut self, s: Id, p: Id, o: Id, sub_class_of: Id) {
        self.out.entry(s).or_default().push((p, o));
        self.inc.entry(o).or_default().push((p, s));
        if p == self.rdf_type {
            self.types.entry(s).or_default().push(o);
            self.instances.entry(o).or_default().push(s);
        }
        if p == sub_class_of {
            self.subclasses.entry(o).or_default().push(s);
        }
    }

    pub fn id(&self, iri: &str) -> Option<Id> {
        self.ids.get(iri).copied()
    }

    pub fn name(&self, id: Id) -> &str {
        &self.terms[id as usize]
    }

    /// The dataset plus `extra` triples (set semantics: a triple already
    /// present adds nothing). Cheap for the handful of inserts a run
    /// makes: the extra triples sit in an overlay.
    pub fn with_extra<'a>(&'a self, extra: &[(String, String, String)]) -> View<'a> {
        let mut overlay = Overlay::default();
        let mut local: HashMap<String, Id> = HashMap::new();
        let mut next = self.terms.len() as Id;
        let mut resolve = |token: &str, local: &mut HashMap<String, Id>| -> Id {
            if let Some(id) = self.id(token) {
                return id;
            }
            *local.entry(token.to_string()).or_insert_with(|| {
                next += 1;
                next - 1
            })
        };
        let mut seen = HashSet::new();
        for (s, p, o) in extra {
            let (s, p, o) = (
                resolve(s, &mut local),
                resolve(p, &mut local),
                resolve(o, &mut local),
            );
            let present = self
                .out
                .get(&s)
                .is_some_and(|edges| edges.contains(&(p, o)));
            if present || !seen.insert((s, p, o)) {
                continue;
            }
            overlay.out.entry(s).or_default().push((p, o));
            overlay.inc.entry(o).or_default().push((p, s));
            if p == self.rdf_type {
                overlay.types.entry(s).or_default().push(o);
                overlay.instances.entry(o).or_default().push(s);
            }
        }
        let mut names: HashMap<Id, String> = HashMap::new();
        for (token, id) in local {
            names.insert(id, token);
        }
        View {
            base: self,
            overlay,
            names,
        }
    }
}

#[derive(Default)]
struct Overlay {
    out: HashMap<Id, Vec<(Id, Id)>>,
    inc: HashMap<Id, Vec<(Id, Id)>>,
    types: HashMap<Id, Vec<Id>>,
    instances: HashMap<Id, Vec<Id>>,
}

/// The reference dataset with an overlay of inserted triples.
pub struct View<'a> {
    base: &'a Reference,
    overlay: Overlay,
    names: HashMap<Id, String>,
}

fn both<'b, K: std::hash::Hash + Eq, V>(
    a: &'b HashMap<K, Vec<V>>,
    b: &'b HashMap<K, Vec<V>>,
    key: &K,
) -> impl Iterator<Item = &'b V> {
    a.get(key)
        .into_iter()
        .flatten()
        .chain(b.get(key).into_iter().flatten())
}

impl View<'_> {
    fn name(&self, id: Id) -> &str {
        match self.names.get(&id) {
            Some(name) => name,
            None => self.base.name(id),
        }
    }

    fn instances(&self, class: Id) -> impl Iterator<Item = &Id> {
        both(&self.base.instances, &self.overlay.instances, &class)
    }

    fn types(&self, entity: Id) -> impl Iterator<Item = &Id> {
        both(&self.base.types, &self.overlay.types, &entity)
    }

    /// The chart the server must answer for `chart`, in the order the
    /// query asks for. Ties in a `DESC(?n)` order are left in label
    /// order; the checker accepts any order among ties.
    pub fn chart(&self, chart: &Chart) -> Answer {
        let class = self.base.id(chart.class()).unwrap_or(Id::MAX);
        match chart {
            Chart::Subclass { .. } => {
                let mut rows = Vec::new();
                if let Some(subs) = self.base.subclasses.get(&class) {
                    for &sub in subs {
                        let n = self.instances(sub).collect::<HashSet<_>>().len();
                        if n > 0 {
                            rows.push(Row {
                                label: self.name(sub).to_string(),
                                counts: vec![n as i64],
                            });
                        }
                    }
                }
                sort_desc(&mut rows);
                Answer {
                    vars: vec!["c".into(), "n".into()],
                    rows,
                }
            }
            Chart::Property { dir, .. } => {
                let mut agg: HashMap<Id, (i64, i64)> = HashMap::new();
                let members: HashSet<Id> = self.instances(class).copied().collect();
                let mut per: HashMap<Id, i64> = HashMap::new();
                for &m in &members {
                    per.clear();
                    let edges: Box<dyn Iterator<Item = &(Id, Id)>> = match dir {
                        Dir::Out => Box::new(both(&self.base.out, &self.overlay.out, &m)),
                        Dir::In => Box::new(both(&self.base.inc, &self.overlay.inc, &m)),
                    };
                    for &(p, _) in edges {
                        *per.entry(p).or_default() += 1;
                    }
                    for (&p, &n) in &per {
                        let e = agg.entry(p).or_default();
                        e.0 += 1;
                        e.1 += n;
                    }
                }
                let mut rows: Vec<Row> = agg
                    .into_iter()
                    .map(|(p, (count, sp))| Row {
                        label: self.name(p).to_string(),
                        counts: vec![count, sp],
                    })
                    .collect();
                // The server's canonical chart order: by the IRI's
                // N-Triples form, angle brackets included.
                rows.sort_by_key(|r| canonical_key(&r.label));
                Answer {
                    vars: vec!["p".into(), "count".into(), "sp".into()],
                    rows,
                }
            }
            Chart::Object { prop, dir, .. } => {
                let prop = self.base.id(prop).unwrap_or(Id::MAX);
                let mut reached: HashSet<Id> = HashSet::new();
                let members: HashSet<Id> = self.instances(class).copied().collect();
                for &m in &members {
                    let edges = match dir {
                        Dir::Out => both(&self.base.out, &self.overlay.out, &m),
                        Dir::In => both(&self.base.inc, &self.overlay.inc, &m),
                    };
                    for &(p, other) in edges {
                        if p == prop {
                            reached.insert(other);
                        }
                    }
                }
                let mut agg: HashMap<Id, i64> = HashMap::new();
                for &r in &reached {
                    for &c in self.types(r).collect::<HashSet<_>>() {
                        *agg.entry(c).or_default() += 1;
                    }
                }
                let mut rows: Vec<Row> = agg
                    .into_iter()
                    .map(|(c, n)| Row {
                        label: self.name(c).to_string(),
                        counts: vec![n],
                    })
                    .collect();
                sort_desc(&mut rows);
                Answer {
                    vars: vec!["c".into(), "n".into()],
                    rows,
                }
            }
        }
    }
}

fn canonical_key(label: &str) -> String {
    format!("<{label}>")
}

fn sort_desc(rows: &mut [Row]) {
    rows.sort_by(|a, b| b.counts[0].cmp(&a.counts[0]).then(a.label.cmp(&b.label)));
}

/// Compare a server answer with the reference: same variables, same
/// multiset of rows, and the order the query asks for (`DESC(?n)` for
/// subclass and object charts, the canonical IRI order for property
/// charts). Returns the first difference found.
pub fn check(chart: &Chart, got: &Answer, want: &Answer) -> Result<(), String> {
    if got.vars != want.vars {
        return Err(format!(
            "variables {:?}, expected {:?}",
            got.vars, want.vars
        ));
    }
    let mut a = got.rows.clone();
    let mut b = want.rows.clone();
    a.sort();
    b.sort();
    if a != b {
        let missing = b.iter().find(|r| !a.contains(r));
        let extra = a.iter().find(|r| !b.contains(r));
        return Err(format!(
            "{} rows, expected {}; first missing {missing:?}, first unexpected {extra:?}",
            a.len(),
            b.len()
        ));
    }
    match chart {
        Chart::Property { .. } => {
            if got.rows != want.rows {
                return Err("rows out of the canonical property order".into());
            }
        }
        _ => {
            if let Some(w) = got
                .rows
                .windows(2)
                .find(|w| w[0].counts[0] < w[1].counts[0])
            {
                return Err(format!(
                    "rows not in DESC(?n) order: {} ({}) before {} ({})",
                    w[0].label, w[0].counts[0], w[1].label, w[1].counts[0]
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// A small JSON reader for SPARQL-JSON result documents.
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Json {
    Null,
    Bool,
    Num,
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Reader<'a> {
    b: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }
    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.b[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool)
            }
            Some(b'f') if self.b[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool)
            }
            Some(b'n') if self.b[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(Json::Null)
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                while self.i < self.b.len()
                    && matches!(
                        self.b[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                Ok(Json::Num)
            }
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }
    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        while let Some(&c) = self.b.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.b.get(self.i).ok_or("truncated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self.b.get(self.i..self.i + 4).ok_or("truncated \\u")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.i += 4;
                            let ch = char::from_u32(code).unwrap_or('\u{fffd}');
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }
}

/// Parse a SPARQL-JSON chart response into an [`Answer`]. Every cell
/// must be bound; the first column must be an IRI and the others
/// integers.
pub fn parse_answer(body: &[u8]) -> Result<Answer, String> {
    let mut r = Reader { b: body, i: 0 };
    let doc = r.value()?;
    r.ws();
    if r.i != body.len() {
        return Err(format!("trailing bytes after the document at byte {}", r.i));
    }
    let vars: Vec<String> = match doc.get("head").and_then(|h| h.get("vars")) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| v.str().map(str::to_string).ok_or("non-string variable"))
            .collect::<Result<_, _>>()?,
        _ => return Err("missing head.vars".into()),
    };
    let Some(Json::Arr(bindings)) = doc.get("results").and_then(|r| r.get("bindings")) else {
        return Err("missing results.bindings".into());
    };
    let mut rows = Vec::with_capacity(bindings.len());
    for b in bindings {
        let mut label = None;
        let mut counts = Vec::new();
        for (i, var) in vars.iter().enumerate() {
            let cell = b.get(var).ok_or_else(|| format!("unbound ?{var}"))?;
            let value = cell
                .get("value")
                .and_then(Json::str)
                .ok_or_else(|| format!("?{var} has no value"))?;
            if i == 0 {
                if cell.get("type").and_then(Json::str) != Some("uri") {
                    return Err(format!("?{var} is not an IRI"));
                }
                label = Some(value.to_string());
            } else {
                counts.push(
                    value
                        .parse::<i64>()
                        .map_err(|_| format!("?{var} = {value:?} is not an integer"))?,
                );
            }
        }
        rows.push(Row {
            label: label.ok_or("row without a label")?,
            counts,
        });
    }
    Ok(Answer { vars, rows })
}

/// Change one count in a captured response body: the checker's
/// self-test. Returns `None` when the body holds no integer literal.
pub fn corrupt_one_count(body: &[u8]) -> Option<Vec<u8>> {
    let text = std::str::from_utf8(body).ok()?;
    let marker = "\"type\":\"literal\",\"value\":\"";
    let at = text.find(marker)? + marker.len();
    let end = at + text[at..].find('"')?;
    let n: i64 = text[at..end].parse().ok()?;
    let mut out = String::with_capacity(text.len() + 2);
    out.push_str(&text[..at]);
    out.push_str(&(n + 1).to_string());
    out.push_str(&text[end..]);
    Some(out.into_bytes())
}
