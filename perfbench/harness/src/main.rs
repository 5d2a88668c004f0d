//! Exploration-serving benchmark for `elinda-serve`.
//!
//! ```text
//! perfbench --workload hot-paths|cold-walks|live-updates --seed N
//!           --seconds S --trace 0|1 --serve-bin PATH --load-bin PATH
//!           --work DIR
//! ```
//!
//! Runs one workload against a freshly started server, checks every
//! answer against the independent chart reference, and prints one JSON
//! line: the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `perfbench/README.md`.

mod client;
mod data;
mod reference;
mod server;
mod stats;
mod trace;
mod workload;

use client::Client;
use reference::{check, corrupt_one_count, parse_answer, Answer, Reference};
use server::{metric, metrics, proc_sample, ProcSample, Server};
use stats::{median, quantile};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{hot_set, insert_update, inserted_entity, inserted_triple, user_seed, Chart};

/// Metric name → (value, unit), in name order.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Server starts per run; `setup_s` is their median.
const SETUP_STARTS: usize = 15;
/// Closed-loop reading users. One: the server then computes one chart at
/// a time, and the second vCPU is left for its reactor, the client and
/// the rest of the machine, so read latency is the server's and not a
/// queue behind another user on a full core.
const READERS: u64 = 1;
/// Open-loop write rate of `live-updates`, per second.
const WRITE_RATE: f64 = 2.0;
/// Inserts of the write probe that ends the read-only workloads.
const PROBE_WRITES: usize = 100;
/// Requests precomputed per reading user (a run that outlasts them
/// starts the sequence over).
const SEQUENCE_LEN: usize = 6000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    HotPaths,
    ColdWalks,
    LiveUpdates,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot-paths" => Some(Workload::HotPaths),
            "cold-walks" => Some(Workload::ColdWalks),
            "live-updates" => Some(Workload::LiveUpdates),
            _ => None,
        }
    }

    /// The server's result-cache setting.
    pub fn cache_enabled(self) -> bool {
        self != Workload::ColdWalks
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    load_bin: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        map.insert(name.to_string(), value);
    }
    let get = |k: &str| {
        map.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = get("workload")?;
    Ok(Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        serve_bin: get("serve-bin")?.into(),
        load_bin: get("load-bin")?.into(),
        work: get("work")?.into(),
    })
}

/// One read as the client saw it.
struct Read {
    chart: usize,
    latency: f64,
    /// Completion time, seconds into the measured window.
    done: f64,
    ok: bool,
    tier: String,
    hash: u64,
    /// The answer reflects between `lo` and `hi` of the run's inserts:
    /// acked before it was sent, sent before it came back.
    lo: usize,
    hi: usize,
}

/// Everything one closed-loop user recorded.
#[derive(Default)]
struct UserLog {
    reads: Vec<Read>,
    bodies: HashMap<(usize, u64), Vec<u8>>,
    errors: Vec<String>,
}

fn body_hash(body: &[u8]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// The distinct charts of a run and their request text.
struct Catalog {
    charts: Vec<Chart>,
    queries: Vec<String>,
    index: HashMap<Chart, usize>,
}

impl Catalog {
    fn new() -> Catalog {
        Catalog {
            charts: Vec::new(),
            queries: Vec::new(),
            index: HashMap::new(),
        }
    }
    fn id(&mut self, chart: Chart) -> usize {
        if let Some(&i) = self.index.get(&chart) {
            return i;
        }
        let i = self.charts.len();
        self.queries.push(chart.sparql());
        self.index.insert(chart.clone(), i);
        self.charts.push(chart);
        i
    }
}

/// The request sequence of each reading user.
fn sequences(
    workload: Workload,
    seed: u64,
    reference: &Reference,
    base: &mut HashMap<Chart, Answer>,
    catalog: &mut Catalog,
) -> Vec<Vec<usize>> {
    (0..READERS)
        .map(|u| {
            let s = user_seed(seed, u);
            match workload {
                Workload::ColdWalks => workload::WalkUser::new(reference, base, s)
                    .take(SEQUENCE_LEN)
                    .map(|c| catalog.id(c))
                    .collect(),
                _ => workload::HotUser::new(s)
                    .take(SEQUENCE_LEN)
                    .map(|c| catalog.id(c))
                    .collect(),
            }
        })
        .collect()
}

/// Shared progress of the update feed, for bounding which inserts a
/// concurrent read may reflect.
#[derive(Default)]
struct Feed {
    sent: AtomicUsize,
    acked: AtomicUsize,
}

fn read_user(
    addr: std::net::SocketAddr,
    queries: Arc<Vec<String>>,
    sequence: Vec<usize>,
    window: (Instant, Instant),
    feed: Arc<Feed>,
) -> UserLog {
    let (opened, deadline) = window;
    let mut log = UserLog::default();
    let mut client = Client::new(addr);
    let mut step = 0usize;
    while Instant::now() < deadline {
        let chart = sequence[step % sequence.len()];
        step += 1;
        let lo = feed.acked.load(Ordering::SeqCst);
        let start = Instant::now();
        let result = client.query(&queries[chart]);
        let latency = start.elapsed().as_secs_f64();
        let done = opened.elapsed().as_secs_f64();
        let hi = feed.sent.load(Ordering::SeqCst);
        match result {
            Ok(r) => {
                let ok = r.status == 200;
                if !ok {
                    log.errors.push(format!(
                        "read {chart}: HTTP {} {}",
                        r.status,
                        String::from_utf8_lossy(&r.body).trim()
                    ));
                }
                let hash = body_hash(&r.body);
                if ok {
                    log.bodies.entry((chart, hash)).or_insert(r.body);
                }
                log.reads.push(Read {
                    chart,
                    latency,
                    done,
                    ok,
                    tier: r.served_by.unwrap_or_default(),
                    hash,
                    lo,
                    hi,
                });
            }
            Err(e) => {
                log.errors.push(format!("read {chart}: {e}"));
                log.reads.push(Read {
                    chart,
                    latency,
                    done,
                    ok: false,
                    tier: String::new(),
                    hash: 0,
                    lo,
                    hi,
                });
            }
        }
    }
    log
}

/// Latencies of acked writes, in seconds, and the failures.
#[derive(Default)]
struct WriteLog {
    /// Insert numbers the server acked, in order.
    acked: Vec<usize>,
    latencies: Vec<f64>,
    /// How late each send left against its intended time, in seconds.
    lateness: Vec<f64>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

/// Post `count` inserts, starting with insert number `first`. With a
/// rate the feed is an open loop and each write is timed from its
/// intended send time; without one, writes go back to back.
fn write_feed(
    addr: std::net::SocketAddr,
    seed: u64,
    first: usize,
    rate: Option<f64>,
    until: Option<Instant>,
    count: usize,
    feed: &Feed,
) -> WriteLog {
    let mut log = WriteLog::default();
    let mut client = Client::new(addr);
    let start = Instant::now();
    for i in 0..count {
        let intended = match rate {
            Some(rate) => start + Duration::from_secs_f64(i as f64 / rate),
            None => Instant::now(),
        };
        if until.is_some_and(|u| intended >= u) {
            break;
        }
        let now = Instant::now();
        if intended > now {
            std::thread::sleep(intended - now);
        }
        log.lateness.push(
            Instant::now()
                .saturating_duration_since(intended)
                .as_secs_f64(),
        );
        let k = first + i;
        log.attempted += 1;
        feed.sent.fetch_add(1, Ordering::SeqCst);
        match client.update(&insert_update(seed, k)) {
            Ok(r) if r.status == 200 => {
                log.latencies.push(intended.elapsed().as_secs_f64());
                log.acked.push(k);
                feed.acked.fetch_add(1, Ordering::SeqCst);
            }
            Ok(r) => {
                log.failed += 1;
                log.errors.push(format!(
                    "write {k}: HTTP {} {}",
                    r.status,
                    String::from_utf8_lossy(&r.body).trim()
                ));
            }
            Err(e) => {
                log.failed += 1;
                log.errors.push(format!("write {k}: {e}"));
            }
        }
    }
    log
}

/// Server flags for a workload; the store and WAL directories are fresh
/// per run.
fn server_args(workload: Workload, store: &Path, wal: &Path) -> Vec<String> {
    let mut args: Vec<String> = [
        "--store-dir",
        &store.display().to_string(),
        "--event-loop",
        "--workers",
        "2",
        "--wal",
        &wal.display().to_string(),
        "--wal-sync",
        "always",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if !workload.cache_enabled() {
        args.extend(["--cache-entries".to_string(), "0".to_string()]);
    }
    args
}

/// Checks every recorded answer against the reference. Returns the
/// failures; `bodies` maps (chart, hash) to the body.
struct Checker<'a> {
    reference: &'a Reference,
    /// Reference charts of the unmodified dataset.
    base: &'a mut HashMap<Chart, Answer>,
    charts: &'a [Chart],
    seed: u64,
    memo: HashMap<(usize, usize), Answer>,
}

impl Checker<'_> {
    fn expected(&mut self, chart: usize, k: usize) -> &Answer {
        let (reference, charts, seed) = (self.reference, self.charts, self.seed);
        if k == 0 {
            return self
                .base
                .entry(charts[chart].clone())
                .or_insert_with(|| reference.with_extra(&[]).chart(&charts[chart]));
        }
        self.memo.entry((chart, k)).or_insert_with(|| {
            let extra: Vec<_> = (0..k).map(|i| inserted_triple(seed, i)).collect();
            reference.with_extra(&extra).chart(&charts[chart])
        })
    }

    fn check_all(
        &mut self,
        reads: &[&Read],
        bodies: &HashMap<(usize, u64), Vec<u8>>,
    ) -> Vec<String> {
        let mut failures = Vec::new();
        // Occurrence ranges per distinct answer.
        let mut ranges: BTreeMap<(usize, u64), Vec<(usize, usize)>> = BTreeMap::new();
        for r in reads.iter().filter(|r| r.ok) {
            ranges
                .entry((r.chart, r.hash))
                .or_default()
                .push((r.lo, r.hi));
        }
        for ((chart, hash), occurrences) in &ranges {
            let Some(body) = bodies.get(&(*chart, *hash)) else {
                failures.push(format!("chart {chart}: body not captured"));
                continue;
            };
            let got = match parse_answer(body) {
                Ok(a) => a,
                Err(e) => {
                    failures.push(format!("{:?}: unparsable answer: {e}", self.charts[*chart]));
                    continue;
                }
            };
            let lo = occurrences.iter().map(|o| o.0).min().unwrap_or(0);
            let hi = occurrences.iter().map(|o| o.1).max().unwrap_or(0);
            let mut matching = HashSet::new();
            let mut last_error = String::new();
            for k in lo..=hi {
                let want = self.expected(*chart, k).clone();
                match check(&self.charts[*chart], &got, &want) {
                    Ok(()) => {
                        matching.insert(k);
                    }
                    Err(e) => last_error = e,
                }
            }
            for &(a, b) in occurrences {
                if !(a..=b).any(|k| matching.contains(&k)) {
                    failures.push(format!(
                        "{:?} (inserts {a}..={b}): {last_error}",
                        self.charts[*chart]
                    ));
                    break;
                }
            }
        }
        // Repeats at one known data state must be byte-identical.
        let mut seen: HashMap<(usize, usize), u64> = HashMap::new();
        for r in reads.iter().filter(|r| r.ok && r.lo == r.hi) {
            if let Some(&h) = seen.get(&(r.chart, r.lo)) {
                if h != r.hash {
                    failures.push(format!(
                        "{:?}: repeated answers differ at insert {}",
                        self.charts[r.chart], r.lo
                    ));
                }
            } else {
                seen.insert((r.chart, r.lo), r.hash);
            }
        }
        failures.sort();
        failures.dedup();
        failures
    }

    /// Corrupt one count of a captured answer: the check must refuse it.
    fn self_test(&mut self, reads: &[&Read], bodies: &HashMap<(usize, u64), Vec<u8>>) -> bool {
        let Some(r) = reads.iter().find(|r| r.ok && r.lo == r.hi) else {
            return false;
        };
        let Some(body) = bodies.get(&(r.chart, r.hash)) else {
            return false;
        };
        let Some(bad) = corrupt_one_count(body) else {
            return false;
        };
        let want = self.expected(r.chart, r.lo).clone();
        match parse_answer(&bad) {
            Ok(got) => check(&self.charts[r.chart], &got, &want).is_err(),
            Err(_) => true,
        }
    }
}

fn person_count(addr: std::net::SocketAddr) -> Result<i64, String> {
    let q = format!(
        "SELECT (COUNT(?s) AS ?n) WHERE {{ ?s <{}> <{}Person> . }}",
        reference::RDF_TYPE,
        workload::DBO
    );
    let r = Client::new(addr).query(&q)?;
    if r.status != 200 {
        return Err(format!("count query answered {}", r.status));
    }
    let text = String::from_utf8_lossy(&r.body);
    let marker = "\"value\":\"";
    let at = text.find(marker).ok_or("count answer has no value")? + marker.len();
    let end = at + text[at..].find('"').ok_or("count answer truncated")?;
    text[at..end].parse().map_err(|e| format!("count: {e}"))
}

fn persons(addr: std::net::SocketAddr) -> Result<HashSet<String>, String> {
    let q = format!(
        "SELECT ?s WHERE {{ ?s <{}> <{}Person> . }}",
        reference::RDF_TYPE,
        workload::DBO
    );
    let r = Client::new(addr).query(&q)?;
    if r.status != 200 {
        return Err(format!("instance query answered {}", r.status));
    }
    let text = String::from_utf8_lossy(&r.body);
    Ok(text
        .split("\"value\":\"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .map(str::to_string)
        .collect())
}

/// Wait until the compactor has folded every staged write and the
/// server has persisted each fold since `before` (at most 10 s).
fn wait_for_fold(addr: std::net::SocketAddr, before: &HashMap<String, f64>) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let delta = |m: &HashMap<String, f64>, name: &str| metric(m, name) - metric(before, name);
    while Instant::now() < deadline {
        match metrics(addr) {
            Ok(m)
                if metric(&m, "elinda_novelty_triples") == 0.0
                    && delta(&m, "elinda_persist_generations_total")
                        + delta(&m, "elinda_persist_failures_total")
                        >= delta(&m, "elinda_compaction_total") =>
            {
                return
            }
            Err(_) => return,
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

pub struct RunFacts {
    /// Client-side read latencies of the measured window, seconds.
    pub read_latencies: Vec<f64>,
    /// Responses per `X-Elinda-Served-By` tier (and `direct-chart`).
    pub tiers: BTreeMap<String, usize>,
    pub reads: usize,
    pub writes_acked: usize,
    pub metrics_before: HashMap<String, f64>,
    pub metrics_after: HashMap<String, f64>,
    pub proc_before: ProcSample,
    pub proc_after: ProcSample,
    pub rss_after_setup: f64,
}

fn run(args: &Args) -> Result<(bool, usize, usize, Metrics), String> {
    let workload = args.workload;
    std::fs::create_dir_all(&args.work).map_err(|e| format!("create work dir: {e}"))?;
    let phase = Instant::now();
    let dataset = data::prepare(&args.work, &args.load_bin)?;
    let reference = Reference::load(&dataset.ntriples)?;
    eprintln!(
        "perfbench: dataset and reference ready in {:.2} s ({} triples)",
        phase.elapsed().as_secs_f64(),
        reference.triples
    );
    let run_dir = args.work.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    let store_dir = run_dir.join("store");
    let wal_dir = run_dir.join("wal");
    data::copy_dir(&dataset.store, &store_dir)?;
    let server_args = server_args(workload, &store_dir, &wal_dir);

    let mut catalog = Catalog::new();
    let hot: Vec<usize> = hot_set().into_iter().map(|c| catalog.id(c)).collect();
    let mut base_charts: HashMap<Chart, Answer> = HashMap::new();
    let seqs = sequences(
        workload,
        args.seed,
        &reference,
        &mut base_charts,
        &mut catalog,
    );
    let queries = Arc::new(catalog.queries.clone());
    eprintln!(
        "perfbench: {} distinct charts in the users' sequences",
        catalog.charts.len()
    );

    // Set-up: start the server several times; the last one serves.
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUP_STARTS {
        let s = Server::start(&args.serve_bin, &server_args)?;
        setups.push(s.setup.as_secs_f64());
        if i + 1 < SETUP_STARTS {
            s.quit()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one start");
    let addr = server.addr;
    let pid = server.pid();
    let rss_after_setup = proc_sample(pid).rss_mib;
    let base_persons = person_count(addr)?;

    let mut failures: Vec<String> = Vec::new();
    let mut warm = UserLog::default();
    if workload != Workload::ColdWalks {
        // Untimed pass: fill the result cache with the hot charts.
        let mut client = Client::new(addr);
        for &chart in &hot {
            let r = client.query(&queries[chart])?;
            if r.status != 200 {
                return Err(format!("warm-up read answered {}", r.status));
            }
            let hash = body_hash(&r.body);
            warm.bodies.entry((chart, hash)).or_insert(r.body);
            warm.reads.push(Read {
                chart,
                latency: 0.0,
                done: 0.0,
                ok: true,
                tier: String::new(),
                hash,
                lo: 0,
                hi: 0,
            });
        }
    }

    // The measured window.
    let feed = Arc::new(Feed::default());
    let metrics_before = metrics(addr)?;
    let proc_before = proc_sample(pid);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let readers: Vec<_> = seqs
        .into_iter()
        .map(|seq| {
            let (queries, feed) = (Arc::clone(&queries), Arc::clone(&feed));
            std::thread::spawn(move || read_user(addr, queries, seq, (start, deadline), feed))
        })
        .collect();
    let writer = (workload == Workload::LiveUpdates).then(|| {
        let feed = Arc::clone(&feed);
        let seed = args.seed;
        std::thread::spawn(move || {
            write_feed(
                addr,
                seed,
                0,
                Some(WRITE_RATE),
                Some(deadline),
                usize::MAX,
                &feed,
            )
        })
    });
    let logs: Vec<UserLog> = readers
        .into_iter()
        .map(|h| h.join().expect("reader thread panicked"))
        .collect();
    let mut writes = writer
        .map(|h| h.join().expect("writer thread panicked"))
        .unwrap_or_default();
    let proc_window = proc_sample(pid);
    let window_writes = writes.attempted;

    // Read-only workloads end with a back-to-back write probe, after the
    // window: it feeds the read-your-writes and restart checks and the
    // write-path counters of the traced run.
    if workload != Workload::LiveUpdates {
        let first = writes.attempted;
        writes = write_feed(addr, args.seed, first, None, None, PROBE_WRITES, &feed);
    }
    wait_for_fold(addr, &metrics_before);
    let metrics_after = metrics(addr)?;
    let proc_after = proc_sample(pid);

    let acked = writes.acked.len();
    let acked_entities: Vec<String> = writes
        .acked
        .iter()
        .map(|&k| inserted_entity(args.seed, k))
        .collect();
    // Read-your-writes: every acked insert is a new Person.
    let persons_now = person_count(addr)?;
    if persons_now != base_persons + acked as i64 {
        failures.push(format!(
            "read-your-writes: {persons_now} Persons, expected {base_persons} + {acked} acked"
        ));
    }

    // Check every answer.
    let phase = Instant::now();
    let mut all_reads: Vec<&Read> = warm.reads.iter().collect();
    let mut bodies = warm.bodies.clone();
    for log in &logs {
        all_reads.extend(log.reads.iter());
        for (k, v) in &log.bodies {
            bodies.entry(*k).or_insert_with(|| v.clone());
        }
    }
    let mut checker = Checker {
        reference: &reference,
        base: &mut base_charts,
        charts: &catalog.charts,
        seed: args.seed,
        memo: HashMap::new(),
    };
    failures.extend(checker.check_all(&all_reads, &bodies));
    if !checker.self_test(&all_reads, &bodies) {
        failures.push("self-test: a corrupted count passed the check".into());
    }

    eprintln!(
        "perfbench: checked {} answers ({} distinct) in {:.2} s",
        all_reads.len(),
        bodies.len(),
        phase.elapsed().as_secs_f64()
    );
    // Stop cleanly, restart (untimed) on the same store and WAL, and look
    // for every acked insert.
    if let Err(e) = server.quit() {
        failures.push(e);
    }
    {
        let restarted = Server::start(&args.serve_bin, &server_args)?;
        let found = persons(restarted.addr)?;
        let count = person_count(restarted.addr)?;
        if let Err(e) = restarted.quit() {
            failures.push(e);
        }
        let lost: Vec<&String> = acked_entities
            .iter()
            .filter(|e| !found.contains(*e))
            .collect();
        if !lost.is_empty() {
            failures.push(format!(
                "restart: {} of {acked} acked inserts missing, first {}",
                lost.len(),
                lost[0]
            ));
        }
        if count != base_persons + acked as i64 {
            failures.push(format!(
                "restart: {count} Persons, expected {base_persons} + {acked} acked"
            ));
        }
    }

    // Tally.
    let window_reads: Vec<&Read> = logs.iter().flat_map(|l| l.reads.iter()).collect();
    let ok_reads: Vec<&Read> = window_reads.iter().copied().filter(|r| r.ok).collect();
    let read_lat: Vec<f64> = ok_reads.iter().map(|r| r.latency).collect();
    let read_failed = window_reads.len() - ok_reads.len();
    let mut tiers: BTreeMap<String, usize> = BTreeMap::new();
    for r in &ok_reads {
        let mut tier = r.tier.clone();
        if tier == "direct" && matches!(catalog.charts[r.chart], Chart::Property { .. }) {
            tier = "direct-chart".into();
        }
        *tiers.entry(tier).or_default() += 1;
    }
    for log in &logs {
        for e in log.errors.iter().take(3) {
            eprintln!("perfbench: error: {e}");
        }
    }
    for e in writes.errors.iter().take(3) {
        eprintln!("perfbench: error: {e}");
    }
    let attempted = window_reads.len() + writes.attempted;
    let failed = read_failed + writes.failed;
    let mut write_lat = writes.latencies.clone();
    eprintln!(
        "perfbench: {:?} seed {}: reads attempted {} failed {}; writes attempted {} failed {} \
         ({} in the window); tiers {:?}; write latency p50 {:.2} ms p90 {:.2} ms; \
         write generator lateness p50 {:.3} ms max {:.3} ms",
        workload,
        args.seed,
        window_reads.len(),
        read_failed,
        writes.attempted,
        writes.failed,
        window_writes,
        tiers,
        median(&mut write_lat) * 1e3,
        quantile(&mut write_lat, 0.9) * 1e3,
        median(&mut writes.lateness.clone()) * 1e3,
        writes.lateness.iter().cloned().fold(0.0, f64::max) * 1e3,
    );
    for f in failures.iter().take(10) {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = failures.is_empty();

    let mut out = Metrics::new();
    if !args.trace {
        let window_requests = ok_reads.len() + window_writes;
        // Per-second slices of the window; each figure is the median
        // over them.
        let slices = (args.seconds.ceil() as usize).max(1);
        let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); slices];
        for r in &ok_reads {
            per_slice[(r.done as usize).min(slices - 1)].push(r.latency);
        }
        let read_stat = |f: &dyn Fn(&mut Vec<f64>) -> f64| -> f64 {
            let mut v: Vec<f64> = per_slice
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| f(&mut s.clone()))
                .collect();
            median(&mut v)
        };
        out.insert(
            "charts_per_s".into(),
            (read_stat(&|s| s.len() as f64), "1/s"),
        );
        out.insert(
            "chart_p50_ms".into(),
            (read_stat(&|s| median(s)) * 1e3, "ms"),
        );
        out.insert(
            "chart_p95_ms".into(),
            (read_stat(&|s| quantile(s, 0.95)) * 1e3, "ms"),
        );
        out.insert(
            "server_cpu_ms_per_req".into(),
            (
                (proc_window.cpu_s - proc_before.cpu_s) * 1e3 / window_requests.max(1) as f64,
                "ms",
            ),
        );
        out.insert("setup_s".into(), (median(&mut setups), "s"));
        out.insert("peak_rss_mb".into(), (proc_window.hwm_mib, "MiB"));
    } else {
        let facts = RunFacts {
            read_latencies: read_lat,
            tiers,
            reads: ok_reads.len(),
            writes_acked: acked,
            metrics_before,
            metrics_after,
            proc_before,
            proc_after,
            rss_after_setup,
        };
        let mut walk_reference = Catalog::new();
        let seqs = sequences(
            workload,
            args.seed,
            &reference,
            &mut base_charts,
            &mut walk_reference,
        );
        let hot_ids: Vec<usize> = hot_set()
            .into_iter()
            .map(|c| walk_reference.id(c))
            .collect();
        let replay = trace::Replay {
            workload,
            seed: args.seed,
            store: &dataset.store,
            dir: &run_dir.join("trace"),
            charts: &walk_reference.charts,
            queries: &walk_reference.queries,
            sequences: &seqs,
            hot: &hot_ids,
            reads_measured: facts.reads,
            probe_writes: PROBE_WRITES,
        };
        let (layer, replay_failures) = trace::run(&replay, &facts)?;
        for f in &replay_failures {
            eprintln!("perfbench: traced replay: {f}");
        }
        let correct = correct && replay_failures.is_empty();
        let _ = std::fs::remove_dir_all(&run_dir);
        return Ok((correct, attempted, failed, layer));
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    Ok((correct, attempted, failed, out))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            let body: Vec<String> = metrics
                .iter()
                .map(|(name, (value, unit))| {
                    let value = if value.is_finite() { *value } else { 0.0 };
                    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
                })
                .collect();
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
                 \"metrics\": {{{}}}}}",
                body.join(", ")
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
