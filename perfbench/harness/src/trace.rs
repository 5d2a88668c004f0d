//! The traced run: the workload's seeded request sequence replayed in
//! this process through the public functions the server calls, each call
//! timed from outside. No tracing is added to the program.
//!
//! Two states are opened from the same committed generation with the
//! workload's server configuration and fed the same sequence:
//!
//! * the *total* state is built exactly as `elinda-serve --store-dir`
//!   builds it (`ServerState::with_backend`, WAL attached) and times the
//!   whole calls: `ServerState::execute_json` and `apply_update`;
//! * the *parts* state times the calls those are made of, in the order
//!   they make them: `normalize_query_text` and `parse_query` (both
//!   nested inside `execute_with`), the router's `execute_with`,
//!   `encode_solutions`; `parse_update`, `NoveltyStore::apply_with`
//!   around `Wal::append`, `Wal::sync_to`; and a fold (`compact_now` on
//!   a memory-backed state) followed by `StoreBackend::persist`, which
//!   is what the total state's `compact_now` does in one call.

use crate::client::Client;
use crate::server::metric;
use crate::stats::{mean, median};
use crate::workload::{insert_update, Chart};
use crate::RunFacts;
use crate::{Metrics, Workload};
use elinda_endpoint::json::encode_solutions;
use elinda_endpoint::{
    encode_update, normalize_query_text, EndpointConfig, NoveltyConfig, Parallelism, QueryContext,
    QueryEngine, ResilienceConfig, ServedBy,
};
use elinda_server::{served_by_name, Request, Response, ServerState};
use elinda_sparql::{parse_query, parse_update};
use elinda_store::{PersistentBackend, StoreBackend, Wal, WalConfig, WalSyncPolicy};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock budget of the read replay.
const REPLAY_BUDGET: Duration = Duration::from_secs(15);
/// How far the timed parts may miss `state.execute_json_us`: a share of
/// it, or an absolute floor for very cheap calls.
const PARTS_SLACK: f64 = 0.10;
const PARTS_SLACK_US: f64 = 50.0;
/// `live-updates` replay: a write after this many reads (the measured
/// runs see two to five reads per write)...
const READS_PER_WRITE: usize = 3;
/// ...and a fold after this many writes (a 1 s compactor tick at 2
/// writes per second).
const WRITES_PER_FOLD: usize = 2;

pub struct Replay<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub store: &'a Path,
    pub dir: &'a Path,
    pub charts: &'a [Chart],
    pub queries: &'a [String],
    pub sequences: &'a [Vec<usize>],
    pub hot: &'a [usize],
    pub reads_measured: usize,
    pub probe_writes: usize,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The endpoint and write-path configuration `elinda-serve` derives
/// from the flags the benchmark passes it.
fn configs(workload: Workload) -> (EndpointConfig, ResilienceConfig, NoveltyConfig) {
    let mut endpoint = EndpointConfig::parallel(Parallelism::budgeted(2, 8));
    endpoint.enable_cache = workload.cache_enabled();
    (
        endpoint,
        ResilienceConfig::default(),
        NoveltyConfig::default(),
    )
}

fn open_wal(dir: &Path) -> Result<(Arc<Wal>, elinda_store::WalRecovery), String> {
    let config = WalConfig {
        sync: WalSyncPolicy::Always,
        group_commit_window: Duration::ZERO,
    };
    let (wal, recovery) = Wal::open(dir, config).map_err(|e| format!("open WAL: {e}"))?;
    Ok((Arc::new(wal), recovery))
}

#[derive(Default)]
struct Samples {
    request_parse: Vec<f64>,
    normalize: Vec<f64>,
    parse: Vec<f64>,
    execute_with: Vec<f64>,
    tier: BTreeMap<String, Vec<f64>>,
    encode: Vec<f64>,
    serialize: Vec<f64>,
    execute_json: Vec<f64>,
    in_process: Vec<f64>,
    update_parse: Vec<f64>,
    novelty_apply: Vec<f64>,
    wal_append: Vec<f64>,
    wal_sync: Vec<f64>,
    apply_update: Vec<f64>,
    fold_ms: Vec<f64>,
    persist_ms: Vec<f64>,
}

struct States {
    total: ServerState,
    parts: ServerState,
    parts_backend: PersistentBackend,
    parts_wal: Arc<Wal>,
    open_ms: f64,
    state_ms: f64,
}

fn open_states(r: &Replay) -> Result<States, String> {
    let _ = std::fs::remove_dir_all(r.dir);
    let (total_store, parts_store) = (r.dir.join("total-store"), r.dir.join("parts-store"));
    crate::data::copy_dir(r.store, &total_store)?;
    crate::data::copy_dir(r.store, &parts_store)?;
    let (endpoint, resilience, novelty) = configs(r.workload);

    let (backend, open) = time(|| PersistentBackend::open(&total_store));
    let backend = backend.map_err(|e| format!("open store: {e}"))?;
    let (mut total, state) = time(|| {
        ServerState::with_backend(
            Arc::new(backend),
            endpoint.clone(),
            resilience.clone(),
            novelty.clone(),
        )
    });
    let (wal, recovery) = open_wal(&r.dir.join("total-wal"))?;
    total
        .attach_wal(wal, &recovery)
        .map_err(|e| format!("attach WAL: {e}"))?;

    let parts_backend =
        PersistentBackend::open(&parts_store).map_err(|e| format!("open store: {e}"))?;
    let mut parts =
        ServerState::with_write_config(parts_backend.snapshot(), endpoint, resilience, novelty);
    let (parts_wal, recovery) = open_wal(&r.dir.join("parts-wal"))?;
    parts
        .attach_wal(Arc::clone(&parts_wal), &recovery)
        .map_err(|e| format!("attach WAL: {e}"))?;
    Ok(States {
        total,
        parts,
        parts_backend,
        parts_wal,
        open_ms: open.as_secs_f64() * 1e3,
        state_ms: state.as_secs_f64() * 1e3,
    })
}

/// One read through both states. Returns an error when the two states
/// answer differently.
fn replay_read(
    st: &States,
    chart: &Chart,
    query: &str,
    samples: &mut Samples,
) -> Result<(), String> {
    let request = Client::get_request(query);
    let (parsed, parse_t) = time(|| Request::try_parse(&request));
    match parsed {
        Ok(Some(_)) => {}
        other => return Err(format!("request did not parse: {other:?}")),
    }
    let (normalized, normalize_t) = time(|| normalize_query_text(query));
    let (_, sparql_t) = time(|| parse_query(&normalized));
    let (outcome, exec_t) = time(|| {
        st.parts
            .endpoint()
            .execute_with(query, &QueryContext::default())
    });
    let outcome = outcome.map_err(|e| format!("execute_with: {e}"))?;
    let (body, encode_t) = time(|| {
        let view = st.parts.novelty().map(|n| n.view());
        let store = view.as_deref().unwrap_or(st.parts.store());
        encode_solutions(&outcome.solutions, store)
    });
    let mut tier = served_by_name(outcome.served_by).to_string();
    if outcome.served_by == ServedBy::Direct && matches!(chart, Chart::Property { .. }) {
        tier = "direct-chart".into();
    }
    let (total, total_t) = time(|| st.total.execute_json(query));
    let (total_body, _) = total.map_err(|e| format!("execute_json: {e}"))?;
    let (bytes, serialize_t) = time(|| {
        Response::sparql_json(200, total_body)
            .header("X-Elinda-Served-By", tier.clone())
            .header("X-Request-Id", "perfbench")
            .serialize(false)
    });
    let identical = bytes.ends_with(body.as_bytes());
    samples.request_parse.push(us(parse_t));
    samples.normalize.push(us(normalize_t));
    samples.parse.push(us(sparql_t));
    samples.execute_with.push(us(exec_t));
    samples.tier.entry(tier).or_default().push(us(exec_t));
    samples.encode.push(us(encode_t));
    samples.serialize.push(us(serialize_t));
    samples.execute_json.push(us(total_t));
    samples.in_process.push(us(parse_t + total_t + serialize_t));
    if identical {
        Ok(())
    } else {
        Err(format!("{chart:?}: the two states answered differently"))
    }
}

/// One insert through both states.
fn replay_write(st: &States, text: &str, samples: &mut Samples) -> Result<(), String> {
    let (update, parse_t) = time(|| parse_update(text));
    let update = update.map_err(|e| format!("parse_update: {e}"))?;
    let novelty = st.parts.novelty().ok_or("no write path")?;
    let payload = encode_update(&update);
    let mut append_t = Duration::ZERO;
    let mut pos = None;
    let (applied, apply_t) = time(|| {
        novelty.apply_with(&update, |_| {
            let (p, t) = time(|| st.parts_wal.append(&payload));
            append_t = t;
            p.map(|p| pos = Some(p))
        })
    });
    applied.map_err(|e| format!("apply_with: {e}"))?;
    let pos = pos.ok_or("WAL append returned no position")?;
    let (synced, sync_t) = time(|| st.parts_wal.sync_to(pos));
    synced.map_err(|e| format!("sync_to: {e}"))?;
    let (total, total_t) = time(|| st.total.apply_update(text));
    total.map_err(|e| format!("apply_update: {e}"))?;
    samples.update_parse.push(us(parse_t));
    samples
        .novelty_apply
        .push(us(apply_t.saturating_sub(append_t)));
    samples.wal_append.push(us(append_t));
    samples.wal_sync.push(us(sync_t));
    samples.apply_update.push(us(total_t));
    Ok(())
}

/// Fold staged writes in both states: the parts state folds in memory
/// and then persists through its backend; the total state does both in
/// its own `compact_now`.
fn replay_fold(st: &States, samples: &mut Samples) -> Result<(), String> {
    let (report, fold_t) = time(|| st.parts.compact_now());
    if report.is_none() {
        return Ok(());
    }
    let base = st.parts.novelty().ok_or("no write path")?.base();
    let (persisted, persist_t) = time(|| st.parts_backend.persist(&base));
    persisted.map_err(|e| format!("persist: {e}"))?;
    st.total.compact_now();
    samples.fold_ms.push(fold_t.as_secs_f64() * 1e3);
    samples.persist_ms.push(persist_t.as_secs_f64() * 1e3);
    Ok(())
}

/// Replay the workload and report every per-layer metric, with the
/// replay's own failures.
pub fn run(r: &Replay, facts: &RunFacts) -> Result<(Metrics, Vec<String>), String> {
    let st = open_states(r)?;
    let mut samples = Samples::default();
    let mut failures = Vec::new();
    let mut note = |res: Result<(), String>| {
        if let Err(e) = res {
            if failures.len() < 10 {
                failures.push(e);
            }
        }
    };
    if r.workload != Workload::ColdWalks {
        // The same untimed warm pass as the measured run.
        let mut warm = Samples::default();
        for &c in r.hot {
            note(replay_read(&st, &r.charts[c], &r.queries[c], &mut warm));
        }
    }
    // The users' sequences, interleaved round-robin.
    let longest = r.sequences.iter().map(Vec::len).max().unwrap_or(0);
    let order: Vec<usize> = (0..longest)
        .flat_map(|i| r.sequences.iter().filter_map(move |s| s.get(i).copied()))
        .collect();
    let limit = r.reads_measured.clamp(1, order.len().max(1));
    let started = Instant::now();
    let mut writes = 0usize;
    for (i, &c) in order.iter().take(limit).enumerate() {
        if started.elapsed() > REPLAY_BUDGET {
            break;
        }
        note(replay_read(&st, &r.charts[c], &r.queries[c], &mut samples));
        if r.workload == Workload::LiveUpdates && (i + 1) % READS_PER_WRITE == 0 {
            note(replay_write(
                &st,
                &insert_update(r.seed, writes),
                &mut samples,
            ));
            writes += 1;
            if writes.is_multiple_of(WRITES_PER_FOLD) {
                note(replay_fold(&st, &mut samples));
            }
        }
    }
    if r.workload != Workload::LiveUpdates || writes == 0 {
        // The read-only workloads' write probe, then its fold.
        for k in 0..r.probe_writes {
            note(replay_write(
                &st,
                &insert_update(r.seed, writes + k),
                &mut samples,
            ));
        }
    }
    note(replay_fold(&st, &mut samples));
    let (open_ms, state_ms) = (st.open_ms, st.state_ms);
    drop(st);
    let _ = std::fs::remove_dir_all(r.dir);

    let mut out = Metrics::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.insert(name.to_string(), (value, unit));
    };
    put("http.request_parse_us", mean(&samples.request_parse), "us");
    put("http.response_serialize_us", mean(&samples.serialize), "us");
    let client_p50 = median(&mut facts.read_latencies.clone()) * 1e6;
    put(
        "transport_us",
        client_p50 - median(&mut samples.in_process),
        "us",
    );
    put("cache.normalize_us", mean(&samples.normalize), "us");
    put("sparql.parse_us", mean(&samples.parse), "us");
    for tier in [
        "cache-hit",
        "direct",
        "direct-chart",
        "decomposer",
        "incremental",
        "hvs",
    ] {
        let share = facts.tiers.get(tier).copied().unwrap_or(0) as f64 / facts.reads.max(1) as f64;
        put(&format!("router.share.{tier}"), share, "ratio");
        let t = samples.tier.get(tier).map_or(0.0, |v| mean(v));
        put(&format!("router.{tier}_us"), t, "us");
    }
    let exec = mean(&samples.execute_with);
    let encode = mean(&samples.encode);
    let total = mean(&samples.execute_json);
    put("json.encode_us", encode, "us");
    put("state.execute_json_us", total, "us");
    let residual = total - exec - encode;
    put("state.residual_us", residual, "us");
    if residual.abs() > (PARTS_SLACK * total).max(PARTS_SLACK_US) {
        failures.push(format!(
            "the parts miss state.execute_json_us by {residual:.1} us of {total:.1} us"
        ));
    }
    put("update.parse_us", mean(&samples.update_parse), "us");
    put("novelty.apply_us", mean(&samples.novelty_apply), "us");
    put("wal.append_us", mean(&samples.wal_append), "us");
    put("wal.sync_us", mean(&samples.wal_sync), "us");
    put("state.apply_update_us", mean(&samples.apply_update), "us");
    put("compaction.fold_ms", mean(&samples.fold_ms), "ms");
    put("persist.generation_ms", mean(&samples.persist_ms), "ms");
    put("setup.open_ms", open_ms, "ms");
    put("setup.state_ms", state_ms, "ms");

    // Counters of the measured run, from /metrics and /proc.
    let delta =
        |name: &str| metric(&facts.metrics_after, name) - metric(&facts.metrics_before, name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let writes_acked = facts.writes_acked as f64;
    let cache_hits = delta("elinda_cache_hits_total");
    put(
        "cache.hit_ratio",
        ratio(cache_hits, cache_hits + delta("elinda_cache_misses_total")),
        "ratio",
    );
    put(
        "cache.demotions_per_write",
        ratio(delta("elinda_cache_invalidations_total"), writes_acked),
        "1/write",
    );
    // Every query looks the heavy-query store up first.
    put(
        "hvs.hit_ratio",
        ratio(
            delta("elinda_component_queries_total{component=\"hvs\"}"),
            delta("elinda_queries_total"),
        ),
        "ratio",
    );
    put(
        "wal.fsyncs_per_write",
        ratio(delta("elinda_wal_fsyncs_total"), writes_acked),
        "1/write",
    );
    put(
        "compaction.per_write",
        ratio(delta("elinda_compaction_total"), writes_acked),
        "1/write",
    );
    put(
        "persist.disk_mib_per_write",
        ratio(
            (facts.proc_after.write_bytes - facts.proc_before.write_bytes) as f64
                / (1024.0 * 1024.0),
            writes_acked,
        ),
        "MiB/write",
    );
    put("rss.after_setup_mb", facts.rss_after_setup, "MiB");
    Ok((out, failures))
}
