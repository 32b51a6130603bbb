//! `serve_warm`: the release `sops-serve` binary over a fresh copy of a
//! ~10⁴-entry cell cache, driven by `nproc` closed-loop clients that
//! each send one request per connection and wait for the reply — the
//! traffic of an evolutionary search loop that revisits cells it has
//! seen and keeps adding new ones.

use crate::oracle::strip_provenance;
use crate::recompose::{bit_identical, recompose};
use crate::sweep::{fill_pipeline_layers, SETUP_REPS};
use crate::trace::Tracer;
use crate::util::{
    derive_seeds, mean, median, ms_since, nproc, progress, quantile, vm_hwm_mb, Checks, Metric,
    Outcome,
};
use crate::Args;
use sops_core::broker::SweepBroker;
use sops_core::cache::{CellCache, SCHEMA};
use sops_core::checkpoint::cell_key;
use sops_core::report::sweep_json;
use sops_core::scenario::{CellProvenance, SweepRunner};
use sops_core::wire;
use sops_core::{MiSeries, PipelineResult};
use sops_math::SplitMix64;
use sops_serve::{parse_plan, route};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// Filler entries in the fixture cache.
pub const FILLER_ENTRIES: usize = 10_000;
/// Plans of the hot set.
pub const HOT_PLANS: usize = 16;
/// Every `SHARED_EVERY`-th position of both clients' sequences carries
/// the same new plan.
pub const SHARED_EVERY: u64 = 50;
/// Ensemble runs and horizon of every served plan: a cell costs tens
/// of milliseconds on one thread.
pub const PLAN_SAMPLES: usize = 48;
pub const PLAN_T_MAX: usize = 24;
/// Requests re-checked against an uncached in-process sweep, besides
/// every hot plan.
pub const MISS_SAMPLE: usize = 6;
/// Headroom of the cache's byte cap over the fixture's size: less than
/// one entry, so nearly every store evicts a filler entry.
pub const CAP_HEADROOM: u64 = 256;

const FIXTURE_SEED: u64 = 0x5105_f1c7_0e5e_ed00;
/// Modification time of the oldest filler entry (2020-09-13), in seconds
/// since the epoch; entry `i` is `i` seconds younger.
const FIXTURE_EPOCH_S: u64 = 1_600_000_000;
const SCENARIOS: [&str; 3] = ["cell_sorting", "ring_formation", "mixing_null"];
/// New plans use seeds in `NEW_SEEDS..2·NEW_SEEDS`; the hot set's are
/// below 2³¹.
const NEW_SEEDS: u64 = 1 << 31;
const STREAM_HOT: u64 = 11;
const STREAM_CLIENT: u64 = 12;
const STREAM_SHARED: u64 = 13;

/// Builds the fixture once per checkout: [`FILLER_ENTRIES`] entries of
/// the size of a served cell, each written by `CellCache::store` (so in
/// the program's current format) into an empty staging cache and moved
/// into place, with distinct old modification times so the LRU order is
/// fixed. Returns the fixture directory.
pub fn ensure_fixture(work: &Path) -> Result<PathBuf, String> {
    let dir = work.join("fixture");
    let stamp = work.join("fixture.stamp");
    let want = format!("{SCHEMA} {FILLER_ENTRIES} {FIXTURE_SEED}\n");
    if std::fs::read_to_string(&stamp).ok().as_deref() == Some(want.as_str()) {
        return Ok(dir);
    }
    let t = Instant::now();
    let staging = work.join("fixture-staging");
    for d in [&dir, &staging] {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).map_err(|e| format!("create {}: {e}", d.display()))?;
    }
    let cache = CellCache::open(&staging).map_err(|e| e.to_string())?;
    let mut rng = SplitMix64::new(FIXTURE_SEED);
    let epoch = SystemTime::UNIX_EPOCH + Duration::from_secs(FIXTURE_EPOCH_S);
    for i in 0..FILLER_ENTRIES {
        let key = rng.next_u64();
        let result = PipelineResult {
            mi: MiSeries {
                times: (0..=40).step_by(8).collect(),
                values: (0..6).map(|_| rng.next_range(-5.0, 60.0)).collect(),
            },
            mean_icp_cost: (0..6).map(|_| rng.next_range(0.0, 2.0)).collect(),
            equilibrated_fraction: 0.0,
        };
        cache.store(key, &result);
        let from = cache.entry_path(key);
        let to = dir.join(from.file_name().expect("entry file name"));
        std::fs::rename(&from, &to).map_err(|e| format!("move {}: {e}", from.display()))?;
        set_mtime(&to, epoch + Duration::from_secs(i as u64))?;
    }
    if cache.stats().stores != FILLER_ENTRIES as u64 {
        return Err(format!(
            "fixture: only {} of {FILLER_ENTRIES} stores succeeded",
            cache.stats().stores
        ));
    }
    let _ = std::fs::remove_dir_all(&staging);
    std::fs::write(&stamp, want).map_err(|e| format!("write {}: {e}", stamp.display()))?;
    eprintln!(
        "built the {FILLER_ENTRIES}-entry cache fixture in {:.1} s",
        t.elapsed().as_secs_f64()
    );
    Ok(dir)
}

fn set_mtime(path: &Path, t: SystemTime) -> Result<(), String> {
    std::fs::File::options()
        .append(true)
        .open(path)
        .and_then(|f| f.set_modified(t))
        .map_err(|e| format!("set mtime of {}: {e}", path.display()))
}

/// A fresh copy of the fixture at `dest`: a new directory of hard links
/// to the fixture's entries, so the copy keeps their modification times
/// (the LRU order). Linking is safe because the cache never writes an
/// existing entry in place: a store renames a new file over the name, an
/// eviction unlinks it, and the only in-place change — the mtime touch
/// of a hit — cannot reach a filler entry, whose random key no plan
/// produces. [`check_fixture`] confirms that after every run. Returns the
/// copy's total entry bytes.
fn fresh_copy(fixture: &Path, dest: &Path) -> Result<u64, String> {
    let _ = std::fs::remove_dir_all(dest);
    std::fs::create_dir_all(dest).map_err(|e| format!("create {}: {e}", dest.display()))?;
    let entries =
        std::fs::read_dir(fixture).map_err(|e| format!("read {}: {e}", fixture.display()))?;
    let mut bytes = 0;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        bytes += entry.metadata().map_err(|e| e.to_string())?.len();
        let to = dest.join(entry.file_name());
        std::fs::hard_link(entry.path(), &to).map_err(|e| format!("link {}: {e}", to.display()))?;
    }
    Ok(bytes)
}

/// The fixture still holds its [`FILLER_ENTRIES`] entries with their
/// original modification times. On failure the stamp is removed, so the
/// next run rebuilds it.
fn check_fixture(work: &Path, checks: &mut Checks) {
    let dir = work.join("fixture");
    let newest =
        SystemTime::UNIX_EPOCH + Duration::from_secs(FIXTURE_EPOCH_S + FILLER_ENTRIES as u64);
    let mut count = 0;
    let mut intact = true;
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for e in entries.flatten() {
            count += 1;
            intact &= e
                .metadata()
                .and_then(|m| m.modified())
                .is_ok_and(|t| t < newest);
        }
    }
    let ok = intact && count == FILLER_ENTRIES;
    if !ok {
        let _ = std::fs::remove_file(work.join("fixture.stamp"));
    }
    checks.check(ok, || {
        format!("the cache fixture changed during the run ({count} entries)")
    });
}

fn count_entries(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|d| {
            d.flatten()
                .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("json"))
                .count()
        })
        .unwrap_or(0)
}

/// A running `sops-serve` process; dropping it kills the process and
/// waits for it.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl ServerProc {
    fn start(bin: &Path, cache: &Path, cap: u64, threads: usize) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threads",
                &threads.to_string(),
                "--cache",
            ])
            .arg(cache)
            .args(["--cache-bytes", &cap.to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start {}: {e}", bin.display()))?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let addr = read
            .ok()
            .and_then(|_| line.split("http://").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        // Owned by the guard from here on, so a failure still stops it.
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        server.addr = addr.ok_or_else(|| {
            format!(
                "sops-serve did not report its address (got '{}')",
                line.trim()
            )
        })?;
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP/1.1 exchange on a fresh connection: `(status, body)`.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = s.set_nodelay(true);
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response has no header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in '{head}'"))?;
    Ok((status, body.to_string()))
}

/// A `/sweep` body: one scenario at [`PLAN_SAMPLES`] × [`PLAN_T_MAX`]
/// × the measures × one seed, computed on one thread.
fn plan_body(scenario: &str, measures: &[&str], seed: u64) -> String {
    let measures: Vec<String> = measures.iter().map(|m| format!("\"{m}\"")).collect();
    format!(
        "{{\"scenarios\":[\"{scenario}\"],\"measures\":[{}],\"seeds\":[{seed}],\"fast\":true,\"samples\":{PLAN_SAMPLES},\"t_max\":{PLAN_T_MAX},\"threads\":1}}",
        measures.join(",")
    )
}

/// The `index`-th plan of a fixed rotation, at `seed`: scenario
/// `index mod 3`, two measure families when `⌊index/3⌋` is odd (one
/// otherwise), the families cycling with `⌊index/6⌋`, so that every run
/// asks for the same mix of work.
fn plan_at(index: usize, seed: u64) -> String {
    let families = sops_info::MeasureConfig::FAMILIES;
    let n = families.len();
    let a = (index / 6) % n;
    let measures: Vec<&str> = if (index / 3) % 2 == 1 {
        vec![
            families[a],
            families[(a + 1 + (index / (6 * n)) % (n - 1)) % n],
        ]
    } else {
        vec![families[a]]
    };
    plan_body(SCENARIOS[index % SCENARIOS.len()], &measures, seed)
}

/// The hot set: the first [`HOT_PLANS`] plans of the rotation, at seeds
/// in `1..2³¹`.
fn hot_set(workload_seed: u64) -> Vec<String> {
    let seeds = derive_seeds(workload_seed, STREAM_HOT, HOT_PLANS, &[]);
    (0..HOT_PLANS).map(|i| plan_at(i, seeds[i])).collect()
}

/// Request `j` of `client`'s sequence, with whether it repeats a hot
/// plan. The shape is the same in every run: position `j ≡ 49 (mod 50)`
/// is a new plan that every client gets at the same position, four more
/// positions in fifty are the client's own new plans (`j + 5·client ≡ 9
/// (mod 10)`), and the rest repeat a hot plan. New plans follow the
/// [`plan_at`] rotation; the workload seed picks which hot plan and the
/// new seeds (all `≥ 2³¹`, apart from the hot set's).
fn request(workload_seed: u64, client: u64, j: u64, hot: &[String]) -> (String, bool) {
    let derive = sops_math::rng::derive_seed;
    if j % SHARED_EVERY == SHARED_EVERY - 1 {
        let k = j / SHARED_EVERY;
        let mut rng = SplitMix64::new(derive(derive(workload_seed, STREAM_SHARED), j));
        let seed = NEW_SEEDS + rng.next_below(NEW_SEEDS);
        return (plan_at(k as usize, seed), false);
    }
    let mut rng = SplitMix64::new(derive(
        derive(workload_seed, STREAM_CLIENT + 16 * client),
        j,
    ));
    let shifted = j + 5 * client;
    if shifted % 10 == 9 && shifted % SHARED_EVERY != SHARED_EVERY - 1 {
        let k = j / 10;
        let seed = NEW_SEEDS + rng.next_below(NEW_SEEDS);
        (plan_at((k + client) as usize, seed), false)
    } else {
        (hot[rng.next_below(hot.len() as u64) as usize].clone(), true)
    }
}

/// One answered request.
struct Record {
    body_sent: String,
    hot: bool,
    status: u16,
    latency_ms: f64,
    response: String,
}

/// Cell counts of a response by provenance: `(cells, cached, computed)`.
fn provenance_counts(response: &str) -> (usize, usize, usize) {
    let cached = response.matches("\"provenance\": \"cached\"").count();
    let computed = response.matches("\"provenance\": \"computed\"").count();
    let cells = response.matches("\"provenance\": ").count();
    (cells, cached, computed)
}

/// Set-up of one server: fresh fixture copy (not timed), then start the
/// server, wait for `/healthz`, and request the hot set once (timed).
/// Returns the server and the set-up seconds.
fn set_up_server(
    args: &Args,
    fixture: &Path,
    hot: &[String],
    k: usize,
    checks: &mut Checks,
) -> Result<(ServerProc, PathBuf, f64), String> {
    let dir = args.work.join(format!("serve-cache-{k}"));
    let bytes = fresh_copy(fixture, &dir)?;
    let t = Instant::now();
    let server = ServerProc::start(&args.serve_bin, &dir, bytes + CAP_HEADROOM, nproc())?;
    let mut healthy = false;
    for _ in 0..200 {
        if matches!(http(server.addr, "GET", "/healthz", ""), Ok((200, _))) {
            healthy = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    if !healthy {
        return Err("sops-serve never answered /healthz".into());
    }
    for body in hot {
        let (status, resp) = http(server.addr, "POST", "/sweep", body)?;
        checks.check(status == 200, || {
            format!("set-up request answered {status}: {resp}")
        });
    }
    Ok((server, dir, t.elapsed().as_secs_f64()))
}

/// The closed loop: `nproc` clients, each sending its own sequence one
/// request at a time until `seconds` have passed. Returns the records
/// and the seconds from the first send to the last reply.
fn closed_loop(
    addr: SocketAddr,
    workload_seed: u64,
    hot: &[String],
    seconds: f64,
) -> Result<(Vec<Record>, f64), String> {
    let start = Instant::now();
    let per_client: Vec<Result<Vec<Record>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nproc() as u64)
            .map(|client| {
                s.spawn(move || {
                    let mut records = Vec::new();
                    let mut j = 0;
                    while start.elapsed().as_secs_f64() < seconds {
                        let (body, is_hot) = request(workload_seed, client, j, hot);
                        let t = Instant::now();
                        let (status, response) = http(addr, "POST", "/sweep", &body)?;
                        records.push(Record {
                            latency_ms: ms_since(t),
                            body_sent: body,
                            hot: is_hot,
                            status,
                            response,
                        });
                        j += 1;
                    }
                    Ok(records)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut all = Vec::new();
    for r in per_client {
        all.extend(r?);
    }
    Ok((all, elapsed))
}

/// Checks every response: hot plans answered from the cache, equal
/// bodies for equal plans, and byte-identity with an uncached
/// in-process `SweepRunner::run` for every hot plan and a sample of the
/// new ones.
fn check_responses(records: &[Record], hot: &[String], checks: &mut Checks) {
    let mut first: HashMap<&str, String> = HashMap::new();
    for r in records.iter().filter(|r| r.status == 200) {
        let (cells, cached, _) = provenance_counts(&r.response);
        if r.hot {
            checks.check(cells > 0 && cached == cells, || {
                format!("hot plan {} not answered from the cache", r.body_sent)
            });
        }
        let stripped = strip_provenance(&r.response);
        match first.get(r.body_sent.as_str()) {
            Some(prev) => checks.check(*prev == stripped, || {
                format!("two responses to {} differ", r.body_sent)
            }),
            None => {
                first.insert(&r.body_sent, stripped);
            }
        }
    }
    let mut sample: Vec<&str> = hot.iter().map(|s| s.as_str()).collect();
    let mut misses: Vec<&str> = first
        .keys()
        .copied()
        .filter(|b| !hot.iter().any(|h| h == b))
        .collect();
    misses.sort_unstable();
    sample.extend(misses.into_iter().take(MISS_SAMPLE));
    for body in sample {
        let Some(served) = first.get(body) else {
            continue;
        };
        let plan = match parse_plan(body) {
            Ok(p) => p,
            Err(e) => {
                checks.check(false, || format!("plan {body} does not parse: {e}"));
                continue;
            }
        };
        let uncached = SweepRunner::new().run(&plan).map(|r| sweep_json(&r, false));
        checks.check(uncached.as_deref().ok() == Some(served.as_str()), || {
            format!("response to {body} differs from an uncached SweepRunner::run")
        });
    }
}

/// Broker and cache counters from `GET /stats`.
fn stats(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let (status, body) = http(addr, "GET", "/stats", "")?;
    if status != 200 {
        return Err(format!("/stats answered {status}"));
    }
    let root = wire::parse(&body).map_err(|e| format!("/stats: {e}"))?;
    let mut out = BTreeMap::new();
    let obj = root.as_object().ok_or("/stats is not an object")?;
    for (k, v) in obj {
        if let Some(x) = v.as_f64() {
            out.insert(format!("broker.{k}"), x);
        }
        if let Some(cache) = v.as_object() {
            for (ck, cv) in cache {
                out.insert(format!("cache.{ck}"), cv.as_f64().unwrap_or(0.0));
            }
        }
    }
    Ok(out)
}

/// A timed phase against a server that was just set up: the closed
/// loop, then the server's peak RSS and counters.
struct Served {
    records: Vec<Record>,
    elapsed_s: f64,
    peak_rss_mb: f64,
    stats: BTreeMap<String, f64>,
    entries: usize,
}

fn serve_phase(
    args: &Args,
    server: &ServerProc,
    dir: &Path,
    hot: &[String],
    seconds: f64,
    checks: &mut Checks,
) -> Result<Served, String> {
    let (records, elapsed_s) = closed_loop(server.addr, args.seed, hot, seconds)?;
    let peak_rss_mb = vm_hwm_mb(server.pid())?;
    let stats = stats(server.addr)?;
    // The set-up requests all compute; every cached cell a client
    // received is one cache hit of the broker, and every request counts.
    let cached: usize = records
        .iter()
        .map(|r| provenance_counts(&r.response).1)
        .sum();
    let counted = |k: &str| stats.get(k).copied().unwrap_or(-1.0) as i64;
    checks.check(counted("broker.cells_cached") == cached as i64, || {
        format!(
            "/stats counts {} cached cells, the clients received {cached}",
            counted("broker.cells_cached")
        )
    });
    checks.check(
        counted("broker.requests") == (records.len() + hot.len()) as i64,
        || {
            format!(
                "/stats counts {} requests, {} were sent",
                counted("broker.requests"),
                records.len() + hot.len()
            )
        },
    );
    Ok(Served {
        records,
        elapsed_s,
        peak_rss_mb,
        stats,
        entries: count_entries(dir),
    })
}

/// The timed (untraced) run.
pub fn run_timed(args: &Args) -> Result<Outcome, String> {
    let fixture = ensure_fixture(&args.work)?;
    let hot = hot_set(args.seed);
    let mut checks = Checks::default();
    let mut setup = Vec::new();
    let mut last: Option<(ServerProc, PathBuf)> = None;
    for k in 0..SETUP_REPS {
        // The previous server is stopped before the next copy is made.
        drop(last.take());
        let (server, dir, s) = set_up_server(args, &fixture, &hot, k, &mut checks)?;
        setup.push(s);
        last = Some((server, dir));
    }
    let (server, dir) = last.expect("at least one set-up");
    progress("set-up done");
    let served = serve_phase(args, &server, &dir, &hot, args.seconds, &mut checks)?;
    drop(server);
    progress("timed phase done");
    check_responses(&served.records, &hot, &mut checks);
    progress("responses checked");

    let ok: Vec<&Record> = served.records.iter().filter(|r| r.status == 200).collect();
    let failed = (served.records.len() - ok.len()) as u64;
    let all_ms: Vec<f64> = ok.iter().map(|r| r.latency_ms).collect();
    let miss_ms: Vec<f64> = ok
        .iter()
        .filter(|r| provenance_counts(&r.response).2 > 0)
        .map(|r| r.latency_ms)
        .collect();
    let cells: usize = ok.iter().map(|r| provenance_counts(&r.response).0).sum();
    for k in 0..SETUP_REPS {
        let _ = std::fs::remove_dir_all(args.work.join(format!("serve-cache-{k}")));
    }
    check_fixture(&args.work, &mut checks);
    Ok(Outcome {
        attempted: served.records.len() as u64,
        failed: failed + checks.failures() as u64,
        checks,
        metrics: vec![
            Metric {
                name: "setup_s",
                value: median(&setup),
                unit: "s",
            },
            Metric {
                name: "cells_per_s",
                value: cells as f64 / served.elapsed_s,
                unit: "1/s",
            },
            Metric {
                name: "req_per_s",
                value: ok.len() as f64 / served.elapsed_s,
                unit: "1/s",
            },
            Metric {
                name: "req_ms_p50",
                value: median(&all_ms),
                unit: "ms",
            },
            Metric {
                name: "miss_ms_p50",
                value: median(&miss_ms),
                unit: "ms",
            },
            Metric {
                name: "peak_rss_mb",
                value: served.peak_rss_mb,
                unit: "MB",
            },
        ],
    })
}

/// The traced run: half the time against the server as in the timed run
/// (client-side hit latency and the `/stats` counters); the other half
/// in-process on another fresh fixture copy, the same request sequence
/// (clients interleaved), with spans around `parse_plan`,
/// `SweepBroker::run`, `sweep_json`, `route`, `CellCache::lookup` and
/// `CellCache::store`, and every computed ensemble re-evaluated through
/// the layer calls.
pub fn run_traced(
    args: &Args,
    layers: &mut BTreeMap<&'static str, f64>,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let fixture = ensure_fixture(&args.work)?;
    let hot = hot_set(args.seed);
    let mut checks = Checks::default();

    let (server, dir, _) = set_up_server(args, &fixture, &hot, 0, &mut checks)?;
    let served = serve_phase(args, &server, &dir, &hot, args.seconds / 2.0, &mut checks)?;
    drop(server);
    check_responses(&served.records, &hot, &mut checks);
    let hits: Vec<&Record> = served
        .records
        .iter()
        .filter(|r| {
            let (cells, cached, _) = provenance_counts(&r.response);
            r.status == 200 && cells > 0 && cached == cells
        })
        .collect();
    let hit_ms: Vec<f64> = hits.iter().map(|r| r.latency_ms).collect();
    let failed_a = served.records.iter().filter(|r| r.status != 200).count() as u64;
    for counter in [
        "cache.hits",
        "cache.misses",
        "cache.stores",
        "cache.evictions",
        "broker.sim_passes",
        "broker.cells_computed",
        "broker.cells_cached",
        "broker.cells_coalesced",
    ] {
        layers.insert(counter, served.stats.get(counter).copied().unwrap_or(0.0));
    }
    layers.insert("cache.entries", served.entries as f64);
    layers.insert("serve.hit_ms_p50", median(&hit_ms));
    layers.insert("serve.hit_ms_p90", quantile(&hit_ms, 0.9));
    layers.insert(
        "serve.response_bytes",
        mean(
            &hits
                .iter()
                .map(|r| r.response.len() as f64)
                .collect::<Vec<_>>(),
        ),
    );

    // In-process half.
    let dir = args.work.join("serve-cache-inproc");
    let bytes = fresh_copy(&fixture, &dir)?;
    let cache = Arc::new(
        CellCache::open(&dir)
            .map_err(|e| e.to_string())?
            .with_max_bytes(bytes + CAP_HEADROOM),
    );
    let broker = SweepBroker::new().with_cache(Arc::clone(&cache));
    for body in &hot {
        let status = route(&broker, "POST", "/sweep", body).status;
        checks.check(status == 200, || {
            format!("in-process set-up request answered {status}")
        });
    }
    let clients = nproc() as u64;
    let start = Instant::now();
    let (mut attempted, mut failed_b) = (0u64, 0u64);
    let (mut particle_steps, mut configs, mut spilled, mut ensembles) = (0.0, 0.0, 0usize, 0usize);
    let mut j = 0;
    'outer: loop {
        for client in 0..clients {
            if start.elapsed().as_secs_f64() >= args.seconds / 2.0 {
                break 'outer;
            }
            let (body, is_hot) = request(args.seed, client, j, &hot);
            attempted += 1;
            let req = tr.open("request", 0);
            let plan = match tr.span("serve.parse", req, || parse_plan(&body)) {
                Ok(p) => p,
                Err(e) => {
                    checks.check(false, || format!("plan {body} does not parse: {e}"));
                    failed_b += 1;
                    tr.close(req);
                    continue;
                }
            };
            let t = Instant::now();
            let report = broker.run(&plan);
            let end = Instant::now();
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    checks.check(false, || format!("broker rejected {body}: {e}"));
                    failed_b += 1;
                    tr.close(req);
                    continue;
                }
            };
            let hit = report
                .cells
                .iter()
                .all(|c| c.provenance == CellProvenance::Cached);
            tr.record(if hit { "broker.hit" } else { "broker.miss" }, req, t, end);
            let json = tr.span("report.sweep_json", req, || sweep_json(&report, true));
            if is_hot {
                checks.check(hit, || {
                    format!("in-process: hot plan {body} not answered from the cache")
                });
            }
            failed_b += report.failed_cells().len() as u64;
            if hit {
                let resp = tr.span("serve.route_hit", req, || {
                    route(&broker, "POST", "/sweep", &body)
                });
                checks.check(resp.status == 200 && resp.body == json, || {
                    format!("route and sweep_json disagree on {body}")
                });
                for cell in &report.cells {
                    let sc = plan
                        .scenarios
                        .iter()
                        .find(|s| s.name == cell.scenario)
                        .expect("cell of the plan");
                    let key = cell_key(&sc.clone().with_seed(cell.seed), &cell.measure)
                        .map_err(|e| e.to_string())?;
                    let got = tr.span("cache.lookup", req, || cache.lookup(key));
                    checks.check(got.is_some_and(|g| bit_identical(&g, &cell.result)), || {
                        format!("cache lookup of a served cell of {body} disagrees")
                    });
                }
            } else {
                for sc in &plan.scenarios {
                    for &seed in &plan.seeds {
                        let computed: Vec<_> = report
                            .cells
                            .iter()
                            .filter(|c| {
                                c.scenario == sc.name
                                    && c.seed == seed
                                    && c.provenance == CellProvenance::Computed
                            })
                            .collect();
                        if computed.is_empty() {
                            continue;
                        }
                        let scenario = sc.clone().with_seed(seed);
                        let measures: Vec<_> = computed.iter().map(|c| c.measure).collect();
                        let parent = tr.open("recomposed", req);
                        let (results, observed) = recompose(
                            tr,
                            parent,
                            &scenario,
                            &measures,
                            plan.storage,
                            1,
                            &mut checks,
                        );
                        tr.close(parent);
                        let e = &scenario.ensemble;
                        particle_steps += (e.samples * e.t_max * e.model.particles()) as f64;
                        configs += (e.samples * scenario.eval_times().len()) as f64;
                        spilled += observed.spilled_bytes;
                        ensembles += 1;
                        for (cell, r) in computed.iter().zip(&results) {
                            checks.check(bit_identical(&cell.result, r), || {
                                format!(
                                    "{body}: layer-by-layer result differs from the served cell"
                                )
                            });
                            let key =
                                cell_key(&scenario, &cell.measure).map_err(|e| e.to_string())?;
                            tr.span("cache.store", req, || cache.store(key, &cell.result));
                        }
                    }
                }
            }
            tr.close(req);
        }
        j += 1;
    }
    drop(broker);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(args.work.join("serve-cache-0"));
    check_fixture(&args.work, &mut checks);

    fill_pipeline_layers(
        layers,
        tr,
        particle_steps,
        configs,
        spilled as f64 / ensembles.max(1) as f64,
    );
    let route_hit_us = tr.mean_ms("serve.route_hit") * 1e3;
    layers.insert("serve.parse_us", tr.mean_ms("serve.parse") * 1e3);
    layers.insert("serve.route_hit_us", route_hit_us);
    layers.insert("serve.socket_ms", median(&hit_ms) - route_hit_us / 1e3);
    layers.insert(
        "report.sweep_json_us",
        tr.mean_ms("report.sweep_json") * 1e3,
    );
    layers.insert("broker.hit_us", tr.mean_ms("broker.hit") * 1e3);
    layers.insert("broker.miss_ms", tr.mean_ms("broker.miss"));
    layers.insert("cache.lookup_us", tr.mean_ms("cache.lookup") * 1e3);
    layers.insert("cache.store_ms", tr.mean_ms("cache.store"));
    Ok(Outcome {
        attempted: served.records.len() as u64 + attempted,
        failed: failed_a + failed_b + checks.failures() as u64,
        checks,
        metrics: Vec::new(),
    })
}
