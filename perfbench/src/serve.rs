//! `serve-hot`: traffic into an in-process `hymm-serve`.
//!
//! The workload starts the server with `Server::start` (2 workers) on an
//! ephemeral port and loads it from this process over 2 keep-alive
//! connections, as an **open loop**: a dispatcher releases requests on a
//! fixed-rate schedule and the two connections send them; each request is
//! timed from its due time, so waiting for a free connection counts. All
//! keys fit in the prepared cache and set-up simulates each once, so every
//! timed request is a cache hit.
//!
//! The schedule runs in stretches of two seconds; between stretches nothing
//! is in flight and the host-speed reference ([`crate::calib`]) runs alone.
//! Latencies are reported at the reference speed; the host's own p50 and
//! p99 are printed beside them.
//!
//! The traced run also replays the request stream in-process through the
//! server's public stages (`http::read_request` + `proto::parse_request`,
//! `PreparedCache::get_or_prepare`, `run_inference_prepared`,
//! `proto::render_response` + `Response::write_to`) to time each stage.

use crate::calib::{HostSpeed, Stretch};
use crate::oracle;
use crate::report::Metrics;
use crate::stats::{self, median};
use crate::trace::{self, Tracer};
use crate::{Outcome, Xorshift};
use hymm_bench::json::{parse_json, Json};
use hymm_core::config::Dataflow;
use hymm_core::stats::SimReport;
use hymm_gcn::run_inference_prepared;
use hymm_graph::datasets::Dataset;
use hymm_serve::cache::PreparedCache;
use hymm_serve::http::{self, Response};
use hymm_serve::loadgen::{one_shot, Conn};
use hymm_serve::proto;
use hymm_serve::server::{ServeConfig, Server};
use std::collections::{BTreeMap, VecDeque};
use std::io::Cursor;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Client connections (and server workers).
const CONNECTIONS: usize = 2;
/// Server start plus cache fill is repeated this often (once before the
/// load, the rest after it); `setup_s` is the median.
const SETUP_REPEATS: usize = 7;
/// Requests replayed in-process by the traced run (three times: untraced,
/// traced, untraced).
const REPLAY_REQUESTS: usize = 200;
/// Nearest-rank tail percentile reported as `tail_ms`.
const TAIL_Q: f64 = 0.99;
/// Seconds of load between two samples of the host-speed reference: the
/// load stops, the reference runs alone, and the load resumes. Latencies
/// and elapsed time of a stretch are rescaled by the samples around it (see
/// [`crate::calib`]).
const STRETCH_S: f64 = 2.0;

/// One serve workload's constants.
pub struct ServeWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Datasets in the key set.
    pub datasets: &'static [Dataset],
    /// Node caps applied to every dataset: each (dataset, cap) is one
    /// graph.
    pub caps: &'static [usize],
    /// Dataflow labels in the key set.
    pub dataflows: &'static [&'static str],
    /// Prepared-cache capacity of the server.
    pub cache_capacity: usize,
    /// Open-loop arrival rate, requests per second.
    pub rate_rps: f64,
    /// Latency limit behind `slo_ok_ratio`.
    pub limit_ms: f64,
}

/// `serve-hot`: 3 datasets x 3 dataflows at cap 1000, all resident in the
/// default 8-entry cache, offered at 32 % of the closed-loop capacity
/// measured when the benchmark was written (125 rps on 2 cores). At 60 %
/// a slow spell of the shared host pushed the queue towards saturation and
/// p99 moved by more than any bound; 40 rps still gives 1200 samples, 12
/// beyond p99, in a 30 s run.
pub const HOT: ServeWorkload = ServeWorkload {
    name: "serve-hot",
    datasets: &[Dataset::Cora, Dataset::ComputerScience, Dataset::Physics],
    caps: &[1000],
    dataflows: &["HyMM", "RWP", "OP"],
    cache_capacity: 8,
    rate_rps: 40.0,
    limit_ms: 100.0,
};

/// Generator lateness (dispatch time minus due time, p99) above which an
/// open loop run is invalid: several arrival gaps behind its schedule.
const LATE_LIMIT_MS: f64 = 50.0;
/// Generator lateness (p99) above which the host disturbed the run: a tenth
/// of the 25 ms arrival gap. On a quiet host the p99 stays near 1 ms; the
/// spells that push it past 2.5 ms also raise the server's p50 by a fifth
/// and its p99 by half.
const LATE_DISTURBED_MS: f64 = 2.5;
/// Requests still waiting for a connection when the last one falls due,
/// above which an open loop run is invalid: the backlog grew.
const BACKLOG_LIMIT: usize = 16;

/// The `/simulate` body of one key.
fn request_body(dataset: Dataset, cap: usize, dataflow: &str) -> String {
    format!(
        "{{\"dataset\": \"{}\", \"scale\": {cap}, \"dataflow\": \"{dataflow}\"}}",
        dataset.abbrev()
    )
}

/// One request key.
struct Key {
    dataset: Dataset,
    cap: usize,
    dataflow: &'static str,
    body: String,
}

impl ServeWorkload {
    /// Keys graph-major: dataset, then cap, then dataflow.
    fn keys(&self) -> Vec<Key> {
        let mut keys = Vec::new();
        for &dataset in self.datasets {
            for &cap in self.caps {
                for &dataflow in self.dataflows {
                    keys.push(Key {
                        dataset,
                        cap,
                        dataflow,
                        body: request_body(dataset, cap, dataflow),
                    });
                }
            }
        }
        keys
    }

    /// Keys sent during set-up, the same for every seed: every key once,
    /// so graphs and HyMM memos are warm.
    fn fill(&self, keys: &[Key]) -> Vec<usize> {
        (0..keys.len()).collect()
    }
}

/// One answered (or failed) request.
struct Sample {
    key: usize,
    /// On the host.
    latency_ms: f64,
    /// Index of the stretch of load it was sent in.
    stretch: usize,
    ok: bool,
    body: String,
}

/// Sends one request and checks its body against the oracle.
fn send(conn: &mut Conn, keys: &[Key], key: usize) -> (bool, String) {
    match conn.request("POST", "/simulate", &keys[key].body) {
        Ok(resp) => {
            let body = resp.text();
            let ok = resp.status == 200 && oracle::serve_matches(&keys[key].body, &body);
            if !ok {
                eprintln!(
                    "[serve] {} -> HTTP {} {}",
                    keys[key].body,
                    resp.status,
                    body.trim()
                );
            }
            (ok, body)
        }
        Err(e) => {
            eprintln!("[serve] {} -> {e}", keys[key].body);
            (false, String::new())
        }
    }
}

fn connect(addr: &str) -> Conn {
    Conn::connect(addr).expect("the in-process server accepts connections")
}

/// Starts a server and sends the fill keys; returns it with the number of
/// fill requests not answered correctly.
fn start_and_fill(w: &ServeWorkload, keys: &[Key], fill: &[usize]) -> (Server, usize) {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: CONNECTIONS,
        cache_capacity: w.cache_capacity,
        read_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    })
    .expect("binding an ephemeral local port");
    let mut conn = connect(&server.addr().to_string());
    let failed = fill
        .iter()
        .filter(|&&k| !send(&mut conn, keys, k).0)
        .count();
    (server, failed)
}

/// Counters from `/stats`.
#[derive(Debug, Clone, Copy, Default)]
struct StatsSnapshot {
    hits: f64,
    misses: f64,
    evictions: f64,
    coalesced: f64,
    simulate_requests: f64,
    sim_seconds: f64,
}

fn scrape(addr: &str) -> StatsSnapshot {
    let resp = one_shot(addr, "GET", "/stats", "").expect("/stats answers");
    let doc = parse_json(&resp.text()).expect("/stats is JSON");
    let n = |k: &str| doc.get(k).and_then(Json::as_f64).expect("/stats field");
    StatsSnapshot {
        hits: n("prepared_cache_hits_total"),
        misses: n("prepared_cache_misses_total"),
        evictions: n("prepared_cache_evictions_total"),
        coalesced: n("dedupe_coalesced_total"),
        simulate_requests: n("simulate_requests_total"),
        sim_seconds: n("sim_seconds_total"),
    }
}

/// What the generator observed about itself on an open loop.
#[derive(Debug, Default)]
struct Generator {
    late_ms: Vec<f64>,
    backlog_end: usize,
}

/// One stretch of the open loop: `sequence[i]` falls due at `i / rate_rps`
/// after the start.
fn open_stretch(
    addr: &str,
    keys: &[Key],
    sequence: &[usize],
    rate_rps: f64,
) -> (Vec<Sample>, Generator, f64) {
    struct Queue {
        due: VecDeque<(usize, Instant)>,
        closed: bool,
    }
    let queue = Mutex::new(Queue {
        due: VecDeque::new(),
        closed: false,
    });
    let ready = Condvar::new();
    let samples = Mutex::new(Vec::with_capacity(sequence.len()));
    let mut generator = Generator::default();
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            scope.spawn(|| {
                let mut conn = connect(addr);
                loop {
                    let next = {
                        let mut q = queue.lock().expect("queue lock");
                        loop {
                            if let Some(item) = q.due.pop_front() {
                                break Some(item);
                            }
                            if q.closed {
                                break None;
                            }
                            q = ready.wait(q).expect("queue lock");
                        }
                    };
                    let Some((i, due)) = next else { break };
                    let (ok, body) = send(&mut conn, keys, sequence[i]);
                    let latency_ms = due.elapsed().as_secs_f64() * 1e3;
                    samples.lock().expect("samples lock").push(Sample {
                        key: sequence[i],
                        latency_ms,
                        stretch: 0,
                        ok,
                        body,
                    });
                }
            });
        }
        for i in 0..sequence.len() {
            let due = start + Duration::from_secs_f64(i as f64 / rate_rps);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            generator.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let mut q = queue.lock().expect("queue lock");
            if i + 1 == sequence.len() {
                generator.backlog_end = q.due.len();
            }
            q.due.push_back((i, due));
            ready.notify_one();
        }
        queue.lock().expect("queue lock").closed = true;
        ready.notify_all();
    });
    let elapsed = start.elapsed().as_secs_f64();
    (
        samples.into_inner().expect("samples lock"),
        generator,
        elapsed,
    )
}

/// Open loop in stretches of [`STRETCH_S`] seconds of schedule, the
/// reference sampled between them while nothing is in flight. Returns the
/// samples, what the generator observed, the elapsed host time (the
/// schedule's, while the server keeps up) and the stretches.
fn open_loop(
    addr: &str,
    keys: &[Key],
    sequence: &[usize],
    rate_rps: f64,
    speed: &mut HostSpeed,
) -> (Vec<Sample>, Generator, f64, Vec<Stretch>) {
    let per_stretch = ((rate_rps * STRETCH_S).round() as usize).max(1);
    let mut samples = Vec::with_capacity(sequence.len());
    let mut generator = Generator::default();
    let mut elapsed = 0.0;
    let mut stretches = Vec::new();
    for chunk in sequence.chunks(per_stretch) {
        let from = speed.mark();
        let (mut s, g, e) = open_stretch(addr, keys, chunk, rate_rps);
        s.iter_mut().for_each(|s| s.stretch = stretches.len());
        stretches.push(speed.end(from, e));
        samples.append(&mut s);
        generator.late_ms.extend(g.late_ms);
        generator.backlog_end = generator.backlog_end.max(g.backlog_end);
        elapsed += e;
    }
    (samples, generator, elapsed, stretches)
}

/// `(max over datasets of OP/HyMM cycles, 1 - sum HyMM DRAM / sum OP DRAM)`
/// from the answered bodies, one per key.
fn served_headlines(keys: &[Key], samples: &[Sample]) -> (f64, f64) {
    let mut per_key: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.ok) {
        per_key.entry(s.key).or_insert_with(|| {
            let doc = parse_json(&s.body).expect("an oracle-checked body is JSON");
            let n = |k: &str| doc.get(k).and_then(Json::as_f64).expect("body field");
            (n("cycles"), n("dram_bytes"))
        });
    }
    let mut speedup: f64 = 0.0;
    let (mut hymm_dram, mut op_dram) = (0.0, 0.0);
    for (i, key) in keys
        .iter()
        .enumerate()
        .filter(|(_, k)| k.dataflow == "HyMM")
    {
        let op = keys
            .iter()
            .position(|k| k.dataset == key.dataset && k.cap == key.cap && k.dataflow == "OP");
        if let (Some(&(hc, hd)), Some(&(oc, od))) =
            (per_key.get(&i), op.and_then(|o| per_key.get(&o)))
        {
            speedup = speedup.max(oc / hc.max(1.0));
            hymm_dram += hd;
            op_dram += od;
        }
    }
    (speedup, 1.0 - hymm_dram / op_dram.max(1.0))
}

/// Per-stage seconds of an in-process replay.
#[derive(Debug, Default)]
struct Replay {
    wall_s: f64,
    requests: usize,
    failed: usize,
    hits: usize,
    /// One report per key, for the deterministic counts.
    reports: BTreeMap<usize, SimReport>,
}

/// Serves one request through the server's stages, one span per stage.
fn serve_one(cache: &PreparedCache, key: &Key, tracer: &mut Tracer) -> (String, bool, SimReport) {
    let wire = format!(
        "POST /simulate HTTP/1.1\r\nhost: hymm-serve\r\ncontent-length: {}\r\n\r\n{}",
        key.body.len(),
        key.body
    );
    let req = tracer.time("serve.parse", || {
        let raw = http::read_request(&mut Cursor::new(wire.as_bytes()), 64 * 1024)
            .expect("well-formed request")
            .expect("one request on the wire");
        let doc =
            parse_json(std::str::from_utf8(&raw.body).expect("UTF-8 body")).expect("JSON body");
        proto::parse_request(&doc, false).expect("valid request")
    });
    let (entry, hit) = tracer.time("serve.prepare", || cache.get_or_prepare(&req.spec));
    let outcome = tracer.time("serve.simulate", || {
        let memo = (req.dataflow == Dataflow::Hybrid).then(|| entry.memo(&req.config));
        run_inference_prepared(
            &req.config,
            req.dataflow,
            entry.prep(),
            entry.features(),
            entry.model(),
            memo.as_deref(),
        )
        .expect("served shapes are consistent")
    });
    let body = tracer.time("serve.render", || {
        let body = proto::render_response(&req, &outcome.report);
        let mut resp = Response::json(body.clone());
        let disposition = if hit { "hit" } else { "miss" };
        resp.extra_headers
            .push(("x-hymm-cache".to_string(), disposition.to_string()));
        let mut wire = Vec::new();
        resp.write_to(&mut wire, true).expect("writing to memory");
        body
    });
    (body, hit, outcome.report)
}

/// Replays `sequence` through the server's stages on one thread, after
/// serving `fill` the same way untraced and untimed.
fn replay(
    w: &ServeWorkload,
    keys: &[Key],
    fill: &[usize],
    sequence: &[usize],
    tracer: &mut Tracer,
) -> Replay {
    let cache = PreparedCache::new(w.cache_capacity);
    for &key in fill {
        serve_one(&cache, &keys[key], &mut Tracer::new(false));
    }
    let mut out = Replay::default();
    let started = Instant::now();
    let root = tracer.begin("serve.replay");
    for &key in sequence {
        let (body, hit, report) = serve_one(&cache, &keys[key], tracer);
        out.reports.entry(key).or_insert(report);
        out.requests += 1;
        out.hits += usize::from(hit);
        if !oracle::serve_matches(&keys[key].body, &body) {
            out.failed += 1;
        }
    }
    tracer.end(root);
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// Reports of every key, one simulation each, in-process.
fn key_reports(w: &ServeWorkload, keys: &[Key]) -> (BTreeMap<usize, SimReport>, usize) {
    let all: Vec<usize> = (0..keys.len()).collect();
    let r = replay(w, keys, &[], &all, &mut Tracer::new(false));
    (r.reports, r.failed)
}

/// Runs one serve workload.
pub fn run(w: &ServeWorkload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let keys = w.keys();
    let mut rng = Xorshift::new(seed);
    let fill = w.fill(&keys);
    let length = (w.rate_rps * seconds).round() as usize;
    let sequence: Vec<usize> = (0..length).map(|_| rng.below(keys.len())).collect();

    let mut speed = HostSpeed::new(!traced);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut set_up = |speed: &mut HostSpeed| {
        let ((server, fill_failed), stretch) = speed.measure(|| start_and_fill(w, &keys, &fill));
        setups.push(stretch);
        attempted += fill.len() as u64;
        failed += fill_failed as u64;
        server
    };
    let server = set_up(&mut speed);
    let addr = server.addr().to_string();

    let before = scrape(&addr);
    let (samples, generator, elapsed, stretches) =
        open_loop(&addr, &keys, &sequence, w.rate_rps, &mut speed);
    let after = scrape(&addr);
    server.shutdown();
    // The peak of one server's life. The further set-ups, which only time
    // `setup_s`, leave freed memory in the arenas of their exited worker
    // threads, so a peak read after them moves by up to 8 MB from run to
    // run with the allocator's choice of arena.
    let peak_mb = crate::status_mb("VmHWM");
    for _ in 1..SETUP_REPEATS {
        Server::shutdown(set_up(&mut speed));
    }

    attempted += samples.len() as u64;
    failed += samples.iter().filter(|s| !s.ok).count() as u64;
    // Latencies at the reference speed, read now that every sample is taken.
    let factors: Vec<f64> = stretches.iter().map(|st| speed.factor(st)).collect();
    let ok_ms = stats::sorted(
        &samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.latency_ms * factors[s.stretch])
            .collect::<Vec<_>>(),
    );
    let within = ok_ms.iter().filter(|&&ms| ms <= w.limit_ms).count();
    let late = stats::sorted(&generator.late_ms);
    let late_p99 = if late.is_empty() {
        0.0
    } else {
        stats::tail_percentile(&late, TAIL_Q).unwrap_or(late[late.len() - 1])
    };
    let tail = stats::tail_percentile(&ok_ms, TAIL_Q);
    let mut valid = tail.is_some();
    if tail.is_none() {
        eprintln!(
            "[{}] {} answered requests leave fewer than {} beyond p99; need {}",
            w.name,
            ok_ms.len(),
            stats::MIN_BEYOND,
            stats::min_samples(TAIL_Q)
        );
    }
    println!(
        "[{}] open loop {} rps x {} requests: generator late p99 {late_p99:.3} ms \
         (limit {LATE_LIMIT_MS}), backlog at the last due time {} (limit {BACKLOG_LIMIT})",
        w.name,
        w.rate_rps,
        sequence.len(),
        generator.backlog_end
    );
    if late_p99 > LATE_LIMIT_MS || generator.backlog_end > BACKLOG_LIMIT {
        eprintln!(
            "[{}] INVALID: the generator fell behind its schedule",
            w.name
        );
        valid = false;
    }
    let (speedup, dram_saving) = served_headlines(&keys, &samples);
    let raw_ms = stats::sorted(
        &samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.latency_ms)
            .collect::<Vec<_>>(),
    );
    if let (Some(p50), Some(p99)) = (
        stats::tail_percentile(&raw_ms, 0.5),
        stats::tail_percentile(&raw_ms, TAIL_Q),
    ) {
        let loaded_s: f64 = stretches.iter().map(|st| st.raw_s).sum();
        println!(
            "[{}] on the host: p50 {p50:.3} ms, p99 {p99:.3} ms, {} requests in {loaded_s:.3} s",
            w.name,
            samples.len()
        );
    }
    println!(
        "[{}] {} requests over {} keys ({} datasets at caps {:?}, {:?}), cache {} entries; \
         p50/p99 over {} answered; limit {} ms; simulated speedup {speedup:.3}x, dram saving {:.1} %; \
         host-speed reference {:.3} ms (median of {}; {} ms at the reference speed)",
        w.name,
        samples.len(),
        keys.len(),
        w.datasets.len(),
        w.caps,
        w.dataflows,
        w.cache_capacity,
        ok_ms.len(),
        w.limit_ms,
        dram_saving * 100.0,
        speed.median_ms(),
        speed.samples(),
        crate::calib::REFERENCE_MS
    );

    let mut m = Metrics::default();
    if traced {
        let (reports, key_failed) = key_reports(w, &keys);
        attempted += keys.len() as u64;
        failed += key_failed as u64;
        let replayed = &sequence[..REPLAY_REQUESTS.min(sequence.len())];
        // Untraced, traced, untraced, as in the suite.
        let before_replay = replay(w, &keys, &fill, replayed, &mut Tracer::new(false));
        let mut tracer = Tracer::new(true);
        let traced_replay = replay(w, &keys, &fill, replayed, &mut tracer);
        let after_replay = replay(w, &keys, &fill, replayed, &mut Tracer::new(false));
        let untraced_s = (before_replay.wall_s + after_replay.wall_s) / 2.0;
        attempted += 3 * replayed.len() as u64;
        failed += (before_replay.failed + traced_replay.failed + after_replay.failed) as u64;
        crate::write_spans(&tracer, w.name, seed);

        let self_s = trace::self_seconds_by_name(tracer.spans());
        let per_request = |name: &str| {
            self_s.get(name).copied().unwrap_or(0.0) / traced_replay.requests.max(1) as f64
        };
        m.put("serve.parse_s", per_request("serve.parse"), "s");
        m.put("serve.prepare_s", per_request("serve.prepare"), "s");
        m.put("serve.simulate_s", per_request("serve.simulate"), "s");
        m.put("serve.render_s", per_request("serve.render"), "s");

        let d = |f: fn(&StatsSnapshot) -> f64| f(&after) - f(&before);
        let lookups = d(|s| s.hits) + d(|s| s.misses);
        m.put(
            "serve.cache_hit_ratio",
            d(|s| s.hits) / lookups.max(1.0),
            "ratio",
        );
        m.put("serve.cache_evictions", d(|s| s.evictions), "count");
        m.put(
            "serve.dedupe_ratio",
            d(|s| s.coalesced) / d(|s| s.simulate_requests).max(1.0),
            "ratio",
        );
        let client_s: f64 = samples.iter().map(|s| s.latency_ms / 1e3).sum();
        m.put(
            "serve.sim_share",
            d(|s| s.sim_seconds) / client_s.max(1e-9),
            "ratio",
        );
        m.put("loadgen.late_p99_ms", late_p99, "ms");

        let mut merged: Vec<(&'static str, SimReport)> = crate::suite::VARIANTS
            .iter()
            .map(|&v| (v, SimReport::empty()))
            .collect();
        for (key, report) in &reports {
            if let Some((_, slot)) = merged.iter_mut().find(|(v, _)| *v == keys[*key].dataflow) {
                slot.merge(report);
            }
        }
        crate::count_metrics(&mut m, &merged);
        crate::zero_suite_metrics(&mut m);
        let root_s = traced_replay.wall_s;
        let layered: f64 = self_s
            .iter()
            .filter(|(name, _)| crate::is_layer_span(name))
            .map(|(_, t)| t)
            .sum();
        m.put(
            "trace.coverage",
            (layered / root_s.max(1e-9)).min(1.0),
            "ratio",
        );
        m.put(
            "trace.overhead_ratio",
            traced_replay.wall_s / untraced_s,
            "ratio",
        );
        println!(
            "[{}] replayed {} requests in-process: {:.3} s traced vs {untraced_s:.3} s untraced, \
             {} cache hits",
            w.name, traced_replay.requests, traced_replay.wall_s, traced_replay.hits
        );
    } else {
        let setup_s: Vec<f64> = setups.iter().map(|st| speed.seconds(st)).collect();
        m.put("setup_s", median(&setup_s), "s");
        let ok_count = ok_ms.len() as f64;
        // On the open loop this is goodput: the offered rate while the
        // server keeps up.
        m.put("throughput_ops", ok_count / elapsed, "1/s");
        m.put(
            "p50_ms",
            stats::tail_percentile(&ok_ms, 0.5).unwrap_or(0.0),
            "ms",
        );
        m.put("tail_ms", tail.unwrap_or(0.0), "ms");
        m.put(
            "slo_ok_ratio",
            within as f64 / samples.len().max(1) as f64,
            "ratio",
        );
        m.put("speedup_hymm_over_op", speedup, "x");
        m.put("dram_saving_hymm_vs_op", dram_saving, "ratio");
    }
    Outcome {
        metrics: m,
        attempted,
        failed,
        valid,
        disturbed: late_p99 > LATE_DISTURBED_MS,
        peak_mb,
        reference_mb: speed.footprint_mb(),
    }
}

/// `SERVE` oracle rows: every key served once in-process.
pub fn oracle_rows(w: &ServeWorkload) -> Vec<String> {
    let cache = PreparedCache::new(w.cache_capacity);
    w.keys()
        .iter()
        .map(|key| {
            let (body, _, _) = serve_one(&cache, key, &mut Tracer::new(false));
            oracle::serve_row(&key.body, &body)
        })
        .collect()
}
