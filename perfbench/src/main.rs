//! The HyMM reproduction's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite-native --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. Workloads: `suite-native` and `serve-hot`
//! (see `BENCHMARK.json` and `perfbench/README.md`). With
//! `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
//! prints the per-layer metrics of a traced run and writes its spans to
//! `perfbench/out/`. The last line of standard output is the result as one
//! JSON object; the exit code is 0 only when every output was correct.
//! `--print-oracle` prints the committed oracle tables from a fresh run.

mod calib;
mod oracle;
mod report;
mod serve;
mod stats;
mod suite;
mod trace;

use hymm_core::stats::SimReport;
use report::Metrics;
use std::process::ExitCode;

/// Workload names.
const WORKLOADS: [&str; 2] = ["suite-native", "serve-hot"];

/// Layers of the program, as span-name prefixes.
const LAYERS: [&str; 6] = ["graph", "sparse", "gcn", "core", "mem", "serve"];

/// What a workload run produced.
pub struct Outcome {
    /// Metrics of the run (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output did not check out.
    pub failed: u64,
    /// False when the run's own measurement was not trustworthy (an open
    /// loop that fell behind, or too few samples for a percentile).
    pub valid: bool,
    /// True when the host visibly interfered (the open-loop generator
    /// itself woke late), so an untraced run measures again.
    pub disturbed: bool,
    /// Peak resident megabytes of the process (`VmHWM`) when the workload
    /// read it.
    pub peak_mb: f64,
    /// Resident megabytes of the host-speed reference's buffers, which
    /// `peak_rss_mb` leaves out.
    pub reference_mb: f64,
}

/// Seeded xorshift64* generator for the workloads' inputs.
pub struct Xorshift(u64);

impl Xorshift {
    /// A generator seeded from `seed` (any value, zero included).
    pub fn new(seed: u64) -> Xorshift {
        Xorshift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Whether a span name belongs to a layer of the program rather than to
/// the benchmark's own bookkeeping.
pub fn is_layer_span(name: &str) -> bool {
    name.split('.')
        .next()
        .is_some_and(|prefix| LAYERS.contains(&prefix))
}

/// Writes a traced run's spans to `perfbench/out/spans-<workload>-<seed>.json`.
pub fn write_spans(tracer: &trace::Tracer, workload: &str, seed: u64) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{workload}-{seed}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json())) {
        Ok(()) => println!(
            "[trace] {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("[trace] cannot write {}: {e}", path.display()),
    }
}

/// The deterministic per-variant counts, from reports summed per variant.
/// A variant a workload does not run reads 0.
pub fn count_metrics(m: &mut Metrics, merged: &[(&'static str, SimReport)]) {
    for (variant, r) in merged {
        let ran = r.cycles > 0;
        let share = |class: u64| {
            if ran {
                class as f64 / r.stalls.total().max(1) as f64
            } else {
                0.0
            }
        };
        m.put(format!("core.cycles.{variant}"), r.cycles as f64, "cycles");
        m.put(
            format!("mem.dram_bytes.{variant}"),
            r.dram_bytes() as f64,
            "bytes",
        );
        let hit = if ran { r.dmb_hit_rate() } else { 0.0 };
        m.put(format!("mem.dmb_hit_ratio.{variant}"), hit, "ratio");
        m.put(
            format!("core.stall_share.dmb-miss.{variant}"),
            share(r.stalls.dmb_miss),
            "ratio",
        );
        m.put(
            format!("core.stall_share.mac.{variant}"),
            share(r.stalls.mac),
            "ratio",
        );
    }
}

/// Serve-stage metrics read 0 on a workload without a server.
pub fn zero_serve_metrics(m: &mut Metrics) {
    for name in [
        "serve.parse_s",
        "serve.prepare_s",
        "serve.simulate_s",
        "serve.render_s",
    ] {
        m.put(name, 0.0, "s");
    }
    for name in [
        "serve.cache_hit_ratio",
        "serve.dedupe_ratio",
        "serve.sim_share",
    ] {
        m.put(name, 0.0, "ratio");
    }
    m.put("serve.cache_evictions", 0.0, "count");
    m.put("loadgen.late_p99_ms", 0.0, "ms");
}

/// Suite-stage metrics read 0 on the serve workloads, whose preparation
/// and simulation time is in `serve.prepare_s` and `serve.simulate_s`.
pub fn zero_suite_metrics(m: &mut Metrics) {
    for name in [
        "graph.synthesize_s",
        "graph.normalize_s",
        "graph.degree_sort_s",
        "sparse.tiling_s",
        "core.prepare_s",
        "gcn.combination_numerics_s",
    ] {
        m.put(name, 0.0, "s");
    }
    for variant in suite::VARIANTS {
        m.put(format!("core.simulate_s.{variant}"), 0.0, "s");
        if variant != "HyMM-noacc" {
            m.put(format!("core.host_ns_per_cycle.{variant}"), 0.0, "ns/cycle");
        }
    }
}

/// Attempts an untraced run makes when the host interferes.
const MAX_ATTEMPTS: usize = 2;
/// A new attempt starts only while the run's age plus the last attempt's
/// length stays below this, so a run ends well within 180 s.
const ATTEMPT_BUDGET_S: f64 = 150.0;
/// Share of the VM's CPU time taken by the hypervisor (`steal`) above which
/// an attempt counts as disturbed. Runs on the 2-vCPU host this was written
/// on showed 0-7 %, the slowest runs at the top of that range; the limit
/// only catches spells well beyond them.
const STEAL_LIMIT: f64 = 0.10;

/// `(steal, total)` CPU ticks of the whole machine, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Share of CPU time stolen by the hypervisor between two readings; 0 when
/// the kernel does not report it.
fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

fn run_workload(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "suite-native" => suite::run(args.seed, args.seconds, args.trace),
        "serve-hot" => serve::run(&serve::HOT, args.seed, args.seconds, args.trace),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Runs the workload; an untraced run whose attempt the host disturbed
/// (hypervisor steal above [`STEAL_LIMIT`], or a late open-loop generator)
/// measures again, at most [`MAX_ATTEMPTS`] times and within
/// [`ATTEMPT_BUDGET_S`]. Metrics come from the last attempt; operations and
/// failures are counted over all of them.
fn run_attempts(args: &Args) -> Outcome {
    let started = std::time::Instant::now();
    let (mut attempted, mut failed) = (0, 0);
    for attempt in 1.. {
        let t = std::time::Instant::now();
        let before = cpu_ticks();
        let mut outcome = run_workload(args);
        let steal = steal_share(before, cpu_ticks());
        attempted += outcome.attempted;
        failed += outcome.failed;
        let disturbed = outcome.disturbed || steal > STEAL_LIMIT;
        println!(
            "[{}] attempt {attempt}: hypervisor steal {:.2} % of CPU time{}",
            args.workload,
            steal * 100.0,
            if disturbed { ", disturbed" } else { "" }
        );
        let out_of_time =
            started.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > ATTEMPT_BUDGET_S;
        if !disturbed || args.trace || attempt == MAX_ATTEMPTS || out_of_time {
            outcome.attempted = attempted;
            outcome.failed = failed;
            return outcome;
        }
    }
    unreachable!("the loop returns")
}

/// A memory field of `/proc/self/status` (`VmHWM`, `VmRSS`) in megabytes;
/// 0 when the kernel does not report it.
pub fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-oracle" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("suite-native or serve-hot"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("0 < seconds <= 120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    }))
}

fn print_oracle() {
    println!("const SUITE: &[(&str, &str, u64, u64)] = &[");
    for row in suite::oracle_rows() {
        println!("{row}");
    }
    println!("];\n\nconst SERVE: &[(&str, u64)] = &[");
    for row in serve::oracle_rows(&serve::HOT) {
        println!("{row}");
    }
    println!("];");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print_oracle();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("hymm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Read before running, so a checkout without it fails fast.
    let declared = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => text,
        Err(e) => {
            eprintln!("hymm-perfbench: BENCHMARK.json (run from the repository root): {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = run_attempts(&args);
    let ok_ratio = (outcome.attempted - outcome.failed) as f64 / outcome.attempted.max(1) as f64;
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    if !args.trace {
        outcome.metrics.put("ok_ratio", ok_ratio, "ratio");
        // The reference's buffers stay resident through the whole attempt,
        // so they sit under the program's peak.
        let peak = outcome.peak_mb;
        println!(
            "[{}] peak RSS {peak:.1} MB, of which the host-speed reference {:.1} MB",
            args.workload, outcome.reference_mb
        );
        outcome
            .metrics
            .put("peak_rss_mb", peak - outcome.reference_mb, "MB");
    }
    let declared_ok = match outcome.metrics.check_declared(&declared, section) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("hymm-perfbench: {e}");
            false
        }
    };
    let correct = outcome.failed == 0 && outcome.valid && declared_ok;
    println!(
        "[{}] seed {} {}: {} operations, {} failed, ok_ratio {ok_ratio}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    for line in outcome.metrics.human_lines() {
        println!("{line}");
    }
    println!(
        "{}",
        outcome
            .metrics
            .result_line(correct, outcome.attempted, outcome.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
