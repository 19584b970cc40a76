//! `servebench` — the end-to-end benchmark of `haqjsk-serve`.
//!
//! Drives the release `haqjsk-serve` binary over its JSON-lines wire from
//! this one process, then checks every answer against an in-process
//! reference. Usage (from the repository root, after building both):
//!
//! ```text
//! servebench --workload fit_gram|serve_mixed|transform_large \
//!            --seed N --seconds S --trace 0|1 [--server PATH]
//! ```
//!
//! `servebench/run.sh` builds the server and the benchmark and passes the
//! same arguments through.
//!
//! A run is a fixed number of operations derived from `--seconds` (never a
//! fixed duration): connection 1 runs the workload's closed loop while, on
//! `serve_mixed`, connection 2 sends an open-loop `stats` probe at a fixed
//! rate, timed from each probe's due time. Frames are encoded before timing
//! and replies are parsed only afterwards.
//!
//! * `--trace 0` starts the server several times (the median start-up is
//!   `setup_s`), runs the timed phase on the last start with the server's
//!   tracer off, and reports the end-to-end metrics.
//! * `--trace 1` runs half the operations twice, on an untraced and a
//!   traced server (their headline ratio is `obs.trace_overhead`), times
//!   each layer's public functions in-process under benchmark spans, reads
//!   the registry differences across the untraced phase, and reports the
//!   per-layer metrics.
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! Any mismatch with the reference makes `correct` false and the exit code
//! 1; a run that cannot complete exits 2 without that line.

mod inputs;
mod layers;
mod load;
mod quantile;
mod verify;

use haqjsk::core::{model_to_string, HaqjskVariant};
use haqjsk::engine::Json;
use inputs::{bare_frame, Kind, Op, Workload};
use layers::{Delta, LayerInputs, Scrape};
use load::{
    closed_loop, open_loop, Conn, ProbeSample, Sample, ServerProcess, Transport, WallClock,
};
use quantile::Summary;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use verify::{check, ok_reply, Expected, Reference, Verdict};

/// Server starts per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Idle `stats` requests that give the no-load baseline of `stats` time.
const IDLE_STATS: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            "--server" => server = Some(PathBuf::from(&value)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(25).max(1),
        trace: trace.unwrap_or(false),
        server: server.unwrap_or_else(|| PathBuf::from(target).join("release/haqjsk-serve")),
    })
}

/// Timed connection-1 operations per nominal second of `--seconds`, chosen
/// so a timed phase lasts roughly that long on a 2-vCPU x86-64 VM.
fn ops_per_second(workload: &str) -> f64 {
    match workload {
        "fit_gram" => 5.0,
        "serve_mixed" => 60.0,
        _ => 15.0,
    }
}

/// The headline group's name in the report (`fit`, `read`, `transform`).
fn headline_name(w: &Workload) -> &'static str {
    match w.headline {
        [only] => only.cmd(),
        _ => "read",
    }
}

// ---------------------------------------------------------------------------
// Server instances and phases
// ---------------------------------------------------------------------------

/// A started server with its connections and set-up replies.
struct Instance {
    server: ServerProcess,
    /// Connection 1: the closed loop, and scrapes outside timed windows.
    conn: Conn,
    /// Connection 2: the open-loop `stats` probe, on workloads that have one.
    probe: Option<Conn>,
    setup_s: f64,
    setup_replies: Vec<String>,
}

fn require_ok(line: &str) -> Result<Json, String> {
    ok_reply(line).map_err(|v| format!("set-up request failed: {v:?}"))
}

/// Spawn → banner → `ping` → initial `fit` → one warm-up per request type.
fn start_instance(bin: &std::path::Path, w: &Workload, traced: bool) -> Result<Instance, String> {
    let start = Instant::now();
    let server = ServerProcess::spawn(bin, traced)?;
    let mut conn = Conn::connect(&server.addr)?;
    require_ok(&conn.call(&bare_frame("ping"))?)?;
    let mut setup_replies = Vec::new();
    for op in &w.setup {
        let reply = conn.call(&op.frame)?;
        require_ok(&reply)?;
        setup_replies.push(reply);
    }
    let probe = match w.probe_hz {
        Some(_) => {
            let mut probe = Conn::connect(&server.addr)?;
            require_ok(&probe.call(&bare_frame("stats"))?)?;
            Some(probe)
        }
        None => None,
    };
    Ok(Instance {
        server,
        conn,
        probe,
        setup_s: start.elapsed().as_secs_f64(),
        setup_replies,
    })
}

/// One timed phase and the registry around it.
struct Phase {
    samples: Vec<Sample>,
    wall_s: f64,
    probes: Vec<ProbeSample>,
    idle: Scrape,
    before: Scrape,
    after: Scrape,
    /// Aligned-feature cache (hits, misses) before and after.
    cache: [(f64, f64); 2],
    /// The last `stats` reply, for the build identity.
    stats: Json,
}

fn scrape(conn: &mut Conn) -> Result<Scrape, String> {
    Scrape::parse(&require_ok(&conn.call(&bare_frame("metrics"))?)?)
}

fn aligned_cache(stats: &Json) -> (f64, f64) {
    let num = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    (num("aligned_cache_hits"), num("aligned_cache_misses"))
}

/// Scrapes, idle `stats` baseline, the timed phase (closed loop plus the
/// probe, if any), scrapes again.
fn run_phase(instance: &mut Instance, ops: &[Op], probe_hz: Option<f64>) -> Result<Phase, String> {
    let stats = bare_frame("stats");
    let Instance { conn, probe, .. } = instance;
    let idle = scrape(conn)?;
    let mut last = String::new();
    for _ in 0..IDLE_STATS {
        last = conn.call(&stats)?;
    }
    let cache_before = aligned_cache(&require_ok(&last)?);
    let before = scrape(conn)?;

    let frames: Vec<&str> = ops.iter().map(|op| op.frame.as_str()).collect();
    let running = AtomicBool::new(true);
    let clock = WallClock::start();
    let (closed, probes) = std::thread::scope(|scope| {
        let prober = probe.as_mut().zip(probe_hz).map(|(probe, hz)| {
            let (clock, stats, running) = (&clock, &stats, &running);
            scope.spawn(move || {
                open_loop(probe, clock, stats, 1.0 / hz, || {
                    running.load(Ordering::SeqCst)
                })
            })
        });
        let closed = closed_loop(conn, &clock, &frames);
        running.store(false, Ordering::SeqCst);
        let probes = match prober {
            Some(handle) => handle
                .join()
                .map_err(|_| "the probe thread panicked".to_string())
                .and_then(|r| r),
            None => Ok(Vec::new()),
        };
        (closed, probes)
    });
    let (samples, wall_s) = closed?;
    let probes = probes?;

    let after = scrape(conn)?;
    let stats = require_ok(&conn.call(&stats)?)?;
    Ok(Phase {
        samples,
        wall_s,
        probes,
        idle,
        before,
        after,
        cache: [cache_before, aligned_cache(&stats)],
        stats,
    })
}

impl Phase {
    fn latencies(&self, ops: &[Op], kinds: &[Kind]) -> Vec<f64> {
        ops.iter()
            .zip(&self.samples)
            .filter(|(op, _)| kinds.contains(&op.kind))
            .map(|(_, s)| s.latency_ms)
            .collect()
    }

    fn probe(&self, field: fn(&ProbeSample) -> f64) -> Vec<f64> {
        self.probes.iter().map(field).collect()
    }
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

/// Outcome counts of the checked replies.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    mismatches: Vec<String>,
}

impl Tally {
    fn record(&mut self, verdict: Verdict, timed: bool) {
        self.attempted += usize::from(timed);
        match verdict {
            Verdict::Match => {}
            Verdict::Failed(e) if timed => {
                self.failed += 1;
                if self.failed == 1 {
                    eprintln!("servebench: first failed request: {e}");
                }
            }
            Verdict::Failed(e) => self.mismatches.push(format!("untimed request failed: {e}")),
            Verdict::Mismatch(m) => self.mismatches.push(m),
        }
    }

    /// Checks one instance's set-up and timed replies.
    fn replies(&mut self, expected: &[Expected], instance: &Instance, phase: &Phase) {
        let replies = instance
            .setup_replies
            .iter()
            .map(|r| (r, false))
            .chain(phase.samples.iter().map(|s| (&s.reply, true)));
        for (want, (line, timed)) in expected.iter().zip(replies) {
            self.record(check(want, line), timed);
        }
        for p in &phase.probes {
            let verdict = ok_reply(&p.reply).map_or_else(|v| v, |_| Verdict::Match);
            self.record(verdict, true);
        }
    }

    /// Checks that the served model persists to the reference model's text.
    fn check_save(&mut self, reference: &Reference, conn: &mut Conn) -> Result<(), String> {
        let want = reference.current_model().map(model_to_string);
        let verdict = match ok_reply(&conn.call(&bare_frame("save"))?) {
            Ok(reply) if reply.get("model").and_then(Json::as_str) == want.as_deref() => {
                Verdict::Match
            }
            Ok(_) => Verdict::Mismatch("served model text differs from the reference".into()),
            Err(v) => v,
        };
        self.record(verdict, false);
        Ok(())
    }

    /// Untimed checks after the phase: the served model persists to the
    /// same text as the reference model and, for `fit_gram`, a row and the
    /// model under each variant.
    fn post_checks(
        &mut self,
        w: &Workload,
        reference: &mut Reference,
        instance: &mut Instance,
    ) -> Result<(), String> {
        self.check_save(reference, &mut instance.conn)?;
        if w.name != "fit_gram" {
            return Ok(());
        }
        // The timed loop ended on one variant: check a row under it, refit
        // the other and check its model and a row too.
        let last = w.timed.last().map(|o| o.variant);
        let refit = w
            .setup
            .iter()
            .chain(&w.timed)
            .find(|o| Some(o.variant) != last);
        let row = w.graph_op(Kind::KernelRow, 0, None);
        for op in [Some(&row), refit, Some(&row)].into_iter().flatten() {
            let want = reference.expect(op)?;
            self.record(check(&want, &instance.conn.call(&op.frame)?), false);
            if op.kind == Kind::Fit {
                self.check_save(reference, &mut instance.conn)?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// One reported figure.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind it, when it summarises a timing sample.
    n: Option<usize>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, n: Option<usize>) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        n,
    }
}

/// Median and p90 rows of a latency sample (plus the highest supported
/// percentile in the printed table).
fn latency_rows(prefix: &str, samples: &[f64], table: &mut Vec<Metric>) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let s = Summary::of(samples);
    table.push(metric(format!("{prefix}p50_ms"), s.p50, "ms", Some(s.n)));
    table.push(metric(format!("{prefix}p90_ms"), s.p90, "ms", Some(s.n)));
    if let Some((q, v)) = s.tail.filter(|&(q, _)| q > 0.9) {
        let pct = format!("{:.1}", q * 100.0);
        let pct = pct.trim_end_matches(".0");
        table.push(metric(format!("{prefix}p{pct}_ms"), v, "ms", Some(s.n)));
    }
    if !s.p90_supported() {
        eprintln!("servebench: {prefix}p90_ms rests on fewer than 10 samples beyond it");
    }
    Some(s)
}

fn print_table(title: &str, rows: &[Metric]) {
    println!("# {title}");
    for m in rows {
        let n = m.n.map_or(String::new(), |n| format!("  (n={n})"));
        println!("#   {:<40} {:>14.6} {}{n}", m.name, m.value, m.unit);
    }
}

fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let entry = Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]);
                (m.name.clone(), entry)
            })
            .collect(),
    );
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted.max(1) as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", metrics),
    ])
    .to_string()
}

/// Which end-to-end metric each per-layer metric should move, and where.
const MOVES: &[(&str, &str)] = &[
    (
        "engine.json.decode_ms",
        "p50_ms on transform_large and fit_gram",
    ),
    ("engine.json.encode_ms", "p50_ms (read) on serve_mixed"),
    (
        "core.hierarchy.fit_ms",
        "p50_ms on fit_gram; setup_s elsewhere",
    ),
    ("core.model.transform_cold_ms", "p50_ms on transform_large"),
    ("core.model.train_lookup_ms", "p50_ms (read) on serve_mixed"),
    (
        "core.model.kernel_us_per_pair",
        "p50_ms/ops_per_s on fit_gram and serve_mixed; nothing on transform_large",
    ),
    (
        "quantum.qjsd.us_per_call",
        "p50_ms/ops_per_s on fit_gram and serve_mixed; nothing on transform_large",
    ),
    ("engine.gram.build_ms", "p50_ms/ops_per_s on fit_gram"),
    (
        "engine.gram.parallel_efficiency",
        "p50_ms/ops_per_s on fit_gram",
    ),
    ("engine.gram.extend_ms", "append latency on serve_mixed"),
    (
        "engine.serve.server_ms.*",
        "the op's latency on the workloads that send it",
    ),
    (
        "engine.serve.transport_ms.*",
        "the op's latency on the workloads that send it",
    ),
    ("serving.stats_wait_ms", "stats latency on serve_mixed"),
    ("engine.cache.hit_ratio", "p50_ms (read) on serve_mixed"),
    ("linalg.batch.*", "p50_ms on fit_gram and serve_mixed"),
    ("engine.pool.jobs", "p50_ms on fit_gram"),
    ("engine.gram.tile_eval_ms", "p50_ms on fit_gram"),
    ("serving.rejected", "failed requests on every workload"),
    ("loadgen.probe_late_ms", "stats latency on serve_mixed"),
    (
        "obs.trace_overhead",
        "nothing: end-to-end runs have tracing off",
    ),
];

fn write_out(name: &str, text: &str) {
    let dir = std::path::Path::new(".bench_out");
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), text));
    if let Err(e) = written {
        eprintln!("servebench: cannot write .bench_out/{name}: {e}");
    }
}

// ---------------------------------------------------------------------------
// The two run modes
// ---------------------------------------------------------------------------

fn expectations(w: &Workload, reference: &mut Reference) -> Result<Vec<Expected>, String> {
    w.setup
        .iter()
        .chain(&w.timed)
        .map(|op| reference.expect(op))
        .collect()
}

fn end_to_end(args: &Args, w: &Workload) -> Result<(Tally, Vec<Metric>, Vec<Metric>), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut instance = None;
    for _ in 0..SETUPS {
        // The previous server is stopped before the next one starts.
        drop(instance.take());
        let s = start_instance(&args.server, w, false)?;
        setups.push(s.setup_s);
        instance = Some(s);
    }
    let mut instance = instance.expect("at least one set-up");
    let phase = run_phase(&mut instance, &w.timed, w.probe_hz)?;
    let rss = instance.server.peak_rss_mb()?;

    let mut reference = Reference::new(w);
    let expected = expectations(w, &mut reference)?;
    let mut tally = Tally::default();
    tally.replies(&expected, &instance, &phase);
    tally.post_checks(w, &mut reference, &mut instance)?;
    drop(instance);

    setups.sort_by(f64::total_cmp);
    let headline = phase.latencies(&w.timed, w.headline);
    let h = Summary::of(&headline);
    let ops_per_s = w.timed.len() as f64 / phase.wall_s;
    let metrics = vec![
        metric(
            "setup_s",
            quantile::median(&setups),
            "s",
            Some(setups.len()),
        ),
        metric("peak_rss_mb", rss, "MB", None),
        metric("ops_per_s", ops_per_s, "1/s", Some(w.timed.len())),
        metric("p50_ms", h.p50, "ms", Some(h.n)),
        metric("p90_ms", h.p90, "ms", Some(h.n)),
    ];

    // The detailed table, under the per-op names.
    let mut table = Vec::new();
    latency_rows(&format!("{}_", headline_name(w)), &headline, &mut table);
    for kind in Kind::ALL {
        let own = phase.latencies(&w.timed, &[kind]);
        if !own.is_empty() && w.headline != [kind] {
            latency_rows(&format!("{}_", kind.cmd()), &own, &mut table);
        }
    }
    latency_rows("stats_", &phase.probe(|p| p.latency_ms), &mut table);
    if w.name == "fit_gram" {
        let n = w.train as f64;
        table.push(metric(
            "gram_pairs_per_s",
            n * (n + 1.0) / 2.0 / (h.p50 / 1e3),
            "1/s",
            Some(h.n),
        ));
    }
    latency_rows("probe_late_", &phase.probe(|p| p.late_ms), &mut table);
    let sent = tally.attempted.max(1) as f64;
    table.push(metric(
        "failed_share",
        tally.failed as f64 / sent,
        "share",
        Some(tally.attempted),
    ));
    print_build(&phase);
    print_table("end-to-end metrics (tracing off)", &metrics);
    Ok((tally, metrics, table))
}

fn print_build(phase: &Phase) {
    let simd = phase
        .stats
        .get("build")
        .and_then(|b| b.get("simd_path"))
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    let threads = phase
        .stats
        .get("engine_threads")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# server: HAQJSK_THREADS={} engine_threads={threads} simd_path={simd} nproc={nproc}; cleared {:?}",
        load::SERVER_THREADS,
        load::CLEARED_ENV
    );
}

fn traced(args: &Args, w: &Workload) -> Result<(Tally, Vec<Metric>), String> {
    let mut untraced = start_instance(&args.server, w, false)?;
    let phase_u = run_phase(&mut untraced, &w.timed, w.probe_hz)?;
    let mut reference = Reference::new(w);
    let expected = expectations(w, &mut reference)?;
    let mut tally = Tally::default();
    tally.replies(&expected, &untraced, &phase_u);
    drop(untraced);

    let mut traced = start_instance(&args.server, w, true)?;
    let phase_t = run_phase(&mut traced, &w.timed, w.probe_hz)?;
    let dump = require_ok(&traced.conn.call(&bare_frame("trace_dump"))?)?;
    let server_spans = dump.get("jsonl").and_then(Json::as_str).unwrap_or("");
    tally.replies(&expected, &traced, &phase_t);
    tally.post_checks(w, &mut reference, &mut traced)?;
    drop(traced);

    // In-process layer timing on the workload's own inputs.
    let queries: Vec<usize> = w
        .setup
        .iter()
        .chain(&w.timed)
        .filter(|op| op.kind != Kind::Fit)
        .map(|op| op.graph)
        .take(6)
        .collect();
    let queries = if queries.is_empty() {
        (0..6).collect()
    } else {
        queries
    };
    let frames: Vec<&str> = w
        .timed
        .iter()
        .map(|op| op.frame.as_str())
        .take(20)
        .collect();
    let appended = w
        .setup
        .iter()
        .chain(&w.timed)
        .filter(|op| op.kind == Kind::Append);
    let (layer_rows, bench_spans) = layers::in_process(&LayerInputs {
        workload: w,
        variant: HaqjskVariant::AlignedAdjacency,
        frames,
        queries,
        served: (0..w.train).chain(appended.map(|op| op.graph)).collect(),
    })?;
    let row = |(name, value, unit): (&str, f64, &'static str)| metric(name, value, unit, None);
    let mut rows: Vec<Metric> = layer_rows.into_iter().map(row).collect();
    let stem = format!("{}-seed{}", w.name, args.seed);
    write_out(&format!("{stem}-bench-spans.jsonl"), &bench_spans);
    write_out(&format!("{stem}-server-spans.jsonl"), server_spans);

    // Registry differences across the untraced phase.
    let d = Delta {
        before: &phase_u.before,
        after: &phase_u.after,
    };
    for kind in Kind::ALL {
        let op = kind.cmd();
        let server = d.server_ms(op);
        let client: Vec<f64> = if kind == Kind::Stats {
            phase_u.probe(|p| p.service_ms)
        } else {
            phase_u.latencies(&w.timed, &[kind])
        };
        let transport = if client.is_empty() || d.served(op) == 0.0 {
            0.0
        } else {
            client.iter().sum::<f64>() / client.len() as f64 - server
        };
        rows.push(metric(
            format!("engine.serve.server_ms.{op}"),
            server,
            "ms",
            None,
        ));
        rows.push(metric(
            format!("engine.serve.transport_ms.{op}"),
            transport,
            "ms",
            None,
        ));
    }
    let idle = Delta {
        before: &phase_u.idle,
        after: &phase_u.before,
    };
    rows.push(row((
        "serving.stats_wait_ms",
        d.server_ms("stats") - idle.server_ms("stats"),
        "ms",
    )));
    let [(h0, m0), (h1, m1)] = phase_u.cache;
    let lookups = (h1 - h0) + (m1 - m0);
    rows.push(row((
        "engine.cache.hit_ratio",
        if lookups > 0.0 {
            (h1 - h0) / lookups
        } else {
            0.0
        },
        "ratio",
    )));
    rows.extend(d.layer_metrics().into_iter().map(row));
    let late = phase_u.probe(|p| p.late_ms);
    let late_p90 = if late.is_empty() {
        0.0
    } else {
        Summary::of(&late).p90
    };
    rows.push(row(("loadgen.probe_late_ms", late_p90, "ms")));
    let p50 = |phase: &Phase| Summary::of(&phase.latencies(&w.timed, w.headline)).p50;
    rows.push(row((
        "obs.trace_overhead",
        p50(&phase_t) / p50(&phase_u),
        "ratio",
    )));

    print_build(&phase_u);
    println!("# per-layer metric -> the end-to-end metric it should move");
    for (name, moves) in MOVES {
        println!("#   {name:<34} -> {moves}");
    }
    print_table("per-layer metrics (traced run)", &rows);
    Ok((tally, rows))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    // The in-process reference uses the same engine shape as the server.
    std::env::set_var("HAQJSK_THREADS", load::SERVER_THREADS);
    std::env::remove_var("HAQJSK_TRACE");
    for name in load::CLEARED_ENV {
        std::env::remove_var(name);
    }
    if !args.server.is_file() {
        return Err(format!(
            "no server binary at {} (run servebench/run.sh, or pass --server)",
            args.server.display()
        ));
    }
    let nominal = (ops_per_second(&args.workload) * args.seconds as f64).ceil() as usize;
    let ops = if args.trace {
        nominal.div_ceil(2)
    } else {
        nominal
    };
    let w = Workload::build(&args.workload, args.seed, ops)?;
    println!(
        "# servebench workload={} seed={} trace={} timed_ops={} probe_hz={:?}",
        w.name,
        args.seed,
        u8::from(args.trace),
        w.timed.len(),
        w.probe_hz
    );
    let (tally, metrics) = if args.trace {
        traced(&args, &w)?
    } else {
        let (tally, metrics, table) = end_to_end(&args, &w)?;
        print_table("detail (per-op names)", &table);
        (tally, metrics)
    };
    for m in tally.mismatches.iter().take(5) {
        eprintln!("servebench: MISMATCH {m}");
    }
    let correct = tally.mismatches.is_empty();
    println!("{}", result_line(correct, &tally, &metrics));
    Ok(correct)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    }
}
