//! The `serve_interop` and `serve_churn` workloads: an open loop of
//! jobs into an `EngineServer` with one worker, driven from this
//! process's main thread.
//!
//! A run repeats one cycle until its time is up: an open-loop phase at
//! the workload's fixed arrival rate, a saturation phase that keeps a
//! backlog queued and counts completions, and forty cold starts of the
//! served module set (compile is set-up on these workloads). Each phase
//! yields its own figures and the run reports the figure of the quietest
//! quarter of cycles (see [`crate::stats::quiet_time`]).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use richwasm_fuzz::Rng;
use richwasm_repro::{
    Artifact, Engine, EngineServer, InstancePool, JobOutcome, JobTicket, ServerConfig, TenantConfig,
};

use crate::layers::{
    cold_start, drive_pool, matches, mean_us, print_first_result_accounting, push_compile_layers,
    replay_static, Totals,
};
use crate::programs::{churn_set, interop_set, production_config, Call, Served};
use crate::stats::{median, ms, peak_rss_mb, quantile, quiet_rate, quiet_time, us};
use crate::trace::Tracer;
use crate::{Options, Report, Workload};

const TENANT: &str = "load";
/// Deep enough that no job is shed at the fixed rates or while the
/// saturation phase keeps its backlog.
const QUEUE_DEPTH: usize = 4096;
/// Jobs kept queued during a saturation phase: several milliseconds of
/// work even at the fastest job, so the generator refills once a
/// millisecond instead of waking thousands of times a second.
const BACKLOG: usize = 256;
const SETUPS: usize = 5;

/// A workload's fixed shape. Rates are absolute and stored here, never
/// calibrated per run, so a faster engine shows as lower latency (and a
/// higher saturated rate), not as a different offered load.
struct Shape {
    /// Open-loop arrivals per second.
    rate: f64,
    open: Duration,
    saturate: Duration,
    /// Cold starts of the served set per cycle.
    cold: usize,
}

fn shape(w: Workload, tiny: bool) -> Shape {
    let (rate, open, saturate, cold) = match w {
        Workload::ServeInterop => (6_000.0, 0.6, 0.3, 40),
        _ => (500.0, 0.6, 0.3, 40),
    };
    let scale = if tiny { 0.05 } else { 1.0 };
    Shape {
        rate,
        open: Duration::from_secs_f64(open * scale),
        saturate: Duration::from_secs_f64(saturate * scale),
        cold: if tiny { 4 } else { cold },
    }
}

fn build(w: Workload, seed: u64, tiny: bool) -> Result<Served, String> {
    match w {
        Workload::ServeInterop => interop_set(seed, 8),
        _ if tiny => churn_set(seed, 4, 200, 400),
        _ => churn_set(seed, 6, 2500, 3500),
    }
}

pub fn start_server(artifact: &Artifact) -> Result<EngineServer, String> {
    EngineServer::start(
        artifact,
        ServerConfig::new()
            .workers(1)
            .tenant(TENANT, TenantConfig::new().queue_depth(QUEUE_DEPTH)),
    )
    .map_err(|e| format!("server start: {e}"))
}

struct Pending {
    due: Instant,
    sent: Instant,
    ticket: JobTicket,
    call: usize,
}

/// Figures from one open-loop phase.
#[derive(Default)]
pub struct OpenPhase {
    /// Latency from when each job was due, microseconds.
    pub lat_us: Vec<f64>,
    /// How late the generator sent each job, microseconds.
    pub late_us: Vec<f64>,
    pub queue_us: Vec<f64>,
    pub service_us: Vec<f64>,
}

fn settle(
    p: &Pending,
    outcome: &JobOutcome,
    calls: &[Call],
    phase: &mut OpenPhase,
    report: &mut Report,
) {
    report.check(matches(&outcome.result, &calls[p.call]));
    phase
        .lat_us
        .push(us(p.sent - p.due) + us(outcome.timing.total()));
    phase.queue_us.push(us(outcome.timing.queued));
    phase.service_us.push(us(outcome.timing.service));
}

/// Settles finished jobs from the front of `pending` (one worker
/// finishes them in order); with `all`, waits for every one.
fn harvest(
    pending: &mut VecDeque<Pending>,
    calls: &[Call],
    phase: &mut OpenPhase,
    report: &mut Report,
    all: bool,
) {
    while let Some(front) = pending.front() {
        let outcome = if all {
            front.ticket.wait()
        } else {
            match front.ticket.poll() {
                Some(o) => o,
                None => return,
            }
        };
        let p = pending.pop_front().expect("front exists");
        settle(&p, &outcome, calls, phase, report);
    }
}

fn submit(
    server: &EngineServer,
    calls: &[Call],
    k: usize,
    due: Instant,
    pending: &mut VecDeque<Pending>,
    report: &mut Report,
) -> Instant {
    let sent = Instant::now();
    match server.submit(TENANT, calls[k].job.clone()) {
        Ok(ticket) => pending.push_back(Pending {
            due,
            sent,
            ticket,
            call: k,
        }),
        // A shed job is a failed operation.
        Err(_) => report.check(false),
    }
    sent
}

/// Sends jobs at `rate` per second for `dur`, each due at a seeded
/// arrival time (inter-arrival gaps uniform in 0.5–1.5× the mean), and
/// settles them all.
pub fn open_loop(
    server: &EngineServer,
    calls: &[Call],
    rng: &mut Rng,
    rate: f64,
    dur: Duration,
    report: &mut Report,
) -> OpenPhase {
    let mean_ns = 1e9 / rate;
    let mut phase = OpenPhase::default();
    let mut pending = VecDeque::new();
    let start = Instant::now();
    let end = start + dur;
    let mut due = start;
    while due < end {
        // Sleep through long gaps, then yield until the job is due. A
        // sleep that ends at the due time wakes a halted vCPU, which a
        // loaded host can delay by milliseconds; yielding (not spinning)
        // still gives the worker the CPU if both threads share one.
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if due - now > Duration::from_micros(400) {
                harvest(&mut pending, calls, &mut phase, report, false);
                std::thread::sleep(due - now - Duration::from_micros(300));
            } else {
                std::thread::yield_now();
            }
        }
        let k = rng.below(calls.len() as u64) as usize;
        let sent = submit(server, calls, k, due, &mut pending, report);
        phase.late_us.push(us(sent - due));
        harvest(&mut pending, calls, &mut phase, report, false);
        let gap = mean_ns * (0.5 + rng.below(1 << 20) as f64 / f64::from(1 << 20));
        due += Duration::from_nanos(gap as u64);
    }
    harvest(&mut pending, calls, &mut phase, report, true);
    phase
}

/// Keeps `BACKLOG` jobs queued for `dur` and returns completions per
/// second over that window.
pub fn saturate(
    server: &EngineServer,
    calls: &[Call],
    rng: &mut Rng,
    dur: Duration,
    report: &mut Report,
) -> f64 {
    let mut phase = OpenPhase::default();
    let mut pending = VecDeque::new();
    let refill = |pending: &mut VecDeque<Pending>, rng: &mut Rng, report: &mut Report| {
        while pending.len() < BACKLOG {
            let k = rng.below(calls.len() as u64) as usize;
            submit(server, calls, k, Instant::now(), pending, report);
        }
    };
    refill(&mut pending, rng, report);
    let c0 = server.stats().completed;
    let t0 = Instant::now();
    while t0.elapsed() < dur {
        std::thread::sleep(Duration::from_millis(1));
        harvest(&mut pending, calls, &mut phase, report, false);
        refill(&mut pending, rng, report);
    }
    let rate = (server.stats().completed - c0) as f64 / t0.elapsed().as_secs_f64();
    harvest(&mut pending, calls, &mut phase, report, true);
    rate
}

/// Makes this thread's sleeps end on time: with the default 50 µs timer
/// slack, a sleep could overrun the 300 µs it leaves before a due time.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: `prctl(PR_SET_TIMERSLACK, n)` reads one unsigned long by
    // value and only sets the calling thread's timer slack; no pointer
    // crosses the call. A failure leaves the default slack, which only
    // makes arrivals later (and `loadgen.late_p90_us` shows it).
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

pub fn run(opts: &Options) -> Result<Report, String> {
    tighten_timer_slack();
    let mut report = Report::default();
    let shape = shape(opts.workload, opts.tiny);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up's server (joining its worker) first.
        drop(state.take());
        let t0 = Instant::now();
        let served = build(opts.workload, opts.seed, opts.tiny)?;
        let engine = Engine::with_config(production_config());
        let artifact = engine
            .compile(&served.program.set)
            .map_err(|e| format!("compile: {e}"))?;
        let server = start_server(&artifact)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some((served, engine, server));
    }
    let (served, engine, server) = state.expect("at least one set-up");
    let wasm_bytes: usize = server
        .artifact()
        .wasm_binaries()
        .iter()
        .map(|(_, b)| b.len())
        .sum();
    println!(
        "{}: {} job kinds, rate {} jobs/s, seed {}",
        opts.workload.name(),
        served.calls.len(),
        shape.rate,
        opts.seed
    );
    let mut rng = Rng::from_seed(opts.seed ^ 0x09E7);
    if opts.trace {
        return traced(opts, &shape, &served, &engine, server, &mut rng, report);
    }

    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let (mut p50, mut p90, mut sat) = (Vec::new(), Vec::new(), Vec::new());
    let (mut pooled, mut late) = (Vec::new(), Vec::new());
    let (mut compile_rate, mut first50, mut first90) = (Vec::new(), Vec::new(), Vec::new());
    while p50.is_empty() || start.elapsed() < budget {
        let mut phase = open_loop(
            &server,
            &served.calls,
            &mut rng,
            shape.rate,
            shape.open,
            &mut report,
        );
        p50.push(quantile(&mut phase.lat_us, 0.5));
        p90.push(quantile(&mut phase.lat_us, 0.9));
        pooled.extend(phase.lat_us);
        late.extend(phase.late_us);
        sat.push(saturate(
            &server,
            &served.calls,
            &mut rng,
            shape.saturate,
            &mut report,
        ));
        let (mut compile_ms, mut first_ms) = (Vec::new(), Vec::new());
        for _ in 0..shape.cold {
            engine.clear_cache();
            let cs = cold_start(&engine, &served.program, None);
            report.check(cs.ok);
            compile_ms.push(ms(cs.compile));
            first_ms.push(ms(cs.first_result));
        }
        compile_rate.push(1e3 / median(&mut compile_ms));
        first50.push(quantile(&mut first_ms, 0.5));
        first90.push(quantile(&mut first_ms, 0.9));
    }
    let stats = server.stats();
    drop(server);
    for (name, xs) in [
        ("serve_p50_us", &mut p50),
        ("serve_p90_us", &mut p90),
        ("serve_jobs_per_s", &mut sat),
    ] {
        println!(
            "{}: per-phase {name}: min {:.1} q1 {:.1} median {:.1} q3 {:.1} max {:.1}",
            opts.workload.name(),
            quantile(xs, 0.0),
            quantile(xs, 0.25),
            quantile(xs, 0.5),
            quantile(xs, 0.75),
            quantile(xs, 1.0)
        );
    }
    let n = pooled.len();
    println!(
        "{}: {} cycles, {n} open-loop jobs; serve p99 {:.1} us ({} beyond); \
         generator late p90 {:.1} us; {} shed",
        opts.workload.name(),
        p50.len(),
        quantile(&mut pooled, 0.99),
        n / 100,
        quantile(&mut late, 0.9),
        stats.shed
    );
    report.push("setup_s", median(&mut setup_s), "s");
    report.push("peak_rss_mb", peak_rss_mb(), "MiB");
    report.push("wasm_bytes", wasm_bytes as f64, "bytes");
    report.push("compile_per_s", quiet_rate(&mut compile_rate), "1/s");
    report.push("first_result_p50_ms", quiet_time(&mut first50), "ms");
    report.push("first_result_p90_ms", quiet_time(&mut first90), "ms");
    report.push("serve_p50_us", quiet_time(&mut p50), "us");
    report.push("serve_p90_us", quiet_time(&mut p90), "us");
    report.push("serve_jobs_per_s", quiet_rate(&mut sat), "1/s");
    Ok(report)
}

/// The server and pool layers, driven from a traced run: a long-lived
/// server for open-loop phases and a one-instance pool of the same
/// artifact for jobs driven call by call.
pub struct ServeLayers {
    server: EngineServer,
    pool: InstancePool,
    open: OpenPhase,
    direct_untraced: Duration,
    direct_traced: Duration,
    direct_jobs: u64,
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

impl ServeLayers {
    pub fn new(server: EngineServer) -> Result<ServeLayers, String> {
        let pool = server
            .artifact()
            .pool(1)
            .map_err(|e| format!("pool: {e}"))?;
        Ok(ServeLayers {
            server,
            pool,
            open: OpenPhase::default(),
            direct_untraced: Duration::ZERO,
            direct_traced: Duration::ZERO,
            direct_jobs: 0,
        })
    }

    /// One open-loop phase on the server (its `JobTiming`s give the
    /// server layers), then as many jobs driven through the pool in
    /// alternating untraced and traced batches (the pool layers and the
    /// tracing overhead).
    #[allow(clippy::too_many_arguments)]
    pub fn cycle(
        &mut self,
        calls: &[Call],
        rng: &mut Rng,
        rate: f64,
        dur: Duration,
        tr: &mut Tracer,
        req0: u64,
        report: &mut Report,
    ) {
        let phase = open_loop(&self.server, calls, rng, rate, dur, report);
        let jobs = phase.lat_us.len().max(8);
        self.open.queue_us.extend(phase.queue_us);
        self.open.service_us.extend(phase.service_us);
        self.open.late_us.extend(phase.late_us);
        let batch = 64.min(jobs);
        let mut done = 0;
        while done < jobs {
            let order: Vec<usize> = (0..batch)
                .map(|_| rng.below(calls.len() as u64) as usize)
                .collect();
            let (d, failed) = drive_pool(&self.pool, calls, &order, None);
            self.direct_untraced += d;
            let req = req0 + done as u64;
            let (dt, failed_t) = drive_pool(&self.pool, calls, &order, Some((tr, req)));
            self.direct_traced += dt;
            report.attempted += 2 * batch as u64;
            report.failed += failed + failed_t;
            self.direct_jobs += batch as u64;
            done += batch;
        }
    }

    /// Pushes the pool, server and load-generator layer metrics.
    pub fn push_pool_layers(mut self, report: &mut Report, totals: &Totals) {
        let shed = self.server.stats().shed;
        let blocked_waits =
            self.server.pool_stats().blocked_waits + self.pool.stats().blocked_waits;
        report.push("engine.reset_us", mean_us(totals, "engine.reset"), "us");
        report.push(
            "engine.checkout_us",
            mean_us(totals, "engine.checkout"),
            "us",
        );
        report.push("engine.invoke_us", mean_us(totals, "engine.invoke"), "us");
        report.push("server.queue_wait_us", mean(&self.open.queue_us), "us");
        report.push("server.service_us", mean(&self.open.service_us), "us");
        report.push("server.shed", shed as f64, "count");
        report.push("pool.blocked_waits", blocked_waits as f64, "count");
        report.push(
            "loadgen.late_p90_us",
            quantile(&mut self.open.late_us, 0.9),
            "us",
        );
    }

    /// Prints how a served job's time splits over the layers, and the
    /// tracing overhead on directly driven jobs.
    pub fn print_accounting(&self, label: &str, tr: &Tracer) {
        let under = tr.totals_under("job");
        let job = tr.totals().get("job").copied().unwrap_or_default();
        let per_job = |ns: u64| ns as f64 / 1e3 / job.count.max(1) as f64;
        let (late, queue, service) = (
            mean(&self.open.late_us),
            mean(&self.open.queue_us),
            mean(&self.open.service_us),
        );
        println!(
            "{label}: open-loop job = generator late {late:.2} + queue wait {queue:.2} \
             + service {service:.2} us (means)"
        );
        println!(
            "{label}: directly driven job, per job over {} jobs:",
            job.count
        );
        for name in ["engine.checkout", "engine.invoke", "engine.reset"] {
            let v = per_job(under.get(name).copied().unwrap_or_default().total);
            println!("  {name:<20} {v:>10.3} us");
        }
        println!(
            "  {:<20} {:>10.3} us",
            "unattributed",
            per_job(job.self_time)
        );
        let direct = per_job(job.total);
        println!(
            "  server's own share: service {service:.3} us - direct job {direct:.3} us = {:.3} us",
            service - direct
        );
        println!(
            "{label}: tracing overhead on direct jobs: traced {:.3} us vs untraced {:.3} us per job",
            self.traced_us(),
            self.untraced_us()
        );
    }

    fn untraced_us(&self) -> f64 {
        us(self.direct_untraced) / self.direct_jobs.max(1) as f64
    }

    fn traced_us(&self) -> f64 {
        us(self.direct_traced) / self.direct_jobs.max(1) as f64
    }

    /// Traced over untraced direct-job time, minus one.
    pub fn overhead_share(&self) -> f64 {
        self.traced_us() / self.untraced_us() - 1.0
    }

    /// Unattributed share of a directly driven job.
    pub fn unattributed_share(totals: &Totals) -> f64 {
        let job = totals.get("job").copied().unwrap_or_default();
        job.self_time as f64 / job.total.max(1) as f64
    }
}

fn traced(
    opts: &Options,
    shape: &Shape,
    served: &Served,
    engine: &Engine,
    server: EngineServer,
    rng: &mut Rng,
    mut report: Report,
) -> Result<Report, String> {
    let label = opts.workload.name();
    let mut tr = Tracer::default();
    let mut acc = ServeLayers::new(server)?;
    let mut counts = None;
    let mut cycle = 0u64;
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    while cycle == 0 || start.elapsed() < budget {
        let req = cycle * 1_000_000;
        engine.clear_cache();
        let cs = cold_start(engine, &served.program, Some((&mut tr, req)));
        report.check(cs.ok);
        let c = replay_static(&mut tr, req, &served.program.source)?;
        counts.get_or_insert(c);
        acc.cycle(
            &served.calls,
            rng,
            shape.rate,
            shape.open,
            &mut tr,
            req + 1,
            &mut report,
        );
        cycle += 1;
    }
    let counts = counts.expect("at least one cycle");
    let path = opts
        .trace_dir
        .join(format!("{label}-seed{}.tsv", opts.seed));
    tr.write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "{label}: {} spans written to {}",
        tr.spans().len(),
        path.display()
    );
    let totals = tr.totals();

    print_first_result_accounting(label, &tr, &totals);
    acc.print_accounting(label, &tr);
    push_compile_layers(
        &mut report,
        &totals,
        engine.cache_stats().hit_rate(),
        counts,
    );
    report.push(
        "trace.unattributed_share",
        ServeLayers::unattributed_share(&totals),
        "ratio",
    );
    report.push("trace.overhead_share", acc.overhead_share(), "ratio");
    acc.push_pool_layers(&mut report, &totals);
    Ok(report)
}
