//! The serving workload: `serve_journaled`.
//!
//! A child `fairschedd --manual --journal-dir` with its default workers
//! and queue; two keep-alive clients in a closed loop without think time.
//! The writer submits a `CplantModel` prefix and grants time every
//! [`ADVANCE_EVERY`] submits; the reader cycles status, fairness, explain
//! and `/metrics`, two reads per acknowledged submit. Then the daemon is
//! SIGKILLed, restarted with `--recover` and sealed, and an in-process
//! `Session` fed the same requests must seal to the same schedule.

use crate::layers::{drive, nanos, report_core_layers, Round};
use crate::stats::{littles_law, median, percentile, quartiles, tail, Tail};
use crate::{procfs, Args, Report, SetupTimes, NODES, SETUP_PER_ROUND, SETUP_UPFRONT};
use fairsched_core::PolicySpec;
use fairsched_metrics::fairness::stream::StreamingFairness;
use fairsched_obs::registry::{parse_exposition, quantile_from_buckets, Sample};
use fairsched_served::api::schedule_fingerprint;
use fairsched_served::journal::{self, journal_path, JournalEvent};
use fairsched_served::{
    Client, ClockMode, Session, SessionConfig, SessionJournal, StatusResponse, SubmitRequest,
};
use fairsched_sim::SimEvent;
use fairsched_workload::CplantModel;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

type Result<T> = std::result::Result<T, String>;

/// The writer grants simulated time after every this many submits.
const ADVANCE_EVERY: usize = 10;

/// Submits a run always makes: enough that ten lie beyond the p95.
const MIN_SUBMITS: usize = 200;

/// Reads the reader may issue per acknowledged submit. A read costs
/// about half a submit's round trip, so two keep the reader about as busy
/// as the writer.
const READS_PER_SUBMIT: u64 = 2;

/// Clients in the closed loop: Little's law expects this many requests
/// in the system.
const CLIENTS: f64 = 2.0;

/// Share of [`CLIENTS`] by which `X·R` may miss it.
const LITTLE_TOLERANCE: f64 = 0.10;

/// Kill-and-recover cycles per run; `recover_s` is their median.
const RECOVERIES: usize = 3;

/// How long both connections sit idle while daemon CPU is sampled.
const IDLE_WINDOW: Duration = Duration::from_secs(1);

/// Socket timeout of every request; a request this slow fails the run.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a starting daemon may take to answer its first status.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// The routes the reader cycles through, as `/metrics` labels them.
const READ_ROUTES: [&str; 4] = ["/v1/status", "/v1/fairness", "/v1/explain/{id}", "/metrics"];

/// The daemon's session: `fairschedd` defaults with a manual clock.
fn session_config() -> SessionConfig {
    SessionConfig {
        clock: ClockMode::Manual,
        ..SessionConfig::default()
    }
}

/// A running `fairschedd`; killed (SIGKILL) and reaped on drop.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    pid: String,
}

impl Daemon {
    /// Starts the daemon on an OS-assigned port and waits for its first
    /// successful status. Returns it, the seconds from spawn to that
    /// status, and the status.
    fn start(args: &Args, tag: &str, recover: bool) -> Result<(Daemon, f64, StatusResponse)> {
        let port_file = args.scratch.join(format!("port-{tag}"));
        let mut cmd = Command::new(&args.daemon);
        cmd.args(["--port", "0", "--manual", "--journal-dir"])
            .arg(args.scratch.join("journal"))
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if recover {
            cmd.arg("--recover");
        }
        let started = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", args.daemon.display()))?;
        let pid = child.id().to_string();
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            pid,
        };
        loop {
            let written = std::fs::read_to_string(&port_file).unwrap_or_default();
            // The port file is complete once its newline is there.
            if let Some(port) = written
                .strip_suffix('\n')
                .and_then(|p| p.parse::<u16>().ok())
            {
                daemon.addr = SocketAddr::from(([127, 0, 0, 1], port));
                break;
            }
            daemon.wait_a_moment(started)?;
        }
        let client = daemon.client();
        loop {
            if let Ok(status) = client.status() {
                return Ok((daemon, started.elapsed().as_secs_f64(), status));
            }
            daemon.wait_a_moment(started)?;
        }
    }

    fn client(&self) -> Client {
        Client::new(self.addr).with_timeout(REQUEST_TIMEOUT)
    }

    fn wait_a_moment(&mut self, started: Instant) -> Result<()> {
        if let Ok(Some(code)) = self.child.try_wait() {
            return Err(format!("fairschedd exited during start-up: {code}"));
        }
        if started.elapsed() > READY_TIMEOUT {
            return Err("fairschedd did not become ready".into());
        }
        std::thread::sleep(Duration::from_millis(1));
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One acknowledged write, in the order the daemon applied it.
enum Step {
    Submit(SubmitRequest),
    Advance(u64),
}

/// What the writer saw.
#[derive(Default)]
struct Writer {
    submit_ms: Vec<f64>,
    advance_ms: Vec<f64>,
    script: Vec<Step>,
    failures: Vec<String>,
}

/// What the reader saw.
#[derive(Default)]
struct Reader {
    read_ms: Vec<f64>,
    failures: Vec<String>,
}

/// Shared between the two client threads.
struct Loop {
    acked: AtomicU64,
    last_acked: AtomicU32,
    done: AtomicBool,
    gate: Mutex<()>,
    wake: Condvar,
}

impl Loop {
    fn notify(&self) {
        let _guard = self.gate.lock().expect("gate mutex poisoned");
        self.wake.notify_all();
    }
}

/// Ends the read loop when the writer returns or unwinds.
struct WriterDone<'a>(&'a Loop);

impl Drop for WriterDone<'_> {
    fn drop(&mut self) {
        self.0.done.store(true, Ordering::SeqCst);
        // A poisoned gate only means a reader panicked; wake the rest.
        let _guard = self.0.gate.lock().unwrap_or_else(|e| e.into_inner());
        self.0.wake.notify_all();
    }
}

fn ms_since(t: Instant) -> f64 {
    nanos(t) as f64 / 1e6
}

fn write_loop(
    client: &Client,
    jobs: &[fairsched_workload::job::Job],
    args: &Args,
    shared: &Loop,
    window: Instant,
) -> Writer {
    let _done = WriterDone(shared);
    let mut w = Writer::default();
    for (i, job) in jobs.iter().enumerate() {
        // Any failure fails the run: stop at the first one.
        if !w.failures.is_empty() || (i >= MIN_SUBMITS && window.elapsed() >= args.seconds) {
            break;
        }
        let req = SubmitRequest::from_job(job);
        let t = Instant::now();
        match client.submit(&req) {
            Ok(_) => {
                w.submit_ms.push(ms_since(t));
                shared.last_acked.store(req.id, Ordering::SeqCst);
                w.script.push(Step::Submit(req));
                shared.acked.fetch_add(1, Ordering::SeqCst);
                shared.notify();
            }
            Err(e) => w.failures.push(format!("submit {}: {e}", req.id)),
        }
        if (i + 1) % ADVANCE_EVERY == 0 {
            let t = Instant::now();
            match client.advance(job.submit) {
                Ok(_) => {
                    w.advance_ms.push(ms_since(t));
                    w.script.push(Step::Advance(job.submit));
                }
                Err(e) => w.failures.push(format!("advance to {}: {e}", job.submit)),
            }
        }
    }
    w
}

fn read_loop(client: &Client, shared: &Loop) -> Reader {
    let mut r = Reader::default();
    for k in 0u64.. {
        {
            let mut guard = shared.gate.lock().expect("gate mutex poisoned");
            while !shared.done.load(Ordering::SeqCst)
                && k >= READS_PER_SUBMIT * shared.acked.load(Ordering::SeqCst)
            {
                guard = shared.wake.wait(guard).expect("gate mutex poisoned");
            }
        }
        if shared.done.load(Ordering::SeqCst) || !r.failures.is_empty() {
            break;
        }
        let t = Instant::now();
        let outcome = match k % 4 {
            0 => client.status().map(drop),
            1 => client.fairness().map(drop),
            2 => client
                .explain(shared.last_acked.load(Ordering::SeqCst))
                .map(drop),
            _ => client.metrics_text().map(drop),
        };
        match outcome {
            Ok(()) => r.read_ms.push(ms_since(t)),
            Err(e) => r
                .failures
                .push(format!("read {}: {e}", READ_ROUTES[(k % 4) as usize])),
        }
    }
    r
}

/// The p50 in microseconds of the daemon's request-duration histogram,
/// merged over `routes`.
fn route_p50_us(samples: &[Sample], routes: &[&str]) -> Option<f64> {
    let per_route: Vec<Vec<(f64, u64)>> = routes
        .iter()
        .map(|&route| {
            let mut buckets: Vec<(f64, u64)> = samples
                .iter()
                .filter(|s| {
                    s.name == "fairschedd_http_request_duration_ns_bucket"
                        && s.label("route") == Some(route)
                })
                .filter_map(|s| Some((s.label("le")?.parse::<f64>().ok()?, s.value as u64)))
                .collect();
            buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
            buckets
        })
        .collect();
    let mut bounds: Vec<f64> = per_route.iter().flatten().map(|b| b.0).collect();
    bounds.sort_by(f64::total_cmp);
    bounds.dedup();
    // Buckets above a route's highest occupied one are elided, so a
    // route's cumulative count at any bound is its last one at or below it.
    let merged: Vec<(f64, u64)> = bounds
        .iter()
        .map(|&le| {
            let count = per_route
                .iter()
                .map(|b| b.iter().take_while(|x| x.0 <= le).last().map_or(0, |x| x.1))
                .sum();
            (le, count)
        })
        .collect();
    (merged.last()?.1 > 0).then(|| quantile_from_buckets(&merged, 0.5) / 1e3)
}

fn counter(samples: &[Sample], name: &str) -> Option<f64> {
    samples.iter().find(|s| s.name == name).map(|s| s.value)
}

fn print_latency(name: &str, ms: &[f64]) {
    let [q1, q2, q3] = quartiles(ms).unwrap_or_default();
    println!(
        "{name}_p50_ms = {q2} ms ({} samples; quartiles {q1:.3} / {q3:.3} ms)",
        ms.len()
    );
    match tail(ms) {
        Some(Tail {
            pct,
            value,
            samples,
        }) => {
            println!("{name}_p{pct}_ms = {value} ms ({samples} samples, the highest percentile with >= 10 beyond)")
        }
        None => println!(
            "{name}: too few samples ({}) for a tail percentile",
            ms.len()
        ),
    }
}

/// `serve_journaled`; see the module docs.
pub fn serve_journaled(args: &Args, report: &mut Report) -> Result<()> {
    let mut setup = SetupTimes::default();
    let jobs = setup
        .repeat(SETUP_UPFRONT, || CplantModel::new(args.seed).generate())
        .expect("SETUP_UPFRONT is positive");
    let cfg = session_config();
    println!(
        "serve_journaled: seed {} policy {} on {} nodes, writer + reader keep-alive clients, \
         advance every {ADVANCE_EVERY} submits, {READS_PER_SUBMIT} reads per submit",
        args.seed, cfg.policy, cfg.nodes
    );

    let (daemon, start_s, _) = Daemon::start(args, "first", false)?;
    report.note("daemon_start_s", start_s, "s");
    let (writer_client, reader_client) = (daemon.client(), daemon.client());
    let shared = Loop {
        acked: AtomicU64::new(0),
        last_acked: AtomicU32::new(0),
        done: AtomicBool::new(false),
        gate: Mutex::new(()),
        wake: Condvar::new(),
    };
    let cpu_before = procfs::cpu_ms(&daemon.pid);
    let window = Instant::now();
    let (w, r) = std::thread::scope(|s| {
        let w = s.spawn(|| write_loop(&writer_client, &jobs, args, &shared, window));
        let r = s.spawn(|| read_loop(&reader_client, &shared));
        (w.join(), r.join())
    });
    let window_s = window.elapsed().as_secs_f64();
    setup.repeat(SETUP_PER_ROUND, || CplantModel::new(args.seed).generate());
    let cpu_ms = procfs::cpu_ms(&daemon.pid)
        .zip(cpu_before)
        .map_or(0.0, |(b, a)| b - a);
    let (w, r) = (
        w.map_err(|_| "writer panicked")?,
        r.map_err(|_| "reader panicked")?,
    );
    for failure in w.failures.iter().chain(&r.failures) {
        report.check(false, || failure.clone());
    }
    let requests = w.submit_ms.len() + w.advance_ms.len() + r.read_ms.len();
    report.succeeded(requests as u64);
    let all_ms: Vec<f64> = [&w.submit_ms, &w.advance_ms, &r.read_ms]
        .into_iter()
        .flatten()
        .copied()
        .collect();
    let per_s = requests as f64 / window_s;
    let mean_s = all_ms.iter().sum::<f64>() / all_ms.len().max(1) as f64 / 1e3;
    let little = littles_law(CLIENTS, per_s, mean_s, LITTLE_TOLERANCE);
    println!(
        "little's law: X = {per_s:.3} req/s, R = {:.3} ms, X*R = {:.3} vs N = {CLIENTS} clients \
         ({:.1} % off, tolerance {:.0} %)",
        mean_s * 1e3,
        little.in_system,
        100.0 * little.deviation,
        100.0 * LITTLE_TOLERANCE
    );
    print_latency("submit", &w.submit_ms);
    print_latency("read", &r.read_ms);
    report.note("advance_p50_ms", median(&w.advance_ms).unwrap_or(0.0), "ms");
    report.note("req_per_s", per_s, "1/s");
    let cpu_per_req = cpu_ms / requests.max(1) as f64;
    report.note("daemon_cpu_ms_per_req", cpu_per_req, "ms");

    let acked: Vec<&SubmitRequest> = w
        .script
        .iter()
        .filter_map(|s| match s {
            Step::Submit(req) => Some(req),
            Step::Advance(_) => None,
        })
        .collect();
    if args.trace {
        report.check(little.holds, || {
            format!(
                "Little's law: X*R = {:.3} for {CLIENTS} clients",
                little.in_system
            )
        });
        let text = reader_client
            .metrics_text()
            .map_err(|e| format!("/metrics: {e}"))?;
        let samples = parse_exposition(&text)?;
        let jobs_us = route_p50_us(&samples, &["/v1/jobs"]).unwrap_or(0.0);
        report.metric("served.route_us_p50.jobs", jobs_us);
        report.metric(
            "served.route_us_p50.reads",
            route_p50_us(&samples, &READ_ROUTES).unwrap_or(0.0),
        );
        report.metric(
            "served.wire_ms_p50",
            median(&w.submit_ms).unwrap_or(0.0) - jobs_us / 1e3,
        );
        let batches = counter(&samples, "served_journal_batches").unwrap_or(0.0);
        report.metric(
            "served.submits_per_batch",
            acked.len() as f64 / batches.max(1.0),
        );
        let idle_before = procfs::cpu_ms(&daemon.pid);
        std::thread::sleep(IDLE_WINDOW);
        let idle_ms = procfs::cpu_ms(&daemon.pid)
            .zip(idle_before)
            .map_or(0.0, |(b, a)| b - a);
        report.metric(
            "daemon.idle_cpu_pct",
            100.0 * idle_ms / IDLE_WINDOW.as_millis() as f64,
        );
    } else {
        report.metric("setup_s", setup.median_s());
        report.metric("work_per_s", per_s);
        report.metric(
            "peak_rss_mb",
            procfs::peak_rss_mb(&daemon.pid).ok_or("daemon VmHWM unreadable")?,
        );
    }
    drop((writer_client, reader_client));
    drop(daemon); // SIGKILL

    // Every acknowledged submission must be in the journal.
    let t = Instant::now();
    let recovered = journal::replay(&journal_path(&args.scratch.join("journal"), "default"))
        .map_err(|e| format!("journal replay: {e}"))?
        .ok_or("the journal has no header")?;
    let replay_ms = ms_since(t);
    let journaled: HashSet<u32> = recovered
        .events
        .iter()
        .filter_map(|e| match e {
            JournalEvent::Submit(req) => Some(req.id),
            _ => None,
        })
        .collect();
    let lost = acked
        .iter()
        .filter(|req| !journaled.contains(&req.id))
        .count();
    report.check(lost == 0, || {
        format!("{lost} acknowledged submissions missing from the journal")
    });

    let mut recover_s = Vec::new();
    let mut sealed = None;
    for cycle in 0..RECOVERIES {
        let (daemon, ready_s, status) = Daemon::start(args, &format!("recover-{cycle}"), true)?;
        recover_s.push(ready_s);
        report.check(status.accepted == acked.len() as u64, || {
            format!(
                "recovered daemon accepted {} of {} acknowledged submissions",
                status.accepted,
                acked.len()
            )
        });
        if cycle + 1 == RECOVERIES {
            sealed = Some(daemon.client().seal().map_err(|e| format!("seal: {e}"))?);
        }
    }
    let daemon_fnv = sealed.expect("RECOVERIES is positive").schedule_fnv;
    report.note("recover_s", median(&recover_s).unwrap_or(0.0), "s (median)");

    // The same writes through an in-process journaled session.
    let session = Session::new(cfg.clone()).map_err(|e| e.to_string())?;
    let journal_dir = args.scratch.join("reference");
    let reference_journal =
        SessionJournal::create(&journal_dir, "default", &cfg).map_err(|e| e.to_string())?;
    session.attach_journal(reference_journal);
    let mut session_us = Vec::new();
    for step in &w.script {
        match step {
            Step::Submit(req) => {
                let t = Instant::now();
                let ok = session.submit_batched(req).is_ok();
                session_us.push(nanos(t) as f64 / 1e3);
                report.check(ok, || format!("in-process submit {}", req.id));
            }
            Step::Advance(to) => {
                let ok = session.advance_to(*to).is_ok();
                report.check(ok, || format!("in-process advance to {to}"));
            }
        }
    }
    let reference_fnv = session
        .seal()
        .map_err(|e| format!("in-process seal: {e}"))?
        .schedule_fnv;
    report.check(reference_fnv == daemon_fnv, || {
        format!("recovered daemon sealed {daemon_fnv:#x}, in-process session {reference_fnv:#x}")
    });
    println!(
        "schedule_fnv: recovered daemon {daemon_fnv:#x}, in-process session {reference_fnv:#x}"
    );

    if args.trace {
        report.metric("workload.generate_ms", setup.median_s() * 1e3);
        report.metric("journal.replay_ms", replay_ms);
        report.metric("journal.rows", recovered.events.len() as f64);
        report.metric(
            "session.submit_us_p50",
            percentile(&session_us, 50.0).unwrap_or(0.0),
        );
        report.metric(
            "session.submit_us_p95",
            percentile(&session_us, 95.0).unwrap_or(0.0),
        );
        let mut commit = SessionJournal::create(&args.scratch.join("commit"), "commit", &cfg)
            .map_err(|e| e.to_string())?;
        let mut commit_us = Vec::new();
        for req in &acked {
            let t = Instant::now();
            let ok = commit
                .append_submit(req)
                .and_then(|_| commit.commit())
                .is_ok();
            commit_us.push(nanos(t) as f64 / 1e3);
            report.check(ok, || format!("journal append+commit {}", req.id));
        }
        report.metric(
            "journal.commit_us_p50",
            percentile(&commit_us, 50.0).unwrap_or(0.0),
        );
        report.metric(
            "journal.commit_us_p95",
            percentile(&commit_us, 95.0).unwrap_or(0.0),
        );

        // The core under the session: the same writes, driven directly.
        let sim_cfg = PolicySpec::parse(&cfg.policy)
            .map_err(|e| e.to_string())?
            .sim_config(NODES);
        let events = || {
            w.script.iter().map(|s| match s {
                Step::Submit(req) => SimEvent::Submit(req.to_job()),
                Step::Advance(to) => SimEvent::AdvanceTo(*to),
            })
        };
        let t = Instant::now();
        drive(
            &sim_cfg,
            false,
            events(),
            StreamingFairness::new(NODES),
            |s| s.report(),
        )
        .map_err(|e| format!("untraced drive: {e}"))?;
        let untraced_s = t.elapsed().as_secs_f64();
        let (schedule, _, ledger) = drive(
            &sim_cfg,
            true,
            events(),
            StreamingFairness::new(NODES),
            |s| s.report(),
        )
        .map_err(|e| format!("traced drive: {e}"))?;
        let core_fnv = schedule_fingerprint(&schedule);
        report.check(core_fnv == reference_fnv, || {
            format!("core drive sealed {core_fnv:#x}, in-process session {reference_fnv:#x}")
        });
        report_core_layers(&[Round { ledger, untraced_s }], false, report);
    }
    Ok(())
}
