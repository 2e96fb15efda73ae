//! End-to-end tests for `fairschedd` over real HTTP: a daemon on an
//! OS-assigned port, the typed client, trace streaming, typed rejections
//! crossing the wire, and clean shutdown.

use fairsched_served::clock::ClockMode;
use fairsched_served::session::SessionConfig;
use fairsched_served::{Client, Daemon, ServeError, SubmitRequest};
use fairsched_sim::{simulate, NullObserver, SimOptions};
use fairsched_workload::job::Job;

fn manual_daemon(policy: &str, nodes: u32) -> Daemon {
    Daemon::start(
        "127.0.0.1:0",
        SessionConfig {
            policy: policy.into(),
            nodes,
            clock: ClockMode::Manual,
            traced: true,
            id_floor: 0,
            ..SessionConfig::default()
        },
    )
    .expect("daemon start")
}

fn req(id: u32, user: u32, submit: u64, nodes: u32, runtime: u64) -> SubmitRequest {
    SubmitRequest {
        id,
        user,
        group: 1,
        submit,
        nodes,
        runtime,
        estimate: runtime,
    }
}

#[test]
fn submit_status_advance_seal_over_http() {
    let mut daemon = manual_daemon("easy.nomax", 64);
    let client = Client::new(daemon.addr());

    let ack = client.submit(&req(1, 1, 0, 64, 100)).unwrap();
    assert_eq!(ack.id, 1);
    client.submit(&req(2, 2, 10, 32, 50)).unwrap();

    let status = client.status().unwrap();
    assert_eq!(status.accepted, 2);
    assert_eq!(status.policy, "easy.nomax");
    assert!(!status.sealed);

    let advanced = client.advance(100).unwrap();
    assert_eq!(advanced.now, 100);
    assert!(advanced.started >= 1);

    let seal = client.seal().unwrap();
    assert_eq!(seal.records, 2);
    assert!(seal.makespan > 0);

    let status = client.status().unwrap();
    assert!(status.sealed);
    assert_eq!(status.completed, 2);

    client.shutdown().unwrap();
    daemon.shutdown();
}

#[test]
fn typed_rejections_cross_the_wire() {
    let mut daemon = manual_daemon("easy.nomax", 64);
    let client = Client::new(daemon.addr());

    client.submit(&req(1, 1, 0, 64, 100)).unwrap();
    client.advance(500).unwrap();

    // Non-monotonic: dated before the granted horizon.
    match client.submit(&req(2, 2, 499, 8, 10)) {
        Err(ServeError::NonMonotonicSubmit {
            job,
            submit,
            granted,
        }) => {
            assert_eq!(job.0, 2);
            assert_eq!(submit, 499);
            assert_eq!(granted, 500);
        }
        other => panic!("expected NonMonotonicSubmit, got {other:?}"),
    }

    // Duplicate id.
    match client.submit(&req(1, 1, 600, 8, 10)) {
        Err(ServeError::DuplicateId { job }) => assert_eq!(job.0, 1),
        other => panic!("expected DuplicateId, got {other:?}"),
    }

    // A job wider than the machine is a sim-level rejection.
    assert!(matches!(
        client.submit(&req(3, 1, 600, 1000, 10)),
        Err(ServeError::Sim(_))
    ));

    // Malformed body.
    assert!(matches!(
        client.submit(&req(4, 0, 600, 0, 10)),
        Err(ServeError::Sim(_)) | Err(ServeError::BadRequest { .. })
    ));

    client.shutdown().unwrap();
    daemon.shutdown();
}

#[test]
fn deeply_nested_bodies_get_a_400_and_the_daemon_keeps_serving() {
    use std::io::{Read, Write};
    let mut daemon = manual_daemon("easy.nomax", 64);
    let body = "[".repeat(100_000);
    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    write!(
        stream,
        "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains("nesting deeper than"), "{response}");

    let client = Client::new(daemon.addr());
    assert_eq!(client.status().unwrap().accepted, 0);
    client.shutdown().unwrap();
    daemon.shutdown();
}

#[test]
fn unknown_policy_ids_fail_daemon_startup_typed() {
    let err = match Daemon::start(
        "127.0.0.1:0",
        SessionConfig {
            policy: "not-a-policy".into(),
            ..SessionConfig::default()
        },
    ) {
        Ok(_) => panic!("daemon started under an unknown policy"),
        Err(e) => e,
    };
    match err {
        ServeError::UnknownPolicy(e) => assert_eq!(e.id, "not-a-policy"),
        other => panic!("expected UnknownPolicy, got {other:?}"),
    }
}

#[test]
fn trace_streams_as_jsonl_until_seal() {
    let mut daemon = manual_daemon("cplant24.nomax.all", 32);
    let addr = daemon.addr();
    let streamer = std::thread::spawn(move || Client::new(addr).trace_lines());

    // Give the subscriber a moment to attach before records flow.
    std::thread::sleep(std::time::Duration::from_millis(50));

    let client = Client::new(addr);
    client.submit(&req(1, 1, 0, 32, 100)).unwrap();
    client.submit(&req(2, 2, 5, 16, 80)).unwrap();
    client.submit(&req(3, 3, 9, 32, 20)).unwrap();
    client.seal().unwrap();

    let lines = streamer.join().unwrap().unwrap();
    assert!(!lines.is_empty(), "no trace lines streamed");
    assert!(lines.iter().any(|l| l.contains("job_started")));
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not JSONL: {line}"
        );
    }

    client.shutdown().unwrap();
    daemon.shutdown();
}

#[test]
fn online_http_replay_matches_batch() {
    let jobs = [
        Job::new(1, 1, 1, 0, 24, 300, 400),
        Job::new(2, 2, 1, 20, 16, 500, 500),
        Job::new(3, 1, 1, 40, 8, 100, 200),
        Job::new(4, 3, 1, 350, 32, 50, 60),
        Job::new(5, 2, 1, 360, 4, 700, 900),
    ];
    let spec = fairsched_core::policy::PolicySpec::parse("easy.nomax").unwrap();
    let batch = simulate(
        &jobs,
        &spec.sim_config(32),
        &mut NullObserver,
        SimOptions::new(),
    )
    .unwrap();

    let mut daemon = manual_daemon("easy.nomax", 32);
    let client = Client::new(daemon.addr());
    for job in &jobs {
        // Grant time up to just below each submission first, interleaving
        // grants and submissions the way a live feed would.
        client.advance(job.submit.saturating_sub(1)).unwrap();
        client.submit(&SubmitRequest::from_job(job)).unwrap();
    }
    let seal = client.seal().unwrap();
    assert_eq!(seal.records, batch.records.len() as u64);

    let online = daemon.session().schedule().expect("schedule after seal");
    assert_eq!(online, batch, "online HTTP replay diverged from batch");

    client.shutdown().unwrap();
    daemon.shutdown();
}

#[test]
fn live_explain_and_profile_respond_over_http() {
    let mut daemon = manual_daemon("easy.nomax", 16);
    let client = Client::new(daemon.addr());

    client.submit(&req(1, 1, 0, 16, 200)).unwrap();
    client.submit(&req(2, 2, 10, 16, 50)).unwrap();
    client.advance(200).unwrap();

    let explain = client.explain(2).unwrap();
    assert_eq!(
        explain.get("found").and_then(|v| v.as_bool()),
        Some(true),
        "started job must explain live: {explain:?}"
    );
    assert_eq!(explain.get("start").and_then(|v| v.as_u64()), Some(200));

    let profile = client.profile().unwrap();
    assert!(profile.get("wall_ns").and_then(|v| v.as_u64()).unwrap() > 0);
    assert!(profile.get("steps").and_then(|v| v.as_u64()).unwrap() >= 3);

    client.shutdown().unwrap();
    daemon.shutdown();
}

#[test]
fn named_session_profiles_count_only_that_session() {
    let mut daemon = manual_daemon("easy.nomax", 16);
    let client = Client::new(daemon.addr());
    let mut spec = fairsched_served::api::SessionSpec::named("cons");
    spec.policy = Some("cons.nomax".into());
    client.create_session(&spec).unwrap();
    let cons = client.for_session("cons");

    cons.submit(&req(1, 1, 0, 16, 200)).unwrap();
    cons.submit(&req(2, 2, 10, 8, 50)).unwrap();
    cons.submit(&req(3, 3, 20, 4, 30)).unwrap();
    cons.advance(400).unwrap();

    let passes =
        |p: &fairsched_served::json::Json, key: &str| p.get(key).and_then(|v| v.as_u64()).unwrap();
    let named = cons.profile().unwrap();
    assert!(passes(&named, "sched_passes") > 0, "{named:?}");
    assert!(passes(&named, "backfill_attempts") > 0, "{named:?}");
    // The default session did no work, so its profile stays at zero.
    let default = client.profile().unwrap();
    assert_eq!(passes(&default, "sched_passes"), 0, "{default:?}");
    assert_eq!(passes(&default, "backfill_attempts"), 0, "{default:?}");

    client.shutdown().unwrap();
    daemon.shutdown();
}

/// Reads one `Content-Length` response off a raw keep-alive stream.
fn read_raw_response(reader: &mut std::io::BufReader<std::net::TcpStream>) -> String {
    use std::io::{BufRead, Read};
    let mut head = String::new();
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "eof in headers");
        if let Some(value) = line.strip_prefix("Content-Length:") {
            length = value.trim().parse().unwrap();
        }
        head.push_str(&line);
        if line == "\r\n" {
            break;
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).unwrap();
    head + &String::from_utf8(body).unwrap()
}

fn raw_connection(daemon: &Daemon) -> std::io::BufReader<std::net::TcpStream> {
    let stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    std::io::BufReader::new(stream)
}

#[test]
fn realtime_daemons_tick_named_sessions() {
    use fairsched_served::api::SessionSpec;
    use fairsched_served::daemon::DaemonConfig;
    use std::time::{Duration, Instant};
    let mut daemon = Daemon::start_with(
        "127.0.0.1:0",
        DaemonConfig::new(SessionConfig {
            policy: "easy.nomax".into(),
            nodes: 64,
            clock: ClockMode::Realtime { speedup: 1000.0 },
            traced: false,
            ..SessionConfig::default()
        }),
    )
    .expect("daemon start");
    let client = Client::new(daemon.addr());
    client.create_session(&SessionSpec::named("live")).unwrap();
    let live = client.for_session("live");

    // Half a wall second ahead of the clock, done 0.1 s after it starts.
    let granted = live.status().unwrap().granted;
    live.submit(&req(1, 1, granted + 500, 8, 100)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while live.status().unwrap().completed < 1 {
        assert!(
            Instant::now() < deadline,
            "the named session never advanced: {:?}",
            live.status().unwrap()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon.shutdown();
}

#[test]
fn parked_keep_alive_clients_do_not_pin_the_pool() {
    use fairsched_served::daemon::DaemonConfig;
    use std::time::{Duration, Instant};
    let workers = 2;
    let mut cfg = DaemonConfig::new(SessionConfig {
        clock: ClockMode::Manual,
        ..SessionConfig::default()
    });
    cfg.workers = workers;
    let mut daemon = Daemon::start_with("127.0.0.1:0", cfg).expect("daemon start");
    let parked: Vec<Client> = (0..workers + 4)
        .map(|_| Client::new(daemon.addr()))
        .collect();
    for client in &parked {
        client.status().unwrap();
    }

    let fresh = Client::new(daemon.addr());
    let started = Instant::now();
    fresh.status().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "a fresh client waited {:?} behind {} parked connections",
        started.elapsed(),
        parked.len()
    );
    // The parked connections are still served too.
    for client in &parked {
        client.status().unwrap();
    }
    daemon.shutdown();
}

#[test]
fn pipelined_requests_in_one_write_are_all_answered() {
    use std::io::Write;
    let mut daemon = manual_daemon("easy.nomax", 64);
    let mut conn = raw_connection(&daemon);
    let request = "GET /v1/status HTTP/1.1\r\nHost: x\r\n\r\n";
    conn.get_mut()
        .write_all(format!("{request}{request}").as_bytes())
        .unwrap();
    for _ in 0..2 {
        let response = read_raw_response(&mut conn);
        assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
        assert!(response.contains("\"accepted\""), "{response}");
    }
    daemon.shutdown();
}

#[test]
fn shutdown_closes_parked_connections_promptly() {
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};
    let mut daemon = manual_daemon("easy.nomax", 64);
    let mut conns: Vec<_> = (0..4).map(|_| raw_connection(&daemon)).collect();
    for conn in &mut conns {
        conn.get_mut()
            .write_all(b"GET /v1/status HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let response = read_raw_response(conn);
        assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
    }

    let started = Instant::now();
    daemon.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown took {:?} with parked connections",
        started.elapsed()
    );
    for conn in &mut conns {
        let mut rest = Vec::new();
        let read = conn.read_to_end(&mut rest).expect("EOF, not a timeout");
        assert_eq!(read, 0, "unexpected bytes after shutdown: {rest:?}");
    }
}
