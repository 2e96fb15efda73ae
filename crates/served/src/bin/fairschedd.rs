//! `fairschedd` — the online scheduling daemon.
//!
//! ```text
//! fairschedd [--port N] [--port-file PATH] [--policy ID] [--nodes N]
//!            [--speedup X | --manual] [--no-trace] [--id-floor N]
//!            [--workers N] [--queue-capacity N]
//!            [--journal-dir DIR] [--recover]
//! ```
//!
//! Binds `127.0.0.1:<port>` (port 0 = OS-assigned; the resolved port is
//! printed and, with `--port-file`, written to a file for scripts to
//! pick up). Runs until `POST /v1/shutdown`.
//!
//! `--journal-dir DIR` turns on durability: every accepted submission
//! and clock grant appends to a checksummed per-session journal under
//! `DIR`. After a crash (even SIGKILL), `--recover` with the same
//! `--journal-dir` replays the journals and continues every session
//! exactly where its acknowledged history ends — the recovered schedule
//! is byte-identical to an uninterrupted run.

use fairsched_served::clock::ClockMode;
use fairsched_served::daemon::DaemonConfig;
use fairsched_served::session::SessionConfig;
use fairsched_served::Daemon;
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: fairschedd [--port N] [--port-file PATH] [--policy ID] \
         [--nodes N] [--speedup X | --manual] [--no-trace] [--id-floor N] \
         [--workers N] [--queue-capacity N] [--journal-dir DIR] [--recover]"
    );
    std::process::exit(2);
}

fn main() {
    let mut port: u16 = 0;
    let mut port_file: Option<String> = None;
    let mut cfg = DaemonConfig::new(SessionConfig {
        // Interactive serving defaults to real time; scripts pass
        // --manual or a large --speedup.
        clock: ClockMode::Realtime { speedup: 1.0 },
        ..SessionConfig::default()
    });

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("fairschedd: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--port" => {
                port = value("--port").parse().unwrap_or_else(|_| usage());
            }
            "--port-file" => port_file = Some(value("--port-file")),
            "--policy" => cfg.session.policy = value("--policy"),
            "--nodes" => {
                cfg.session.nodes = value("--nodes").parse().unwrap_or_else(|_| usage());
            }
            "--speedup" => {
                let speedup: f64 = value("--speedup").parse().unwrap_or_else(|_| usage());
                if !(speedup.is_finite() && speedup > 0.0) {
                    eprintln!("fairschedd: --speedup must be a positive number");
                    std::process::exit(2);
                }
                cfg.session.clock = ClockMode::Realtime { speedup };
            }
            "--manual" => cfg.session.clock = ClockMode::Manual,
            "--no-trace" => cfg.session.traced = false,
            "--id-floor" => {
                cfg.session.id_floor = value("--id-floor").parse().unwrap_or_else(|_| usage());
            }
            "--workers" => {
                cfg.workers = value("--workers").parse().unwrap_or_else(|_| usage());
                if cfg.workers == 0 {
                    eprintln!("fairschedd: --workers must be at least 1");
                    std::process::exit(2);
                }
            }
            "--queue-capacity" => {
                cfg.queue_capacity = value("--queue-capacity")
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--journal-dir" => {
                cfg.journal_dir = Some(std::path::PathBuf::from(value("--journal-dir")));
            }
            "--recover" => cfg.recover = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("fairschedd: unknown flag {other}");
                usage();
            }
        }
    }
    if cfg.recover && cfg.journal_dir.is_none() {
        eprintln!("fairschedd: --recover needs --journal-dir");
        std::process::exit(2);
    }

    let mut daemon = match Daemon::start_with(&format!("127.0.0.1:{port}"), cfg) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("fairschedd: {e}");
            std::process::exit(1);
        }
    };
    let addr = daemon.addr();
    println!("fairschedd listening on {addr}");
    if let Some(path) = port_file {
        let written = std::fs::File::create(&path).and_then(|mut f| writeln!(f, "{}", addr.port()));
        if let Err(e) = written {
            eprintln!("fairschedd: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }

    // Serve until `POST /v1/shutdown`.
    daemon.wait();
    daemon.shutdown();
    println!("fairschedd: stopped");
}
