//! An idle `fairschedd` must not burn CPU.
//!
//! The daemon waits on events: a reactor blocked in `poll(2)` watches
//! idle keep-alive connections and workers block on a condition
//! variable, so with connections open and no requests arriving the
//! process should be almost entirely asleep. This test parks 32
//! keep-alive clients on a child daemon (default realtime clock, so the
//! heartbeat is included) and reads the child's CPU time from
//! `/proc/<pid>/stat` across a 2 s window. A polling loop costs several
//! percent of a core here; the bound is 2 %.
//!
//! It is its own test binary so no other test shares the process or
//! competes for the window.

use fairsched_served::Client;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_fairschedd");
const CLIENTS: usize = 32;
const WINDOW: Duration = Duration::from_secs(2);
const MAX_CPU_PCT: f64 = 2.0;
/// `/proc` reports CPU time in `USER_HZ` ticks, which Linux fixes at 100
/// per second for user space.
const TICK_MS: f64 = 10.0;

/// The child's `utime + stime` in milliseconds.
fn cpu_ms(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // Fields after the parenthesised command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    ticks as f64 * TICK_MS
}

/// Kills the child daemon if the test panics before shutting it down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn wait_for_port(port_file: &Path, child: &mut Child) -> u16 {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "daemon never wrote its port");
        if let Some(status) = child.try_wait().unwrap() {
            panic!("daemon exited early: {status}");
        }
        if let Ok(text) = std::fs::read_to_string(port_file) {
            if let Ok(port) = text.trim().parse() {
                return port;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn an_idle_daemon_with_parked_keep_alive_connections_stays_asleep() {
    let dir = std::env::temp_dir().join(format!("fairschedd-idle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("port");
    let mut daemon = Daemon(
        Command::new(BIN)
            .args(["--port", "0", "--port-file"])
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let pid = daemon.0.id();
    let port = wait_for_port(&port_file, &mut daemon.0);
    let addr = format!("127.0.0.1:{port}").parse().unwrap();

    // Each client opens its keep-alive connection with one request and
    // then leaves it parked on the daemon.
    let clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::new(addr).with_timeout(Duration::from_secs(10)))
        .collect();
    for client in &clients {
        client.status().expect("status");
    }
    // Let the last responses' bookkeeping settle before sampling.
    std::thread::sleep(Duration::from_millis(200));

    let before = cpu_ms(pid);
    let started = Instant::now();
    std::thread::sleep(WINDOW);
    let used = cpu_ms(pid) - before;
    let pct = 100.0 * used / started.elapsed().as_millis() as f64;
    eprintln!("idle daemon CPU: {pct:.2}% of a core over {WINDOW:?}");

    // Every parked connection must still be served afterwards.
    for client in &clients {
        client.status().expect("status after the idle window");
    }
    clients[0].shutdown().expect("shutdown");
    let status = daemon.0.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(status.success(), "daemon exited with {status}");
    assert!(
        pct <= MAX_CPU_PCT,
        "idle daemon used {pct:.1}% of a core ({used:.0} ms over {:?}) with {CLIENTS} parked connections",
        WINDOW
    );
}
