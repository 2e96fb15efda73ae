//! A burst of connects larger than std's default listen backlog (128)
//! must be queued by the kernel, not dropped.
//!
//! A thousand submitters starting together connect faster than any
//! accept loop runs; with a 128-entry backlog the kernel drops the
//! excess SYNs or resets the connections. The test freezes a child
//! `fairschedd` with SIGSTOP, so nothing accepts at all, opens a burst of
//! connections, then resumes the daemon and requires every one of them
//! to be served.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_fairschedd");
/// Connections opened while the daemon is frozen (capped by the kernel's
/// own backlog ceiling, `net.core.somaxconn`).
const BURST: usize = 512;

/// Kills the child daemon if the test panics before shutting it down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            signal(&self.0, "CONT");
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// Sends `SIG<name>` to the child; whether it was delivered.
fn signal(child: &Child, name: &str) -> bool {
    Command::new("kill")
        .arg(format!("-{name}"))
        .arg(child.id().to_string())
        .status()
        .is_ok_and(|status| status.success())
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
fn a_connect_burst_past_the_default_backlog_is_queued_and_served() {
    let somaxconn: usize = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
        .ok()
        .and_then(|text| text.trim().parse().ok())
        .unwrap_or(BURST);
    let burst = BURST.min(somaxconn);
    let dir = std::env::temp_dir().join(format!("fairschedd-burst-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("port");
    let mut daemon = Daemon(
        Command::new(BIN)
            .args(["--port", "0", "--manual", "--port-file"])
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let port = wait_for_port(&port_file, &mut daemon.0);
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();

    assert!(signal(&daemon.0, "STOP"), "cannot stop the daemon");
    // Loopback handshakes complete in the kernel within microseconds; a
    // connect that times out was dropped because the backlog was full.
    let conns: Vec<TcpStream> = (0..burst)
        .map_while(|_| TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok())
        .collect();
    assert!(signal(&daemon.0, "CONT"), "cannot resume the daemon");
    assert_eq!(
        conns.len(),
        burst,
        "only {} of {burst} connects completed while the daemon was frozen",
        conns.len()
    );

    for mut conn in conns {
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.write_all(b"GET /v1/status HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut status_line = String::new();
        BufReader::new(conn).read_line(&mut status_line).unwrap();
        assert!(status_line.starts_with("HTTP/1.1 200 "), "{status_line:?}");
    }

    let mut shutdown = TcpStream::connect(addr).unwrap();
    shutdown
        .write_all(b"POST /v1/shutdown HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut status_line = String::new();
    BufReader::new(shutdown)
        .read_line(&mut status_line)
        .unwrap();
    let status = daemon.0.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(status.success(), "daemon exited with {status}");
}
