//! CPU time and peak resident memory of a process, read from `/proc`.

/// Clock ticks per second of the `utime`/`stime` fields. Linux reports
/// them in `USER_HZ`, which is 100 on every architecture it supports.
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time in milliseconds, from the text of
/// `/proc/<pid>/stat`. The command name (field 2) is parenthesised and
/// may itself hold spaces or parentheses, so fields are counted from the
/// last `)`: `utime` and `stime` are fields 14 and 15.
pub fn parse_stat_cpu_ms(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / TICKS_PER_S)
}

/// Peak resident set size (`VmHWM`) in kibibytes, from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_vmhwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
}

/// CPU time of process `pid` (`"self"` for this one), in milliseconds.
pub fn cpu_ms(pid: &str) -> Option<f64> {
    parse_stat_cpu_ms(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident memory of process `pid` (`"self"` for this one), in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_status_vmhwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_skips_a_command_name_with_spaces_and_parens() {
        let stat = "4242 (fair (sched) d) S 1 4242 4242 0 -1 4194560 1553 0 0 0 \
                    250 75 0 0 20 0 9 0 123456 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ms(stat), Some(3250.0));
    }

    #[test]
    fn stat_cpu_rejects_truncated_text() {
        assert_eq!(parse_stat_cpu_ms("4242 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ms("no parenthesis"), None);
    }

    #[test]
    fn status_reads_vmhwm() {
        let status =
            "Name:\tfairschedd\nVmPeak:\t  20000 kB\nVmHWM:\t    8192 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_status_vmhwm_kib(status), Some(8192));
        assert_eq!(parse_status_vmhwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(cpu_ms("self").is_some());
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
