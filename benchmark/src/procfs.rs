//! Process CPU time and peak resident memory from `/proc/self` (Linux).

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them
/// (`USER_HZ`, fixed at 100 on every Linux architecture this runs on).
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` of this process, all threads, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime") as f64 / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kib(&status).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

/// `utime + stime` (fields 14 and 15) from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself hold spaces and parentheses, so
/// fields are counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state).
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM` line of `/proc/<pid>/status`, in KiB.
fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 37 5 0 0 20 0 3 0 99 1 2";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
        assert_eq!(parse_cpu_ticks("4242 (x) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   43008 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(43008));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.5);
    }
}
