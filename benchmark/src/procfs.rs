//! Process CPU time and peak memory from `/proc/self`.

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`: `USER_HZ`, 100 on every Linux ABI.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // After the command: state is field 3, utime 14, stime 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size in MB from the text of `/proc/<pid>/status`.
pub fn parse_status_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds this process (all threads) has used so far.
pub fn cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    parse_stat_cpu_s(&stat).ok_or_else(|| "cannot parse /proc/self/stat".to_string())
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    parse_status_vm_hwm_mb(&status).ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let stat = "4242 (snn) bench) x) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 66 0 0 20 0 3 0 100 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(13.0));
        assert_eq!(parse_stat_cpu_s("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_s("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_vm_hwm_is_read_in_mb() {
        let status =
            "Name:\tsnn-benchmark\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_vm_hwm_mb(status), Some(50.0));
        assert_eq!(parse_status_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_is_readable() {
        assert!(cpu_s().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
