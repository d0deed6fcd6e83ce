//! Dependency-free `/proc/self` process metrics for the `/metrics` panel.
//!
//! Every production dashboard starts with the standard Prometheus process
//! collector series — CPU seconds, resident/virtual memory, open file
//! descriptors, thread count. This module samples them from procfs with no
//! external crates:
//!
//! * `/proc/self/stat` — cumulative user+system CPU time (fields 14/15,
//!   in `USER_HZ` ticks),
//! * `/proc/self/status` — `VmRSS`, `VmSize`, `VmHWM` (kB, so no page-size
//!   guessing) and `Threads`,
//! * `/proc/self/fd` — one directory entry per open descriptor,
//! * `/proc/self/statm` — resident/virtual in pages, kept as a parser for
//!   tooling that has statm text but no status.
//!
//! [`sample`] returns `None` when procfs is unavailable (non-Linux, or a
//! locked-down mount); callers must then *omit* the series rather than
//! exporting zeros — an absent gauge is "unknown", a zero gauge is a lie.
//! The parsers are pure functions over the file text so they are testable
//! on any platform.

use std::time::Duration;

/// Kernel/userspace ABI constant: `/proc/<pid>/stat` CPU fields are in
/// `USER_HZ` ticks, fixed at 100 on Linux regardless of the kernel's
/// internal `CONFIG_HZ` (this is what `sysconf(_SC_CLK_TCK)` returns).
const USER_HZ: f64 = 100.0;

/// One sample of the process's resource usage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcessSample {
    /// Total user + system CPU time consumed since process start.
    pub cpu_seconds: f64,
    /// Resident set size in bytes (`VmRSS`).
    pub resident_bytes: u64,
    /// Peak resident set size in bytes (`VmHWM`).
    pub peak_resident_bytes: u64,
    /// Virtual memory size in bytes (`VmSize`).
    pub virtual_bytes: u64,
    /// Open file descriptors.
    pub open_fds: u64,
    /// OS threads in the process.
    pub threads: u64,
}

/// Samples `/proc/self`. `None` when procfs is missing or unparseable —
/// callers omit the process series instead of exporting zeros.
pub fn sample() -> Option<ProcessSample> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let open_fds = count_fds("/proc/self/fd")?;
    let cpu_seconds = parse_stat_cpu(&stat)?.as_secs_f64();
    let mem = parse_status(&status)?;
    Some(ProcessSample {
        cpu_seconds,
        resident_bytes: mem.resident_bytes,
        peak_resident_bytes: mem.peak_resident_bytes,
        virtual_bytes: mem.virtual_bytes,
        open_fds,
        threads: mem.threads,
    })
}

/// The process's peak resident set size (`VmHWM`) in bytes, or `None` off
/// Linux — the single number `baton bench` records as `peak_rss_bytes`.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status(&status)?.peak_resident_bytes)
}

/// Entries in an fd directory (one per open descriptor). The readdir
/// itself briefly opens one fd; procfs enumerates the state at iteration
/// time, so the count is what the kernel reports, not adjusted here.
fn count_fds(dir: &str) -> Option<u64> {
    Some(std::fs::read_dir(dir).ok()?.filter(Result::is_ok).count() as u64)
}

/// Parses cumulative CPU time (utime + stime) out of `/proc/<pid>/stat`.
///
/// The second field (`comm`) is an unescaped executable name that may
/// contain spaces and parentheses, so fields are located relative to the
/// *last* `)` in the line — the standard robust parse.
pub fn parse_stat_cpu(stat: &str) -> Option<Duration> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // after_comm starts at field 3 (`state`); utime/stime are fields 14/15
    // in stat(5)'s 1-based numbering, i.e. indices 11/12 here.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(Duration::from_secs_f64(
        utime.checked_add(stime)? as f64 / USER_HZ,
    ))
}

/// Memory and thread figures from `/proc/<pid>/status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusSample {
    /// `VmRSS` in bytes.
    pub resident_bytes: u64,
    /// `VmHWM` (peak RSS) in bytes.
    pub peak_resident_bytes: u64,
    /// `VmSize` in bytes.
    pub virtual_bytes: u64,
    /// `Threads`.
    pub threads: u64,
}

/// Parses `VmRSS`/`VmHWM`/`VmSize`/`Threads` from `/proc/<pid>/status`
/// text. Memory lines are `<key>:\t  <n> kB`; `None` if one of them is
/// missing, malformed or beyond `u64::MAX` bytes.
pub fn parse_status(status: &str) -> Option<StatusSample> {
    let kib = |value: &str| value.parse::<u64>().ok()?.checked_mul(1024);
    let mut s = StatusSample::default();
    let mut seen = 0u8;
    for line in status.lines() {
        let Some((key, rest)) = line.split_once(':') else {
            continue;
        };
        let value = rest.trim().trim_end_matches("kB").trim();
        match key {
            "VmRSS" => {
                s.resident_bytes = kib(value)?;
                seen |= 1;
            }
            "VmHWM" => {
                s.peak_resident_bytes = kib(value)?;
                seen |= 2;
            }
            "VmSize" => {
                s.virtual_bytes = kib(value)?;
                seen |= 4;
            }
            "Threads" => {
                s.threads = value.parse().ok()?;
                seen |= 8;
            }
            _ => {}
        }
    }
    // A kernel thread (or truncated read) lacks the Vm lines; require the
    // full set so a partial sample never masquerades as a real one.
    (seen == 0b1111).then_some(s)
}

/// Parses `/proc/<pid>/statm` (`size resident shared ...`, in pages) into
/// `(virtual_bytes, resident_bytes)` given the page size. `status` kB
/// values are preferred in [`sample`]; this exists for tooling that has
/// statm text only. `None` if a size in bytes is beyond `u64::MAX`.
pub fn parse_statm(statm: &str, page_bytes: u64) -> Option<(u64, u64)> {
    let mut fields = statm.split_whitespace();
    let size: u64 = fields.next()?.parse().ok()?;
    let resident: u64 = fields.next()?.parse().ok()?;
    Some((
        size.checked_mul(page_bytes)?,
        resident.checked_mul(page_bytes)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stat_cpu_parses_past_hostile_comm_names() {
        // comm contains spaces and a closing paren; fields after the LAST
        // ')' are what count. utime=250 ticks, stime=50 ticks -> 3s.
        let stat = "1234 (my (we) ird) S 1 1 1 0 -1 4194560 500 0 0 0 250 50 0 0 20 0 8 0 123456 999424 1000 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat), Some(Duration::from_secs(3)));
        assert_eq!(parse_stat_cpu("garbage"), None);
        assert_eq!(parse_stat_cpu("1 (x) S"), None, "too few fields");
    }

    #[test]
    fn status_parses_kb_lines_and_requires_the_full_set() {
        let status = "Name:\tbaton\nVmPeak:\t  20000 kB\nVmSize:\t  10000 kB\nVmHWM:\t  6000 kB\nVmRSS:\t   5000 kB\nThreads:\t9\n";
        let s = parse_status(status).unwrap();
        assert_eq!(s.resident_bytes, 5000 * 1024);
        assert_eq!(s.peak_resident_bytes, 6000 * 1024);
        assert_eq!(s.virtual_bytes, 10000 * 1024);
        assert_eq!(s.threads, 9);
        // A kernel-thread-style status (no Vm lines) yields None, not zeros.
        assert_eq!(parse_status("Name:\tkthreadd\nThreads:\t1\n"), None);
    }

    #[test]
    fn statm_converts_pages() {
        assert_eq!(
            parse_statm("250 125 30 5 0 80 0", 4096),
            Some((1024000, 512000))
        );
        assert_eq!(parse_statm("", 4096), None);
    }

    #[test]
    fn counts_beyond_u64_are_refused() {
        let max = u64::MAX;
        let stat = |u: u64, s: u64| format!("1 (x) S 1 1 1 0 -1 0 0 0 0 0 {u} {s} 0 0");
        assert_eq!(parse_stat_cpu(&stat(max, 1)), None);
        assert!(parse_stat_cpu(&stat(max - 1, 1)).is_some());
        let status =
            |rss: u64| format!("VmSize:\t1 kB\nVmHWM:\t1 kB\nVmRSS:\t{rss} kB\nThreads:\t1\n");
        assert_eq!(parse_status(&status(max / 1024 + 1)), None);
        let fits = parse_status(&status(max / 1024)).unwrap();
        assert_eq!(fits.resident_bytes, max / 1024 * 1024);
        assert_eq!(parse_statm("2 1", max), None);
        assert_eq!(parse_statm("1 2", max), None);
        assert_eq!(parse_statm("1 1", max), Some((max, max)));
    }

    /// Pieces of procfs text: numbers up to and past `u64::MAX`, signs,
    /// units, the keys and the characters the parsers split on.
    const TOKENS: [&str; 20] = [
        "0",
        "1",
        "250",
        "18014398509481983",
        "18014398509481984",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "+5",
        " kB",
        ":",
        ")",
        "(",
        " ",
        "\t",
        "\n",
        "VmRSS",
        "VmHWM",
        "VmSize",
        "Threads",
    ];

    /// Text of procfs pieces and arbitrary characters, in any order.
    fn texts() -> impl Strategy<Value = String> {
        proptest::collection::vec((0..TOKENS.len() + 4, 0u32..0x800), 0..64).prop_map(|picks| {
            picks
                .into_iter()
                .map(|(i, c)| match TOKENS.get(i) {
                    Some(token) => token.to_string(),
                    None => char::from_u32(c).map(String::from).unwrap_or_default(),
                })
                .collect()
        })
    }

    /// A status file: the four keys (sometimes one twice or left out) with
    /// numbers from [`TOKENS`], `kB` or not.
    fn status_texts() -> impl Strategy<Value = String> {
        const KEYS: [&str; 5] = ["VmRSS", "VmHWM", "VmSize", "Threads", "Name"];
        proptest::collection::vec((0..KEYS.len(), 0usize..9, 0u8..2), 0..8).prop_map(|lines| {
            lines
                .into_iter()
                .map(|(k, n, kb)| {
                    let unit = if kb == 0 { " kB" } else { "" };
                    format!("{}:\t{}{unit}\n", KEYS[k], TOKENS[n])
                })
                .collect()
        })
    }

    /// Numeric fields drawn from [`TOKENS`], space-separated.
    fn numbers() -> impl Strategy<Value = String> {
        proptest::collection::vec(0usize..9, 0..16).prop_map(|fields| {
            fields
                .iter()
                .map(|&n| TOKENS[n])
                .collect::<Vec<_>>()
                .join(" ")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parsers_never_panic_on_arbitrary_text(
            text in texts(),
            page in 0usize..3,
        ) {
            let _ = parse_stat_cpu(&text);
            let _ = parse_status(&text);
            let _ = parse_statm(&text, [1, 4096, u64::MAX][page]);
        }

        #[test]
        fn parsers_never_panic_on_near_procfs_text(
            status in status_texts(),
            fields in numbers(),
            page in 0usize..3,
        ) {
            let _ = parse_status(&status);
            // A `comm` with parentheses, then the fields.
            let _ = parse_stat_cpu(&format!("42 (a) b)) S {fields}"));
            let _ = parse_statm(&fields, [1, 4096, u64::MAX][page]);
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn live_sample_is_plausible_on_linux() {
        let s = sample().expect("procfs sample on linux");
        assert!(s.resident_bytes > 0);
        assert!(s.virtual_bytes >= s.resident_bytes);
        assert!(s.peak_resident_bytes >= s.resident_bytes);
        assert!(s.threads >= 1);
        assert!(s.open_fds >= 1, "stdin/out/err are open");
        assert!(s.cpu_seconds >= 0.0);
    }
}
