//! Result assembly: metrics with units, the correctness tally, order
//! statistics, host provenance and the JSON lines the harness prints.

use std::fmt::Write as _;
use std::path::Path;

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The correctness oracle's tally: every checked operation is
/// attempted, and counts as failed unless the program's value equals the
/// independently computed expected value bit for bit.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few mismatches, for the diagnostic line on stderr.
    pub notes: Vec<String>,
}

impl Tally {
    /// Checks one value: `actual` passes only when it is bit-identical to
    /// `expected`.
    pub fn check_eq(&mut self, what: &str, expected: f64, actual: f64) {
        self.check(what, expected.to_bits() == actual.to_bits(), || {
            format!("expected {expected}, got {actual}")
        });
    }

    /// Checks one condition.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("{what}: {}", detail()));
            }
        }
    }

    /// Records an operation that failed outright (error frame, expiry).
    pub fn fail(&mut self, what: impl Into<String>) {
        self.check(&what.into(), false, || "failed".to_string());
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }

    /// Share of attempted operations that passed (1.0 for a clean run).
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// CPU time the hypervisor has stolen from this machine, in clock ticks
/// (the `steal` column of `/proc/stat`; 0 where it is not reported).
pub fn stolen_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// `/proc/stat` counts in `USER_HZ` ticks, which Linux fixes at 100.
pub const TICK_S: f64 = 0.01;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which the tests reject) print as
/// `null` so the line stays parseable.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let mut m = String::new();
    for (i, metric) in metrics.0.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(metric.name),
            json_num(metric.value),
            json_str(metric.unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    )
}

/// Host and build facts recorded beside every result.
pub fn provenance(store_dir: &Path, extra: &[(String, String)]) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let mut out = vec![
        ("nproc".to_string(), nproc.to_string()),
        ("cpu_model".to_string(), cpu),
        ("kernel".to_string(), kernel),
        ("rustc".to_string(), command_line("rustc", &["-V"])),
        (
            "build_profile".to_string(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("store_fs".to_string(), filesystem_of(store_dir)),
        (
            "git_commit".to_string(),
            command_line("git", &["rev-parse", "HEAD"]),
        ),
    ];
    out.extend_from_slice(extra);
    out
}

/// First output line of a helper command, or `unknown` when it cannot
/// run (the benchmark checkout need not be a git repository; git is
/// kept from searching the directories above it).
fn command_line(program: &str, args: &[&str]) -> String {
    let mut cmd = std::process::Command::new(program);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mounts`).
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".to_string())
}

/// A flat JSON object line of string pairs.
pub fn object_line(key: &str, pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}: {{{}}}}}", json_str(key), body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_fails_on_a_wrong_expected_value() {
        let mut t = Tally::default();
        t.check_eq("right", 1234.5, 1234.5);
        assert_eq!(t.ok_frac(), 1.0);
        t.check_eq("wrong", 1234.5 + 1e-9, 1234.5);
        assert_eq!(t.failed, 1);
        assert_eq!(t.ok_frac(), 0.5);
        assert!(result_line(&t, &Metrics::default()).contains("\"correct\": false"));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
