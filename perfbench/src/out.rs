//! Result lines, machine fingerprint and process memory.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// A JSON number with all its digits. A non-finite value (a failed
/// operation's latency) prints as the largest finite double.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "-1".to_string()
    } else {
        format!("{:e}", f64::MAX)
    }
}

/// A JSON string literal.
pub fn text(s: &str) -> String {
    let mut out = String::from("\"");
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

/// An ordered JSON object built from already-rendered values.
#[derive(Clone, Debug, Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    /// Add `key: value` (`value` is a rendered JSON fragment).
    pub fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.0.push((key.to_string(), value));
        self
    }

    /// Add a number.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.raw(key, num(value))
    }

    /// Add a string.
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, text(value))
    }

    /// Render on one line.
    pub fn render(&self) -> String {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("{}: {v}", text(k))).collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Named metrics with units, in the order they were set.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Set `name` (replacing an earlier value).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        if let Some(m) = self.0.iter_mut().find(|m| m.0 == name) {
            m.1 = value;
            m.2 = unit;
        } else {
            self.0.push((name.to_string(), value, unit));
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Render as `{"name": {"value": v, "unit": u}, …}`.
    pub fn render(&self) -> String {
        let mut o = Obj::default();
        for (name, value, unit) in &self.0 {
            let mut m = Obj::default();
            m.num("value", *value).text("unit", unit);
            o.raw(name, m.render());
        }
        o.render()
    }
}

/// The last line of a run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut o = Obj::default();
    o.raw("correct", correct.to_string())
        .raw("attempted", attempted.to_string())
        .raw("failed", failed.to_string())
        .raw("metrics", metrics.render());
    o.render()
}

/// Sample count of a latency summary and whether its p99 is supported by
/// at least ten samples beyond it.
pub fn summary_obj(s: &crate::stats::Summary) -> String {
    let mut o = Obj::default();
    o.num("n", s.n as f64)
        .num("beyond_p99", s.beyond_p99() as f64)
        .raw("p99_supported", s.p99_supported().to_string());
    o.render()
}

/// A latency split: the median, the mean total of the median band, each
/// part's mean over that band, and how the parts add up against the median.
pub fn split_obj(p50: f64, band: f64, names: &[&str], parts: &[f64]) -> String {
    let mut o = Obj::default();
    o.num("p50_ms", p50).num("median_band_ms", band);
    for (n, v) in names.iter().zip(parts) {
        o.num(&format!("{n}_ms"), *v);
    }
    o.num("sum_over_p50", parts.iter().sum::<f64>() / p50);
    o.render()
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores, kernel, data-directory filesystem, compiler and source version.
pub fn fingerprint(data_dir: &Path) -> Obj {
    let mut o = Obj::default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    o.num("nproc", nproc as f64);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    o.text("kernel", kernel.trim());
    o.text("data_fs", &fs_type(data_dir));
    o.text("rustc", &command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()));
    // a checkout without its own .git is stamped with a digest of the
    // sources (a parent directory's repository would name the wrong commit)
    let commit = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .map(|c| format!("git:{c}"))
        .unwrap_or_else(|| format!("src-fnv64:{:016x}", source_digest()));
    o.text("commit", &commit);
    o
}

/// First stdout line of a command that exits cleanly.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.lines().next().map(|l| l.trim().to_string())
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix).
fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 3 || !dir.starts_with(f[1]) {
            continue;
        }
        if best.as_ref().is_none_or(|(len, _)| f[1].len() > *len) {
            best = Some((f[1].len(), f[2].to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// FNV-1a over the sources that build the measured program (a version
/// stamp for checkouts that are not git repositories).
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else { return };
    for e in rd.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.set("latency_ms", 1.25, "ms");
        m.set("latency_ms", 1.5, "ms");
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert_eq!(num(f64::INFINITY), "1.7976931348623157e308");
        assert_eq!(text("a\"b"), "\"a\\\"b\"");
    }
}
