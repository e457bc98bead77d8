//! Shared plumbing: metric records, percentiles, host facts, the
//! per-process tmpfs directory and the closed-form job accounting every
//! workload reports in the same way.

use fdmax::service::{JobOutcome, ServiceReport};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One reported metric: name, value, unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric list with a name-checked `push`.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.0.push(Metric { name, value, unit });
    }

    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.push(name, value as f64, "count");
    }

    pub fn json(&self) -> String {
        let body = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!("{{{body}}}")
    }
}

/// A JSON number with every digit Rust's shortest round-trip `Display`
/// gives; non-finite values (never expected) become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// Nearest-rank percentile (`q` in `0..=100`) of an unsorted sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Job latencies in log-spaced buckets 0.1% wide, from 10 ns to
/// 1000 s. Memory stays fixed however many jobs a run serves, so a
/// faster program never reads as a larger `peak_rss_mib`.
#[derive(Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

const HIST_MIN_US: f64 = 0.01;
const HIST_GROWTH: f64 = 1.001;

impl Default for Histogram {
    fn default() -> Self {
        let buckets = ((1e9 / HIST_MIN_US).ln() / HIST_GROWTH.ln()).ceil() as usize;
        Histogram {
            counts: vec![0; buckets],
            total: 0,
        }
    }
}

impl Histogram {
    pub fn record(&mut self, us: f64) {
        let idx = ((us / HIST_MIN_US).ln() / HIST_GROWTH.ln()).floor();
        let idx = (idx.max(0.0) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    fn rank(&self, q: f64) -> u64 {
        (((q / 100.0) * self.total as f64).ceil() as u64).clamp(1, self.total.max(1))
    }

    /// Nearest-rank percentile, at the geometric centre of its bucket.
    pub fn percentile(&self, q: f64) -> f64 {
        let rank = self.rank(q);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return HIST_MIN_US * HIST_GROWTH.powf(idx as f64 + 0.5);
            }
        }
        f64::NAN
    }

    /// Samples strictly above the nearest-rank `q`-th percentile.
    pub fn beyond(&self, q: f64) -> u64 {
        self.total - self.rank(q).min(self.total)
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Worker threads for the strip-parallel and tiled rungs: two, or
/// fewer when the host has fewer cores — never the service default of
/// four, which oversubscribes small hosts.
pub fn bench_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, 2)
}

/// Last-level cache size in bytes, read from the host's cache topology
/// (32 MiB when it cannot be read).
pub fn llc_bytes() -> usize {
    let read = |i: usize| -> Option<usize> {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let level: usize = std::fs::read_to_string(format!("{base}/level"))
            .ok()?
            .trim()
            .parse()
            .ok()?;
        let size = std::fs::read_to_string(format!("{base}/size")).ok()?;
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1024),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1024 * 1024),
                None => (size, 1),
            },
        };
        Some(level * (1 << 40) + num.parse::<usize>().ok()? * mult)
    };
    (0..8)
        .filter_map(read)
        .max()
        .map_or(32 << 20, |packed| packed % (1 << 40))
}

/// A private scratch directory for journals and checkpoints, removed on
/// drop. It lives on tmpfs (`/dev/shm`) so the root disk's journaling
/// and discard latency never reach the timed phase; when tmpfs is not
/// writable it falls back to `<target>/perfbench-tmp` inside the
/// checkout.
#[derive(Debug)]
pub struct ScratchDir {
    root: PathBuf,
    pub on_tmpfs: bool,
}

impl ScratchDir {
    pub fn create(fallback_parent: &Path, tag: &str) -> ScratchDir {
        let name = format!("fdmax-perfbench-{tag}-{}", std::process::id());
        let shm = Path::new("/dev/shm").join(&name);
        if std::fs::create_dir_all(&shm).is_ok() && probe_writable(&shm) {
            return ScratchDir {
                root: shm,
                on_tmpfs: true,
            };
        }
        let _ = std::fs::remove_dir_all(&shm);
        let local = fallback_parent.join("perfbench-tmp").join(name);
        std::fs::create_dir_all(&local).expect("create scratch dir inside the checkout");
        ScratchDir {
            root: local,
            on_tmpfs: false,
        }
    }

    /// A fresh, empty sub-directory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch sub-directory");
        dir
    }
}

fn probe_writable(dir: &Path) -> bool {
    let probe = dir.join("probe");
    let ok = std::fs::write(&probe, b"ok").is_ok();
    let _ = std::fs::remove_file(&probe);
    ok
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Recursively copies a flat journal directory (journal + checkpoint
/// files; worker sub-directories one level down).
pub fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy target");
    for entry in std::fs::read_dir(from).expect("read journal dir") {
        let entry = entry.expect("dir entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).expect("copy journal file");
        }
    }
}

/// Interior lattice sites of a report's grid times the steps of the
/// attempt that served it — the work behind a numeric answer.
pub fn served_lattice_updates(report: &ServiceReport) -> u64 {
    let Some(solution) = &report.solution else {
        return 0;
    };
    let interior = (solution.rows().saturating_sub(2) * solution.cols().saturating_sub(2)) as u64;
    let steps = report
        .attempts
        .iter()
        .find(|a| matches!(a.disposition, fdmax::service::AttemptDisposition::Served))
        .map_or(0, |a| a.iterations);
    interior * steps
}

/// `true` when the job got a numeric solution by its deadline.
pub fn good(report: &ServiceReport) -> bool {
    matches!(report.outcome, JobOutcome::Served { .. })
        && report.solution.is_some()
        && report.deadline_met()
}

/// FNV-1a fold of report digests in job order.
pub fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests
        .into_iter()
        .fold(fdmax::durability::FNV_OFFSET, |h, d| {
            fdmax::durability::fnv1a(h, &d.to_le_bytes())
        })
}

/// Tallies every timed pass of a workload produces; turned into the
/// end-to-end metrics in one place.
#[derive(Debug, Default)]
pub struct Tally {
    /// Wall time of the timed phase.
    pub timed: Duration,
    /// Jobs offered (submissions and refusals alike).
    pub offered: u64,
    /// Jobs the harness cancelled (excluded from goodput).
    pub harness_cancelled: u64,
    /// Jobs that reached a terminal report.
    pub terminal: u64,
    /// Jobs served with a numeric answer by their deadline.
    pub good: u64,
    /// Contract breaches: failed outcomes and deadline misses.
    pub failed: u64,
    /// Lattice updates of serving attempts with numeric answers.
    pub lattice_updates: u64,
    /// Submit-to-report wall latency of every terminal job.
    pub latencies: Histogram,
}

impl Tally {
    pub fn record(&mut self, report: &ServiceReport, latency: Duration) {
        self.terminal += 1;
        self.latencies.record(micros(latency));
        if good(report) {
            self.good += 1;
            self.lattice_updates += served_lattice_updates(report);
        }
        let cancelled = matches!(report.outcome, JobOutcome::Cancelled { .. });
        if matches!(report.outcome, JobOutcome::Failed(_)) || (!cancelled && !report.deadline_met())
        {
            self.failed += 1;
        }
    }

    pub fn jobs_per_s(&self) -> f64 {
        self.terminal as f64 / self.timed.as_secs_f64()
    }

    /// The end-to-end metrics every workload reports (`setup_s`,
    /// `peak_rss_mib` and `recover_ms` are added by the caller).
    pub fn end_to_end(&self, tail_pct: f64, metrics: &mut Metrics) {
        let tail = self.latencies.percentile(tail_pct);
        eprintln!(
            "job_latency_tail_us = {tail:.3} us: p{tail_pct} of {} samples, {} beyond it",
            self.latencies.len(),
            self.latencies.beyond(tail_pct)
        );
        metrics.push("jobs_per_s", self.jobs_per_s(), "1/s");
        metrics.push("job_latency_p50_us", self.latencies.percentile(50.0), "us");
        metrics.push("job_latency_tail_us", tail, "us");
        metrics.push(
            "mlups",
            self.lattice_updates as f64 / self.timed.as_secs_f64() / 1e6,
            "MLUP/s",
        );
        metrics.push(
            "goodput_fraction",
            self.good as f64 / (self.offered - self.harness_cancelled) as f64,
            "fraction",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
    }

    #[test]
    fn histogram_percentiles_within_a_bucket() {
        let mut h = Histogram::default();
        for v in 1..=1000 {
            h.record(f64::from(v));
        }
        for (q, want) in [(50.0, 500.0), (99.0, 990.0)] {
            let got = h.percentile(q);
            assert!((got - want).abs() / want < 1.5e-3, "p{q}: {got} vs {want}");
        }
        assert_eq!(h.beyond(99.0), 10);
        assert_eq!(h.beyond(90.0), 100);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.125), "0.125");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
