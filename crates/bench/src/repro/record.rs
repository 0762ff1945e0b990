//! The `cool-repro-v1` record: one matrix point's measurements, as a
//! byte-stable JSON object.
//!
//! Like `cool-metrics-v1` and `cool-serve-v1`, the writer is hand-rolled
//! string formatting over a fixed key order (the offline build has no JSON
//! dependency), and the reader is the line-oriented flat-object parser the
//! `cool-serve-v1` report shares, which accepts exactly the documents the
//! writers produce. Round-tripping a record
//! through [`ReproRecord::to_json`] / [`ReproRecord::parse`] is the
//! identity on bytes — the CI drift gate and the byte-for-byte `cmp` of
//! regenerated results both rely on that.
//!
//! Each record carries its point's full config string and that string's
//! hash. They are provenance — what produced these numbers — not cache
//! keys: every sweep simulates every point.

use apps::{AppReport, Version};

use crate::flat::{canon6, FlatObject};

/// Schema tag stamped into every record and document.
pub const REPRO_SCHEMA: &str = "cool-repro-v1";

/// Bumped whenever simulated behaviour changes *intentionally* (a scheduler
/// fix, a latency-table change, an app change). It is folded into every
/// config string and therefore every record's hash, so a committed record
/// names the simulator generation that produced it. Config mutations
/// (machine, policy, inputs, processor count) are captured by the
/// fingerprints themselves.
///
/// Epoch 2: machine-scale sweeps run through the contention engine
/// (bus/net/directory/memory resources with queueing), and records
/// carry `wait_cycles` / `peak_occ`.
pub const REPRO_EPOCH: u32 = 2;

fn canon3e(x: f64) -> f64 {
    format!("{x:.3e}").parse().expect("formatted float reparses")
}

/// FNV-1a 64-bit over a string — the hash of a record's config string.
/// Stable across platforms and runs by construction.
pub fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Everything measured at one matrix point, plus the identity and config
/// fingerprint that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct ReproRecord {
    /// Application name (one of `apps::driver::APP_NAMES`).
    pub app: String,
    /// Scheduling-version label (the figure series), e.g. `Affinity+Distr`.
    pub series: String,
    /// Simulated processors.
    pub nprocs: usize,
    /// Experiment scale (`small` / `full`).
    pub scale: String,
    /// Full human-readable config fingerprint (inputs, machine, policy,
    /// scheduler constants, repro epoch): the record's provenance.
    pub config: String,
    /// `fnv1a64(config)` in lower-case hex — a short handle on `config`.
    pub hash: String,
    /// Speedup vs the 1-processor `Base` run of the same app and scale.
    /// Derived from the record *set* after a sweep (see
    /// `derive_speedups`); `0.0` until then.
    pub speedup: f64,
    /// Elapsed virtual cycles of the parallel section.
    pub elapsed: u64,
    /// Execution-time breakdown: busy cycles across processors.
    pub busy: u64,
    /// Idle cycles across processors.
    pub idle: u64,
    /// Scheduling-overhead cycles across processors.
    pub overhead: u64,
    /// Shared-data references issued (PerfMonitor).
    pub refs: u64,
    /// References serviced in the first-level cache.
    pub l1_hits: u64,
    /// References serviced in the second-level cache.
    pub l2_hits: u64,
    /// Misses serviced from local memory.
    pub local_misses: u64,
    /// Misses serviced from remote memory (or a remote dirty cache).
    pub remote_misses: u64,
    /// Coherence invalidations sent.
    pub invalidations: u64,
    /// Queue-wait cycles summed over every contention resource (0 in
    /// zero-contention mode).
    pub wait_cycles: u64,
    /// Peak instantaneous occupancy over all contention resources.
    pub peak_occ: u64,
    /// Affinity adherence: fraction of hinted tasks on their hinted server.
    pub adherence: f64,
    /// Max numeric deviation from the app's sequential reference.
    pub max_error: f64,
}

impl ReproRecord {
    /// Total cache misses (the Figure 11 / Figure 15 quantity).
    pub fn misses(&self) -> u64 {
        self.local_misses + self.remote_misses
    }

    /// Fraction of misses serviced locally (0 when there were none).
    pub fn local_frac(&self) -> f64 {
        let m = self.misses();
        if m == 0 {
            0.0
        } else {
            self.local_misses as f64 / m as f64
        }
    }

    /// Fraction of references serviced by either cache level.
    pub fn cache_frac(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            (self.l1_hits + self.l2_hits) as f64 / self.refs as f64
        }
    }

    /// Build a record from a finished run. `speedup` stays 0 until the
    /// sweep-level post-pass fills it in from the 1-processor baseline.
    pub fn from_report(
        app: &str,
        version: Version,
        nprocs: usize,
        scale: &str,
        config: String,
        report: &AppReport,
    ) -> Self {
        let r = &report.run;
        ReproRecord {
            app: app.to_string(),
            series: version.label().to_string(),
            nprocs,
            scale: scale.to_string(),
            hash: format!("{:016x}", fnv1a64(&config)),
            config,
            speedup: 0.0,
            elapsed: r.elapsed,
            busy: r.busy_cycles,
            idle: r.idle_cycles,
            overhead: r.overhead_cycles,
            refs: r.mem.refs,
            l1_hits: r.mem.l1_hits,
            l2_hits: r.mem.l2_hits,
            local_misses: r.mem.local_misses,
            remote_misses: r.mem.remote_misses,
            invalidations: r.mem.invalidations,
            wait_cycles: r.contention.total_wait(),
            peak_occ: r.contention.peak_occupancy(),
            adherence: canon6(r.stats.adherence()),
            max_error: canon3e(report.max_error),
        }
    }

    /// The record as a `cool-repro-v1` JSON object, indented by `indent`
    /// spaces. Key order and number formatting are fixed, so equal records
    /// produce equal bytes.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let mut s = String::new();
        s.push_str(&format!("{pad}{{\n"));
        s.push_str(&format!("{inner}\"schema\": \"{REPRO_SCHEMA}\",\n"));
        s.push_str(&format!("{inner}\"app\": \"{}\",\n", self.app));
        s.push_str(&format!("{inner}\"series\": \"{}\",\n", self.series));
        s.push_str(&format!("{inner}\"nprocs\": {},\n", self.nprocs));
        s.push_str(&format!("{inner}\"scale\": \"{}\",\n", self.scale));
        s.push_str(&format!("{inner}\"config\": \"{}\",\n", self.config));
        s.push_str(&format!("{inner}\"hash\": \"{}\",\n", self.hash));
        s.push_str(&format!("{inner}\"speedup\": {:.6},\n", self.speedup));
        s.push_str(&format!("{inner}\"elapsed\": {},\n", self.elapsed));
        s.push_str(&format!("{inner}\"busy\": {},\n", self.busy));
        s.push_str(&format!("{inner}\"idle\": {},\n", self.idle));
        s.push_str(&format!("{inner}\"overhead\": {},\n", self.overhead));
        s.push_str(&format!("{inner}\"refs\": {},\n", self.refs));
        s.push_str(&format!("{inner}\"l1_hits\": {},\n", self.l1_hits));
        s.push_str(&format!("{inner}\"l2_hits\": {},\n", self.l2_hits));
        s.push_str(&format!("{inner}\"local_misses\": {},\n", self.local_misses));
        s.push_str(&format!("{inner}\"remote_misses\": {},\n", self.remote_misses));
        s.push_str(&format!("{inner}\"invalidations\": {},\n", self.invalidations));
        s.push_str(&format!("{inner}\"wait_cycles\": {},\n", self.wait_cycles));
        s.push_str(&format!("{inner}\"peak_occ\": {},\n", self.peak_occ));
        s.push_str(&format!("{inner}\"adherence\": {:.6},\n", self.adherence));
        s.push_str(&format!("{inner}\"max_error\": {:.3e}\n", self.max_error));
        s.push_str(&format!("{pad}}}"));
        s
    }

    /// Parse one record object (the exact shape [`ReproRecord::to_json`]
    /// writes). Returns a description of the first problem found.
    pub fn parse(text: &str) -> Result<Self, String> {
        let f = FlatObject::parse(text)?;
        let schema = f.string("schema")?;
        if schema != REPRO_SCHEMA {
            return Err(format!("schema {schema:?}, expected {REPRO_SCHEMA:?}"));
        }
        Ok(ReproRecord {
            app: f.string("app")?,
            series: f.string("series")?,
            nprocs: f.scalar("nprocs")?,
            scale: f.string("scale")?,
            config: f.string("config")?,
            hash: f.string("hash")?,
            speedup: f.scalar("speedup")?,
            elapsed: f.scalar("elapsed")?,
            busy: f.scalar("busy")?,
            idle: f.scalar("idle")?,
            overhead: f.scalar("overhead")?,
            refs: f.scalar("refs")?,
            l1_hits: f.scalar("l1_hits")?,
            l2_hits: f.scalar("l2_hits")?,
            local_misses: f.scalar("local_misses")?,
            remote_misses: f.scalar("remote_misses")?,
            invalidations: f.scalar("invalidations")?,
            wait_cycles: f.scalar("wait_cycles")?,
            peak_occ: f.scalar("peak_occ")?,
            adherence: f.scalar("adherence")?,
            max_error: f.scalar("max_error")?,
        })
    }
}

/// Serialise a whole sweep as a `cool-repro-v1` matrix document: a header
/// (schema, scale, point count) plus every record in matrix order.
pub fn records_doc(scale: &str, records: &[ReproRecord]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{REPRO_SCHEMA}\",\n"));
    s.push_str("  \"kind\": \"matrix\",\n");
    s.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    s.push_str(&format!("  \"points\": {},\n", records.len()));
    s.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str(&r.to_json(4));
        s.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parse a matrix document back into records (the exact shape
/// [`records_doc`] writes). Validates the schema tag and the point count.
pub fn parse_records_doc(text: &str) -> Result<Vec<ReproRecord>, String> {
    if !text.contains(&format!("\"schema\": \"{REPRO_SCHEMA}\"")) {
        return Err(format!("document carries no {REPRO_SCHEMA:?} schema tag"));
    }
    let mut records = Vec::new();
    let mut current: Option<String> = None;
    let mut declared_points: Option<usize> = None;
    for line in text.lines() {
        let t = line.trim();
        if current.is_none() {
            if let Some(v) = t.strip_prefix("\"points\":") {
                let v = v.trim().trim_end_matches(',');
                declared_points = Some(v.parse().map_err(|e| format!("points: {e}"))?);
            }
        }
        if t == "{" && line.starts_with("    ") {
            current = Some(String::from("{\n"));
            continue;
        }
        if let Some(buf) = current.as_mut() {
            if t == "}" || t == "}," {
                buf.push('}');
                records.push(ReproRecord::parse(buf)?);
                current = None;
            } else {
                buf.push_str(t);
                buf.push('\n');
            }
        }
    }
    if let Some(n) = declared_points {
        if n != records.len() {
            return Err(format!("document declares {n} points, found {}", records.len()));
        }
    }
    Ok(records)
}

/// Fill in each record's speedup from the 1-processor `Base` run of the
/// same `(app, scale)` — the paper's baseline convention. Records whose
/// baseline is absent from the set keep speedup 0 (the renderer flags
/// them); every matrix built by [`super::matrix`] includes its baselines.
pub fn derive_speedups(records: &mut [ReproRecord]) {
    let baselines: Vec<(String, String, u64)> = records
        .iter()
        .filter(|r| r.series == "Base" && r.nprocs == 1)
        .map(|r| (r.app.clone(), r.scale.clone(), r.elapsed))
        .collect();
    for r in records.iter_mut() {
        let base = baselines
            .iter()
            .find(|(a, s, _)| *a == r.app && *s == r.scale)
            .map(|(_, _, e)| *e);
        r.speedup = match base {
            Some(serial) if r.elapsed > 0 => canon6(serial as f64 / r.elapsed as f64),
            _ => 0.0,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReproRecord {
        ReproRecord {
            app: "gauss".into(),
            series: "Base".into(),
            nprocs: 4,
            scale: "small".into(),
            config: "gauss@small n32 seed7 | p4x4 | epoch=1".into(),
            hash: format!("{:016x}", fnv1a64("gauss@small n32 seed7 | p4x4 | epoch=1")),
            speedup: 1.25,
            elapsed: 1000,
            busy: 700,
            idle: 200,
            overhead: 100,
            refs: 5000,
            l1_hits: 4000,
            l2_hits: 500,
            local_misses: 300,
            remote_misses: 200,
            invalidations: 10,
            wait_cycles: 640,
            peak_occ: 3,
            adherence: 0.875,
            max_error: 1.25e-13,
        }
    }

    #[test]
    fn record_roundtrips_byte_identically() {
        let r = sample();
        let json = r.to_json(0);
        let back = ReproRecord::parse(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(0), json, "reserialisation is the identity");
    }

    #[test]
    fn doc_roundtrips() {
        let a = sample();
        let mut b = sample();
        b.series = "Affinity+Distr".into();
        b.nprocs = 8;
        b.elapsed = 250;
        let doc = records_doc("small", &[a.clone(), b.clone()]);
        let back = parse_records_doc(&doc).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], a);
        assert_eq!(back[1], b);
        assert_eq!(records_doc("small", &back), doc);
    }

    #[test]
    fn parse_rejects_wrong_schema_and_truncation() {
        let r = sample();
        let json = r.to_json(0).replace(REPRO_SCHEMA, "cool-repro-v0");
        assert!(ReproRecord::parse(&json).is_err());
        let doc = records_doc("small", &[sample()]).replace("\"points\": 1", "\"points\": 2");
        assert!(parse_records_doc(&doc).is_err());
    }

    #[test]
    fn derived_quantities() {
        let r = sample();
        assert_eq!(r.misses(), 500);
        assert!((r.local_frac() - 0.6).abs() < 1e-12);
        assert!((r.cache_frac() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn speedup_derivation_uses_base_at_one_proc() {
        let mut base = sample();
        base.series = "Base".into();
        base.nprocs = 1;
        base.elapsed = 2000;
        let mut fast = sample();
        fast.nprocs = 8;
        fast.elapsed = 500;
        let mut other_app = sample();
        other_app.app = "ocean".into();
        other_app.elapsed = 100;
        let mut recs = vec![base, fast, other_app];
        derive_speedups(&mut recs);
        assert!((recs[0].speedup - 1.0).abs() < 1e-12);
        assert!((recs[1].speedup - 4.0).abs() < 1e-12);
        assert_eq!(recs[2].speedup, 0.0, "no baseline for ocean in the set");
    }

    #[test]
    fn fnv_is_stable() {
        // Known FNV-1a vectors.
        assert_eq!(fnv1a64(""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64("a"), 0xaf63dc4c8601ec8c);
    }
}
