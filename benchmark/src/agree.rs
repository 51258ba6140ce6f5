//! `--agree A.json B.json`: do two merged results say the same thing,
//! under the benchmark's own bounds?
//!
//! - an *exact* metric (a count, or simulated time) must be equal;
//! - a *timed* end-to-end metric agrees when B is not worse than A by
//!   more than the metric's bound — unless either run's own
//!   inter-quartile spread exceeds that bound, in which case the pair
//!   is `unresolved`: noise that wide cannot show agreement;
//! - timed per-layer metrics carry no bound and are listed only.

use metal_obs::Json;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    Disagree,
    Unresolved,
    /// Timed and unbounded: reported, never judged.
    Info,
}

/// The fields of one metric entry in a merged result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading<'a> {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub kind: &'a str,
    pub better: &'a str,
    pub bound: Option<f64>,
}

impl<'a> Reading<'a> {
    fn from_json(m: &'a Json) -> Option<Reading<'a>> {
        let num = |k: &str| m.get(k).and_then(Json::as_f64);
        Some(Reading {
            value: num("value")?,
            q1: num("q1")?,
            q3: num("q3")?,
            kind: m.get("kind")?.as_str()?,
            better: m.get("better")?.as_str()?,
            bound: num("bound"),
        })
    }

    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

/// How much worse `b` reads than `a`, as a share of `a` (negative when
/// `b` is better).
fn worse_by(a: &Reading, b: &Reading) -> f64 {
    if a.value == 0.0 {
        return if b.value == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let delta = (b.value - a.value) / a.value.abs();
    if a.better == "lower" {
        delta
    } else {
        -delta
    }
}

pub fn judge(a: &Reading, b: &Reading) -> Verdict {
    if a.kind == "exact" {
        return if a.value == b.value {
            Verdict::Agree
        } else {
            Verdict::Disagree
        };
    }
    let Some(bound) = a.bound else {
        return Verdict::Info;
    };
    if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worse_by(a, b).abs() <= bound {
        Verdict::Agree
    } else {
        Verdict::Disagree
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn entries(v: Option<&Json>) -> &[(String, Json)] {
    match v {
        Some(Json::Obj(fields)) => fields,
        _ => &[],
    }
}

/// Prints one line per judged metric and a tally; returns the exit code
/// (0 only when nothing disagrees and nothing is unresolved).
pub fn run(a_path: &Path, b_path: &Path) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("metal-benchmark: --agree: {e}");
            }
            return crate::EXIT_USAGE;
        }
    };
    for key in ["schema", "seed", "smoke"] {
        if a.get(key) != b.get(key) {
            eprintln!(
                "metal-benchmark: --agree: the two results differ in '{key}' ({:?} vs {:?}); \
                 only runs of the same sizes and seed are comparable",
                a.get(key),
                b.get(key)
            );
            return crate::EXIT_USAGE;
        }
    }

    let mut tally = [0usize; 4];
    for (workload, wa) in entries(a.get("workloads")) {
        let wb = b.get("workloads").and_then(|w| w.get(workload));
        for group in ["end_to_end", "per_layer"] {
            for (name, ma) in entries(wa.get(group)) {
                let mb = wb.and_then(|w| w.get(group)).and_then(|g| g.get(name));
                let (Some(ra), Some(rb)) =
                    (Reading::from_json(ma), mb.and_then(Reading::from_json))
                else {
                    println!(
                        "{workload:<10} {name:<56} DISAGREE  missing or malformed in one result"
                    );
                    tally[Verdict::Disagree as usize] += 1;
                    continue;
                };
                let verdict = judge(&ra, &rb);
                tally[verdict as usize] += 1;
                let label = match verdict {
                    Verdict::Agree => "agree",
                    Verdict::Disagree => "DISAGREE",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Info => "info",
                };
                println!(
                    "{workload:<10} {name:<56} {label:<10} {:>16.6} vs {:>16.6} ({:+.2}% worse; \
                     spreads {:.2}% / {:.2}%{})",
                    ra.value,
                    rb.value,
                    worse_by(&ra, &rb) * 100.0,
                    ra.spread() * 100.0,
                    rb.spread() * 100.0,
                    ra.bound
                        .map_or(String::new(), |b| format!("; bound {:.0}%", b * 100.0)),
                );
            }
        }
    }
    println!(
        "# agree {} / disagree {} / unresolved {} / informational {}",
        tally[Verdict::Agree as usize],
        tally[Verdict::Disagree as usize],
        tally[Verdict::Unresolved as usize],
        tally[Verdict::Info as usize]
    );
    if tally[Verdict::Disagree as usize] + tally[Verdict::Unresolved as usize] == 0 {
        0
    } else {
        crate::EXIT_CHECK
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(value: f64, q1: f64, q3: f64, better: &'static str) -> Reading<'static> {
        Reading {
            value,
            q1,
            q3,
            kind: "timed",
            better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn exact_metrics_must_be_equal() {
        let a = Reading {
            kind: "exact",
            bound: None,
            ..timed(2.5, 2.5, 2.5, "higher")
        };
        assert_eq!(judge(&a, &a), Verdict::Agree);
        let b = Reading { value: 2.5001, ..a };
        assert_eq!(judge(&a, &b), Verdict::Disagree);
    }

    #[test]
    fn timed_metrics_agree_within_the_bound_in_their_direction() {
        let a = timed(100.0, 99.0, 101.0, "higher");
        assert_eq!(
            judge(&a, &timed(92.0, 91.0, 93.0, "higher")),
            Verdict::Agree
        );
        assert_eq!(
            judge(&a, &timed(88.0, 87.0, 89.0, "higher")),
            Verdict::Disagree
        );
        assert!(worse_by(&a, &timed(88.0, 87.0, 89.0, "higher")) > 0.0);
        let lower = timed(1.0, 0.99, 1.01, "lower");
        assert!(worse_by(&lower, &timed(1.2, 1.19, 1.21, "lower")) > 0.0);
        assert_eq!(
            judge(&lower, &timed(1.2, 1.19, 1.21, "lower")),
            Verdict::Disagree
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_agreement() {
        let noisy = timed(100.0, 90.0, 105.0, "higher");
        let calm = timed(100.0, 99.0, 101.0, "higher");
        assert_eq!(judge(&noisy, &calm), Verdict::Unresolved);
        assert_eq!(judge(&calm, &noisy), Verdict::Unresolved);
    }

    #[test]
    fn unbounded_timed_metrics_are_informational() {
        let a = Reading {
            bound: None,
            ..timed(50.0, 10.0, 90.0, "lower")
        };
        assert_eq!(judge(&a, &a), Verdict::Info);
    }
}
