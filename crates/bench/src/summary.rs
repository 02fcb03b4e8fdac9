//! Parses the benchmark harness's one-line reports into a committable
//! `BENCH_insert.json` summary (benchmark id → median ns per iteration).
//!
//! The harness prints one line per benchmark:
//!
//! ```text
//! insert/fill95/VCF        time: [12.3456 ms] thrpt: [1.2602 Melem/s]
//! ```
//!
//! [`parse_report`] extracts `(id, median_ns)` pairs from such output and
//! [`to_json`] renders them as a stable, sorted, pretty-printed JSON
//! object — hand-rolled because the offline workspace carries no serde.

/// One parsed benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchLine {
    /// Full benchmark id, e.g. `insert/fill95/VCF`.
    pub id: String,
    /// Median wall-clock time per iteration, in nanoseconds.
    pub median_ns: f64,
}

/// Extracts every `… time: [<value> <unit>]` line from harness output.
///
/// Lines that don't match the report shape (compiler noise, test output,
/// blank lines) are ignored. The id is whatever precedes ` time:`, with
/// the alignment padding trimmed.
#[must_use]
pub fn parse_report(output: &str) -> Vec<BenchLine> {
    let mut lines = Vec::new();
    for line in output.lines() {
        let Some((id_part, rest)) = line.split_once(" time: [") else {
            continue;
        };
        let Some((measure, _)) = rest.split_once(']') else {
            continue;
        };
        let Some(ns) = parse_time_ns(measure) else {
            continue;
        };
        let id = id_part.trim();
        if id.is_empty() {
            continue;
        }
        lines.push(BenchLine {
            id: id.to_owned(),
            median_ns: ns,
        });
    }
    lines
}

/// Parses `"12.3456 ms"` (or ns/µs/us/s) into nanoseconds.
fn parse_time_ns(measure: &str) -> Option<f64> {
    let mut parts = measure.split_whitespace();
    let value: f64 = parts.next()?.parse().ok()?;
    let scale = match parts.next()? {
        "ns" => 1.0,
        "µs" | "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        _ => return None,
    };
    if parts.next().is_some() {
        return None;
    }
    Some(value * scale)
}

/// Renders results as a sorted JSON object, `{"id": median_ns, ...}`.
///
/// Keys are sorted so the committed file diffs cleanly run-to-run; later
/// duplicates of an id win (a rerun supersedes its earlier line).
#[must_use]
pub fn to_json(results: &[BenchLine]) -> String {
    let mut map: Vec<(&str, f64)> = Vec::new();
    for line in results {
        match map.iter_mut().find(|(id, _)| *id == line.id) {
            Some(entry) => entry.1 = line.median_ns,
            None => map.push((&line.id, line.median_ns)),
        }
    }
    map.sort_by(|a, b| a.0.cmp(b.0));

    let mut out = String::from("{\n");
    for (i, (id, ns)) in map.iter().enumerate() {
        use std::fmt::Write as _;
        let comma = if i + 1 < map.len() { "," } else { "" };
        let _ = writeln!(out, "  {}: {ns:.1}{comma}", json_string(id));
    }
    out.push_str("}\n");
    out
}

/// Minimal JSON string escaping (bench ids are plain ASCII, but be safe).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_harness_lines_and_skips_noise() {
        let output = "\
   Compiling vcf-bench v0.1.0\n\
insert/fill50/CF                       time: [1.2345 ms] thrpt: [6.6363 Melem/s]\n\
insert/fill95/IVCF3                    time: [987.6540 µs]\n\
random chatter without a time bracket\n\
insert/batch/KVCF_k4_loop              time: [2.0000 s]\n";
        let lines = parse_report(output);
        assert_eq!(
            lines,
            vec![
                BenchLine {
                    id: "insert/fill50/CF".into(),
                    median_ns: 1.2345e6
                },
                BenchLine {
                    id: "insert/fill95/IVCF3".into(),
                    median_ns: 987.654e3
                },
                BenchLine {
                    id: "insert/batch/KVCF_k4_loop".into(),
                    median_ns: 2e9
                },
            ]
        );
    }

    #[test]
    fn parses_every_unit() {
        for (text, ns) in [
            ("x time: [5.0000 ns]", 5.0),
            ("x time: [5.0000 µs]", 5e3),
            ("x time: [5.0000 us]", 5e3),
            ("x time: [5.0000 ms]", 5e6),
            ("x time: [5.0000 s]", 5e9),
        ] {
            let lines = parse_report(text);
            assert_eq!(lines.len(), 1, "failed on {text:?}");
            assert!((lines[0].median_ns - ns).abs() < 1e-9);
        }
    }

    #[test]
    fn json_is_sorted_and_deduplicated() {
        let lines = vec![
            BenchLine {
                id: "b/second".into(),
                median_ns: 2.0,
            },
            BenchLine {
                id: "a/first".into(),
                median_ns: 1.0,
            },
            BenchLine {
                id: "b/second".into(),
                median_ns: 3.0,
            },
        ];
        let json = to_json(&lines);
        assert_eq!(json, "{\n  \"a/first\": 1.0,\n  \"b/second\": 3.0\n}\n");
    }

    #[test]
    fn empty_report_yields_empty_object() {
        assert_eq!(to_json(&parse_report("no benches here")), "{\n}\n");
    }

    #[test]
    fn escapes_hostile_ids() {
        let lines = vec![BenchLine {
            id: "quote\"back\\slash".into(),
            median_ns: 1.0,
        }];
        assert_eq!(to_json(&lines), "{\n  \"quote\\\"back\\\\slash\": 1.0\n}\n");
    }
}
