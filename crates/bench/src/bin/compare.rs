//! The arithmetic of `tools/compare.sh`: reads the `hetbench` result lines
//! of alternated base/change pairs and prints, per workload and end-to-end
//! metric, each side's median [q1, q3] by nearest rank, change/base, the
//! pairs the change won, and whether the medians differ by more than the
//! base's inter-quartile distance.
//!
//! ```text
//! compare plan     # prints `<run_seconds> <workload>,<workload>,...`
//! compare RUNS     # prints the table
//! ```
//!
//! Both read `BENCHMARK.json` in the working directory: `plan` gives the
//! shell its run length and workload list, and the table's metrics and
//! which way is better come from its `end_to_end` list. `RUNS` holds one
//! line per run: `<base|change> <workload> <seed> <json>`, where `<json>`
//! is the last stdout line of
//! `hetbench --workload <workload> --seed <seed> ... --trace 0` (`null` if
//! the run printed none). The base and change runs of one workload with
//! the same seed form a pair. Exits 1 if any run failed an operation or
//! printed no correct result, 2 on a usage or input error.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// An end-to-end metric of the spec.
#[derive(Debug, PartialEq)]
struct Metric {
    name: String,
    higher_is_better: bool,
}

/// One `hetbench` result line.
#[derive(Debug, Default, PartialEq)]
struct Run {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// The raw token after `"key": ` in `json`: up to the next `,` or `}`,
/// quotes stripped.
fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let at = json.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &json[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// A result line: `correct`, `failed`, and every `"name": {"value": x}`
/// under `metrics` whose value is a number.
fn parse_run(json: &str) -> Run {
    let mut run = Run {
        correct: field(json, "correct") == Some("true"),
        failed: field(json, "failed")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        ..Run::default()
    };
    let Some(at) = json.find("\"metrics\": ") else {
        return run;
    };
    let mut rest = &json[at..];
    const VALUE: &str = ": {\"value\": ";
    while let Some(i) = rest.find(VALUE) {
        let key = rest[..i].trim_end_matches('"');
        let key = &key[key.rfind('"').map_or(0, |q| q + 1)..];
        rest = &rest[i + VALUE.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        if let Ok(v) = rest[..end].trim().parse::<f64>() {
            run.metrics.insert(key.to_string(), v);
        }
        rest = &rest[end..];
    }
    run
}

/// What `compare` takes from the benchmark's spec.
#[derive(Debug, PartialEq)]
struct Spec {
    /// Seconds per run, as the spec's `run_seconds` writes them.
    run_seconds: String,
    workloads: Vec<String>,
    end_to_end: Vec<Metric>,
}

/// The entries of the spec's list `key`, each the text after its `{`.
fn entries<'a>(spec: &'a str, key: &str) -> Result<impl Iterator<Item = &'a str>, String> {
    let at = spec
        .find(&format!("\"{key}\""))
        .ok_or(format!("spec has no {key} list"))?;
    let list = &spec[at..];
    let list = &list[..list.find(']').ok_or(format!("{key} list is not closed"))?];
    Ok(list.split('{').skip(1))
}

/// The spec's run length, workloads and `end_to_end` metrics, in its order.
fn parse_spec(spec: &str) -> Result<Spec, String> {
    let run_seconds = field(spec, "run_seconds")
        .filter(|s| s.parse::<f64>().is_ok_and(|s| s > 0.0))
        .ok_or("spec has no positive run_seconds")?
        .to_string();
    let workloads = entries(spec, "workloads")?
        .map(|entry| {
            field(entry, "name")
                .map(str::to_string)
                .ok_or("a workload has no name".to_string())
        })
        .collect::<Result<_, _>>()?;
    let end_to_end = entries(spec, "end_to_end")?
        .map(|entry| {
            let name = field(entry, "name").ok_or("an end_to_end entry has no name")?;
            let higher_is_better = match field(entry, "better") {
                Some("higher") => true,
                Some("lower") => false,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            Ok(Metric {
                name: name.to_string(),
                higher_is_better,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Spec {
        run_seconds,
        workloads,
        end_to_end,
    })
}

/// The `p`-quantile of `sorted` by nearest rank: the smallest value with
/// at least `p · n` values at or below it.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median, first and third quartile by nearest rank.
#[derive(Debug, PartialEq)]
struct Quartiles {
    q1: f64,
    median: f64,
    q3: f64,
}

fn quartiles(values: &[f64]) -> Quartiles {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Quartiles {
        q1: nearest_rank(&sorted, 0.25),
        median: nearest_rank(&sorted, 0.5),
        q3: nearest_rank(&sorted, 0.75),
    }
}

/// One metric of one workload over its pairs, `(base, change)` per pair.
#[derive(Debug, PartialEq)]
struct Row {
    base: Quartiles,
    change: Quartiles,
    /// Pairs in which the change is strictly better.
    won: usize,
    pairs: usize,
    /// The medians differ by more than the base's q3 − q1.
    beyond_base_iqr: bool,
    /// The change's median is the better one.
    median_better: bool,
}

fn row(pairs: &[(f64, f64)], higher_is_better: bool) -> Row {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let (base, change): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    let (base, change) = (quartiles(&base), quartiles(&change));
    Row {
        won: pairs.iter().filter(|&&(b, c)| better(c, b)).count(),
        pairs: pairs.len(),
        beyond_base_iqr: (change.median - base.median).abs() > base.q3 - base.q1,
        median_better: better(change.median, base.median),
        base,
        change,
    }
}

/// `x` to four significant digits.
fn sig(x: f64) -> String {
    let digits = if x == 0.0 {
        0
    } else {
        (3 - x.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{x:.digits$}")
}

fn render(q: &Quartiles) -> String {
    format!("{} [{}, {}]", sig(q.median), sig(q.q1), sig(q.q3))
}

/// Runs keyed by workload (in order of first appearance), then seed, then
/// side (`false` base, `true` change).
type Runs = Vec<(String, BTreeMap<(u64, bool), Run>)>;

fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs: Runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let mut parts = line.splitn(4, ' ');
        let (Some(side), Some(workload), Some(seed), Some(json)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "line {}: want `<side> <workload> <seed> <json>`",
                n + 1
            ));
        };
        let change = match side {
            "base" => false,
            "change" => true,
            _ => {
                return Err(format!(
                    "line {}: side {side:?} is not base or change",
                    n + 1
                ))
            }
        };
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("line {}: seed {seed:?} is not a number", n + 1))?;
        let at = match runs.iter().position(|(w, _)| w == workload) {
            Some(at) => at,
            None => {
                runs.push((workload.to_string(), BTreeMap::new()));
                runs.len() - 1
            }
        };
        runs[at].1.insert((seed, change), parse_run(json));
    }
    Ok(runs)
}

/// The report, and whether every run was correct with no failed operation.
fn report(metrics: &[Metric], runs: &Runs) -> (String, bool) {
    let mut out = String::new();
    let mut clean = true;
    for (workload, by_seed) in runs {
        let sides = |change: bool| by_seed.iter().filter(move |((_, c), _)| *c == change);
        let failed = |change: bool| sides(change).map(|(_, r)| r.failed).sum::<u64>();
        let correct = |change: bool| sides(change).filter(|(_, r)| r.correct).count();
        let total = |change: bool| sides(change).count();
        clean &= failed(false) + failed(true) == 0
            && correct(false) == total(false)
            && correct(true) == total(true);
        out += &format!(
            "{workload}: correct runs base {}/{}, change {}/{}; failed ops base {}, change {}\n\n",
            correct(false),
            total(false),
            correct(true),
            total(true),
            failed(false),
            failed(true),
        );
        out += "| metric | base median [q1, q3] | change median [q1, q3] | change/base | pairs won | beyond base IQR |\n";
        out += "|---|---|---|---|---|---|\n";
        for m in metrics {
            let pairs: Vec<(f64, f64)> = by_seed
                .iter()
                .filter(|((_, change), _)| !change)
                .filter_map(|(&(seed, _), base)| {
                    let change = by_seed.get(&(seed, true))?;
                    Some((*base.metrics.get(&m.name)?, *change.metrics.get(&m.name)?))
                })
                .collect();
            if pairs.is_empty() {
                continue;
            }
            let r = row(&pairs, m.higher_is_better);
            let verdict = match (r.beyond_base_iqr, r.median_better) {
                (false, _) => "no",
                (true, true) => "yes, better",
                (true, false) => "yes, worse",
            };
            out += &format!(
                "| `{}` ({}) | {} | {} | {} | {}/{} | {} |\n",
                m.name,
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                render(&r.base),
                render(&r.change),
                sig(r.change.median / r.base.median),
                r.won,
                r.pairs,
                verdict
            );
        }
        out += "\n";
    }
    (out, clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [arg] = &args[..] else {
        eprintln!("usage: compare plan | compare RUNS");
        return ExitCode::from(2);
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let spec = match read("BENCHMARK.json").and_then(|s| parse_spec(&s)) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    if arg == "plan" {
        println!("{} {}", spec.run_seconds, spec.workloads.join(","));
        return ExitCode::SUCCESS;
    }
    match read(arg).and_then(|text| parse_runs(&text)) {
        Ok(runs) => {
            let (text, clean) = report(&spec.end_to_end, &runs);
            print!("{text}");
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"correct": true, "attempted": 96, "failed": 0, "metrics": {"speedup_vs_serial": {"value": 0.9158, "unit": "x"}, "peak_rss_mb": {"value": 35.5, "unit": "MB"}, "setup_s": {"value": 9.1e-2, "unit": "s"}}}"#;

    #[test]
    fn a_result_line_is_read_field_by_field() {
        let run = parse_run(LINE);
        assert!(run.correct);
        assert_eq!(run.failed, 0);
        let metrics: Vec<(&str, f64)> = run.metrics.iter().map(|(k, &v)| (&k[..], v)).collect();
        assert_eq!(
            metrics,
            [
                ("peak_rss_mb", 35.5),
                ("setup_s", 0.091),
                ("speedup_vs_serial", 0.9158)
            ]
        );
        let failed = parse_run(r#"{"correct": false, "attempted": 9, "failed": 3, "metrics": {}}"#);
        assert_eq!((failed.correct, failed.failed), (false, 3));
        assert_eq!(parse_run("null"), Run::default());
    }

    #[test]
    fn the_spec_gives_the_run_length_workloads_and_end_to_end_metrics() {
        let spec = r#"{"command": ["bash", "benchmark/run.sh"], "paths": ["benchmark"],
          "run_seconds": 20,
          "workloads": [
            {"name": "mandel-gpu", "why": "Fig. 1/4: kernels do the work, queues little."},
            {"name": "dedup-gpu", "why": "Fig. 5's best version."}
          ],
          "end_to_end": [
            {"name": "speedup_vs_serial", "unit": "x", "better": "higher", "bound": 0.25},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
          ], "per_layer": [{"name": "latency_p50_ms", "better": "lower"}]}"#;
        let got = parse_spec(spec).unwrap();
        assert_eq!(got.run_seconds, "20");
        assert_eq!(got.workloads, ["mandel-gpu", "dedup-gpu"]);
        let metrics: Vec<(&str, bool)> = got
            .end_to_end
            .iter()
            .map(|m| (&m.name[..], m.higher_is_better))
            .collect();
        assert_eq!(metrics, [("speedup_vs_serial", true), ("setup_s", false)]);
        let bad_direction = spec.replace(
            "\"better\": \"lower\", \"bound\"",
            "\"better\": \"up\", \"bound\"",
        );
        assert!(parse_spec(&bad_direction).is_err());
        assert!(parse_spec(&spec.replace("\"run_seconds\": 20", "\"run_seconds\": 0")).is_err());
        assert!(parse_spec(&spec.replace("\"workloads\"", "\"jobs\"")).is_err());
    }

    /// The repo's own spec parses: the tool takes its default workloads
    /// and run length from it.
    #[test]
    fn the_benchmark_spec_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let spec = parse_spec(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert!(!spec.workloads.is_empty());
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "speedup_vs_serial"));
    }

    #[test]
    fn nearest_rank_takes_the_smallest_value_covering_the_share() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 0.25), 3.0);
        assert_eq!(nearest_rank(&ten, 0.5), 5.0);
        assert_eq!(nearest_rank(&ten, 0.75), 8.0);
        assert_eq!(nearest_rank(&[7.0], 0.25), 7.0);
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            q,
            Quartiles {
                q1: 1.0,
                median: 2.0,
                q3: 3.0
            }
        );
    }

    #[test]
    fn pairs_won_and_the_iqr_test_follow_the_metric_direction() {
        // Base 1..=10 (IQR 3..8 = 5), change base + 6 except one pair.
        let pairs: Vec<(f64, f64)> = (1..=10)
            .map(|b| (f64::from(b), f64::from(b) + if b == 4 { -1.0 } else { 6.0 }))
            .collect();
        let up = row(&pairs, true);
        assert_eq!((up.won, up.pairs), (9, 10));
        assert_eq!((up.base.median, up.change.median), (5.0, 11.0));
        assert!(up.beyond_base_iqr && up.median_better);
        let down = row(&pairs, false);
        assert_eq!(down.won, 1);
        assert!(down.beyond_base_iqr && !down.median_better);
        // Medians 5 apart against an IQR of 5: not beyond it.
        let near: Vec<(f64, f64)> = (1..=10)
            .map(|b| (f64::from(b), f64::from(b) + 5.0))
            .collect();
        assert!(!row(&near, true).beyond_base_iqr);
        // A tie is not a win.
        assert_eq!(row(&[(1.0, 1.0)], true).won, 0);
    }

    #[test]
    fn the_report_pairs_runs_by_seed_and_flags_failures() {
        let line = |side: &str, seed: u64, v: f64| {
            format!(
                "{side} dedup-gpu {seed} {}",
                LINE.replace("0.9158", &v.to_string())
            )
        };
        let mut text: Vec<String> = (1..=4)
            .flat_map(|s| [line("base", s, 0.75), line("change", s, 0.9)])
            .collect();
        // A base run with no partner is no pair.
        text.push(line("base", 9, 0.1));
        let spec = [Metric {
            name: "speedup_vs_serial".into(),
            higher_is_better: true,
        }];
        let runs = parse_runs(&text.join("\n")).unwrap();
        let (out, clean) = report(&spec, &runs);
        assert!(clean);
        assert!(
            out.contains("| `speedup_vs_serial` (higher) | 0.7500 [0.7500, 0.7500] | 0.9000 [0.9000, 0.9000] | 1.200 | 4/4 | yes, better |"),
            "{out}"
        );
        text.push("change dedup-gpu 9 null".into());
        let (_, clean) = report(&spec, &parse_runs(&text.join("\n")).unwrap());
        assert!(!clean, "a run with no result line is not clean");
        assert!(parse_runs("sideways dedup-gpu 1 null").is_err());
        assert!(parse_runs("base dedup-gpu x null").is_err());
    }

    #[test]
    fn four_significant_digits() {
        assert_eq!(sig(0.91584), "0.9158");
        assert_eq!(sig(35.51), "35.51");
        assert_eq!(sig(1234.4), "1234");
        assert_eq!(sig(0.0), "0");
    }
}
