//! `fda_bench` — the repo's benchmark.
//!
//! ```text
//! fda_bench [run] --workload <name> --seed <u64> [--seconds <s>] [--trace [0|1]] [--smoke]
//! fda_bench all     [--seed <u64>] [--seconds <s>] [--smoke]
//! fda_bench aa      [--seed <u64>] [--seconds <s>] [--smoke]
//! fda_bench compare <old.json> <new.json>
//! fda_bench spec
//! ```
//!
//! `run` measures one workload in this process and prints, as its last
//! line, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics (telemetry off), or with `--trace` the per-layer metrics. `all`
//! runs every workload both ways, each in a child process of its own so
//! peak memory and the `fda_obs` registry are per workload. Any failed
//! output check makes the exit code non-zero. See README.md.

mod alloc;
mod checks;
mod layers;
mod ledger;
mod spec;
mod trace;
mod workloads;

use fda_obs::Json;
use std::process::{Command, ExitCode};
use workloads::Scale;

#[global_allocator]
static ALLOCATOR: alloc::ThreadCountingAlloc = alloc::ThreadCountingAlloc;

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    files: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_string(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        files: Vec::new(),
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().expect("peeked").clone();
        }
    }
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds < 0.0 {
                    return Err("--seconds must not be negative".to_string());
                }
            }
            // `--trace` alone or `--trace 0|1`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--smoke" => args.smoke = true,
            file if !file.starts_with("--") => args.files.push(file.to_string()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn metric_object<'a>(values: &[(&'static str, f64)], unit_of: impl Fn(&str) -> &'a str) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|&(name, value)| {
                let entry = Json::Obj(vec![
                    ("value".to_string(), Json::f64(value)),
                    ("unit".to_string(), Json::str(unit_of(name))),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Measures one workload; prints a detail line, then the result line.
fn run(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("run needs --workload")?;
    let workload = workloads::by_name(name)
        .ok_or_else(|| format!("unknown workload {name}; one of {:?}", spec::WORKLOADS))?;
    let scale = Scale { smoke: args.smoke };
    let seconds = scale.pick(args.seconds, args.seconds.min(0.2));

    let mut detail = vec![
        ("workload", Json::str(name)),
        ("seed", Json::u64(args.seed)),
        ("trace", Json::Bool(args.trace)),
    ];
    let (metrics, attempted, failures) = if args.trace {
        match ledger::run_traced(&workload, args.seed, scale) {
            Ok(traced) => {
                let file = traced.trace_file.display().to_string();
                detail.push(("trace_file", Json::str(file)));
                let units = |n: &str| spec::per_layer(n).map_or("", |m| m.unit);
                (metric_object(&traced.metrics, units), 1, Vec::new())
            }
            Err(e) => (Json::Obj(Vec::new()), 1, vec![format!("traced run: {e}")]),
        }
    } else {
        let e2e = workloads::run_end_to_end(&workload, args.seed, seconds, scale);
        let dispersion = e2e
            .dispersion
            .iter()
            .map(|d| {
                let entry = obj(vec![
                    ("min", Json::f64(d.min)),
                    ("max", Json::f64(d.max)),
                    ("n", Json::u64(d.n as u64)),
                ]);
                (d.name, entry)
            })
            .collect();
        detail.push(("dispersion", obj(dispersion)));
        let units = |n: &str| spec::end_to_end(n).map_or("", |m| m.unit);
        (
            metric_object(&e2e.metrics, units),
            e2e.attempted,
            e2e.failures,
        )
    };
    detail.push((
        "failures",
        Json::Arr(failures.iter().map(Json::str).collect()),
    ));
    println!("{}", obj(detail));
    let correct = failures.is_empty();
    println!(
        "{}",
        obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::u64(attempted)),
            ("failed", Json::u64(failures.len() as u64)),
            ("metrics", metrics),
        ])
    );
    Ok(correct)
}

/// The names, units, directions and bounds this binary reports under, and
/// what each per-layer metric is expected to move.
fn spec_document() -> Json {
    let names = |xs: &[&str]| Json::Arr(xs.iter().map(|&x| Json::str(x)).collect());
    let end_to_end = spec::END_TO_END.iter().map(|m| {
        obj(vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
            ("bound", Json::f64(m.bound)),
        ])
    });
    let per_layer = spec::PER_LAYER.iter().map(|m| {
        obj(vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
            ("moves", Json::str(m.moves)),
            ("on", Json::str(m.on)),
        ])
    });
    obj(vec![
        ("workloads", names(&spec::WORKLOADS)),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ])
}

/// The last two stdout lines of a child `run`: `(detail, result)`.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so none outlives this call.
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or_else(|| {
        format!(
            "{workload} printed nothing ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let detail = lines.next().unwrap_or("{}");
    let parse = |s: &str| fda_obs::json::parse(s).map_err(|e| format!("{workload}: {e}: {s}"));
    Ok((parse(detail)?, parse(result)?))
}

/// Runs every workload untraced and traced; returns the document and
/// whether every output check passed.
fn suite(args: &Args) -> Result<(Json, bool), String> {
    let mut all_correct = true;
    let mut per_workload = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for name in spec::WORKLOADS {
        eprintln!("fda_bench: {name}");
        let (detail, result) = run_child(name, args, false)?;
        let (trace_detail, traced) = run_child(name, args, true)?;
        let take = |j: &Json, key: &str| j.get(key).cloned().unwrap_or(Json::Null);
        let mut failures = Vec::new();
        for d in [&detail, &trace_detail] {
            failures.extend_from_slice(d.get("failures").and_then(Json::as_arr).unwrap_or(&[]));
        }
        let correct = [&result, &traced]
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        all_correct &= correct;
        for r in [&result, &traced] {
            attempted += r.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            failed += r.get("failed").and_then(Json::as_u64).unwrap_or(1);
        }
        per_workload.push((
            name,
            obj(vec![
                ("correct", Json::Bool(correct)),
                ("end_to_end", take(&result, "metrics")),
                ("dispersion", take(&detail, "dispersion")),
                ("per_layer", take(&traced, "metrics")),
                ("trace_file", take(&trace_detail, "trace_file")),
                ("failures", Json::Arr(failures)),
            ]),
        ));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = obj(vec![
        ("benchmark", Json::str("fda_bench")),
        ("seed", Json::u64(args.seed)),
        ("seconds", Json::f64(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("available_parallelism", Json::u64(cores as u64)),
        ("kernel", Json::str(fda_tensor::simd::kernels().name())),
        ("correct", Json::Bool(all_correct)),
        ("attempted", Json::u64(attempted)),
        ("failed", Json::u64(failed)),
        ("workloads", obj(per_workload)),
    ]);
    Ok((doc, all_correct))
}

/// The closing line: what ran and whether it was right, no claim about speed.
fn summary_line(doc: &Json) -> Json {
    let take = |key: &str| doc.get(key).cloned().unwrap_or(Json::Null);
    obj(vec![
        ("summary", Json::str("fda_bench")),
        ("workloads", Json::u64(spec::WORKLOADS.len() as u64)),
        ("correct", take("correct")),
        ("attempted", take("attempted")),
        ("failed", take("failed")),
    ])
}

fn e2e_value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// How much worse `new` is than `old`, as a share of `old` (negative when
/// it is better).
fn worsening(m: &spec::EndToEnd, old: f64, new: f64) -> f64 {
    match m.better {
        spec::Better::Lower => (new - old) / old.abs(),
        spec::Better::Higher => (old - new) / old.abs(),
    }
}

/// Prints per-workload, per-metric deltas of `new` against `old` and the
/// bounds; returns whether no metric regressed. A metric whose recorded
/// A/A spread (`old.aa_spread`, written by `aa`) exceeds its bound cannot
/// be resolved either way and is reported as such.
fn compare(old: &Json, new: &Json) -> bool {
    let mut ok = true;
    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "old", "new", "worse", "bound"
    );
    for workload in spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let (Some(a), Some(b)) = (
                e2e_value(old, workload, m.name),
                e2e_value(new, workload, m.name),
            ) else {
                println!("{workload:<18} {:<24} missing", m.name);
                ok = false;
                continue;
            };
            let worse = worsening(m, a, b);
            let spread = old
                .get("aa_spread")
                .and_then(|s| s.get(workload)?.get(m.name)?.as_f64());
            let verdict = if spread.is_some_and(|s| s > m.bound) {
                "unresolved"
            } else if worse > m.bound {
                ok = false;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{workload:<18} {:<24} {a:>14.6} {b:>14.6} {:>+7.2}% {:>6.0}%  {verdict}",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    ok
}

/// Runs the suite twice on one commit; the second must agree with the
/// first within every bound. The printed document is the first run's plus
/// the observed A/A spread per metric, for `compare` to read.
fn aa(args: &Args) -> Result<bool, String> {
    let (first, first_correct) = suite(args)?;
    let (second, second_correct) = suite(args)?;
    let spread = spec::WORKLOADS
        .iter()
        .map(|&w| {
            let per_metric = spec::END_TO_END
                .iter()
                .filter_map(|m| {
                    let a = e2e_value(&first, w, m.name)?;
                    let b = e2e_value(&second, w, m.name)?;
                    Some((m.name, Json::f64((a - b).abs() / a.abs())))
                })
                .collect();
            (w, obj(per_metric))
        })
        .collect();
    let agree = compare(&first, &second);
    let Json::Obj(mut pairs) = first else {
        unreachable!("suite returns an object");
    };
    pairs.push(("aa_spread".to_string(), obj(spread)));
    let doc = Json::Obj(pairs);
    println!("{doc}");
    println!("{}", summary_line(&doc));
    Ok(agree && first_correct && second_correct)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // The document is the longest line: `all` and `aa` follow it with a
    // one-line summary, and `aa` precedes it with the comparison table.
    let line = text
        .lines()
        .max_by_key(|l| l.len())
        .ok_or_else(|| format!("{path}: empty"))?;
    fda_obs::json::parse(line).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(args: &Args) -> Result<bool, String> {
    match args.command.as_str() {
        "run" => run(args),
        "all" => {
            let (doc, correct) = suite(args)?;
            println!("{doc}");
            println!("{}", summary_line(&doc));
            Ok(correct)
        }
        "aa" => aa(args),
        "spec" => {
            println!("{}", spec_document());
            Ok(true)
        }
        "compare" => match args.files.as_slice() {
            [old, new] => Ok(compare(&load(old)?, &load(new)?)),
            _ => Err("compare needs <old.json> <new.json>".to_string()),
        },
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fda_bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv(
            "--workload tcp-sync-head --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.workload.as_deref(), Some("tcp-sync-head"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        let a = parse_args(&argv("run --workload x --trace 0 --smoke")).unwrap();
        assert!(!a.trace && a.smoke);
        let a = parse_args(&argv("run --workload x --trace")).unwrap();
        assert!(a.trace);
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
        let a = parse_args(&argv("compare a.json b.json")).unwrap();
        assert_eq!(a.files, ["a.json", "b.json"]);
    }

    fn doc(steps_per_s: f64, setup_s: f64) -> Json {
        let value = |v| obj(vec![("value", Json::f64(v)), ("unit", Json::str("x"))]);
        let e2e = obj(vec![
            ("steps_per_s", value(steps_per_s)),
            ("setup_s", value(setup_s)),
        ]);
        let w = obj(vec![("end_to_end", e2e)]);
        obj(vec![("workloads", obj(vec![("tcp-sync-head", w)]))])
    }

    #[test]
    fn worsening_follows_the_direction() {
        let higher = spec::end_to_end("steps_per_s").unwrap();
        let lower = spec::end_to_end("setup_s").unwrap();
        assert!((worsening(higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worsening(higher, 100.0, 120.0) < 0.0);
        assert!((worsening(lower, 1.0, 1.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn values_are_read_by_workload_and_metric() {
        let d = doc(350.0, 0.05);
        assert_eq!(e2e_value(&d, "tcp-sync-head", "steps_per_s"), Some(350.0));
        assert_eq!(e2e_value(&d, "tcp-sync-head", "peak_rss_mb"), None);
        assert_eq!(e2e_value(&d, "sim-coded-head", "steps_per_s"), None);
    }
}
