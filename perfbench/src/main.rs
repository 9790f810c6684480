//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its result as the last line of standard
//! output; `perfbench compare <baseline-dir> <current-dir>` compares two
//! sets of result files measured on the same host.

use seaice_perfbench::host::Fingerprint;
use seaice_perfbench::report::RunId;
use seaice_perfbench::spans::{self, Spans};
use seaice_perfbench::workloads::{self, Ctx};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// Where result files and traces go, relative to the working directory.
const OUT_DIR: &str = "perfbench/out";

const USAGE: &str = "usage: perfbench --workload <label|train|serve|stream> --seed <n> --seconds <s> --trace <0|1>\n       perfbench compare <baseline-dir> <current-dir>";

fn parse(args: &[String]) -> Result<RunId, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(RunId {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn write(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run(run: RunId) -> Result<(), String> {
    let fp = Fingerprint::detect();
    println!(
        "perfbench: {} seed {} seconds {} trace {}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    println!("host: {} commit={}", fp.host_key(), fp.commit);
    let ctx = Ctx {
        seed: run.seed,
        seconds: run.seconds as f64,
        spans: Arc::new(Spans::new(run.trace)),
        off: Arc::new(Spans::new(false)),
    };
    let outcome = workloads::run(&run.workload, &ctx)?;
    let want: Vec<String> = if run.trace {
        workloads::per_layer_names()
    } else {
        workloads::END_TO_END.map(String::from).to_vec()
    };
    let got: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
    if got != want {
        return Err(format!(
            "{} reported metrics {got:?}, expected {want:?}",
            run.workload
        ));
    }
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let stem = run.stem();
    if run.trace {
        let finished = ctx.spans.finished();
        let trace = spans::chrome_json(&finished);
        let shape = seaice_obs::trace::validate_chrome_trace(&trace)
            .map_err(|e| format!("trace failed validation: {e}"))?;
        let path = out.join(format!("{stem}.trace.json"));
        write(&path, &trace)?;
        println!(
            "trace: {} ({} spans, {} events)",
            path.display(),
            finished.len(),
            shape.events
        );
        print!("{}", spans::render_table(&spans::table(&finished)));
    }
    let path = out.join(format!("{stem}.json"));
    write(&path, &outcome.result_file(&run, &fp))?;
    print!("{}", outcome.render());
    println!("result: {}", path.display());
    println!("{}", outcome.result_line());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [base, cur] => seaice_perfbench::compare::run(Path::new(base), Path::new(cur))
                .map(|report| print!("{report}")),
            _ => Err(USAGE.to_string()),
        },
        _ => parse(&argv)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(run),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
