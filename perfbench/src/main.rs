//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints human-readable figures, then, as the
//! last line of standard output, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! A traced run writes its spans under `.bench_trace/`.

use std::path::PathBuf;
use std::process::ExitCode;

use richwasm_perfbench::{run, Options, Workload};

fn parse() -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::Compile,
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        trace_dir: PathBuf::from(".bench_trace"),
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => opts.trace = value.parse::<u8>().map_err(|_| bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let result = parse().and_then(|opts| run(&opts));
    match result {
        Ok(report) => {
            for m in &report.metrics {
                println!("{:<30} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
