//! `dpbfl-client` — host data workers for a run served by `dpbfl-server`.
//!
//! ```text
//! dpbfl-client --connect ADDR --workers SPEC [--max-retries N] [--backoff-ms N]
//!              [--drop-at-round N] [--skip-rounds LIST] [--flaky-pct P]
//!              [--fault-seed N]
//! ```
//!
//! The client connects, claims the worker indices in `--workers`
//! (`0-2`, `0,1,2`, or a mix like `0-2,5`), receives the run configuration
//! from the server's `Welcome`, rebuilds its workers' datasets and model
//! replicas from the config seed — bit-identical to what the in-process
//! transport would build — and then answers every `RoundBegin` with one
//! local DP-SGD step per claimed member until `RunComplete`.
//!
//! Connection failures (including mid-run stream errors and a transient
//! rejection while the server reaps a dead predecessor holding the same
//! claim) are retried with capped exponential backoff; on reconnect the
//! server replays the closed rounds since the client's watermark so it
//! brings its worker state up to date and resumes at the current round.
//! The server keeps only the last few closed rounds: a fresh process that
//! claims pooled workers after a round they were members of has gone is
//! refused. The `--drop-*`/`--skip-*`/`--flaky-*` flags inject faults for
//! churn testing; when none are set, the client adopts the fault plan carried by
//! the run config, so sweep scenarios like `serving/churn_sweep` need no
//! client-side flags at all.

use dpbfl::prelude::*;
use dpbfl_harness::cli::{self, Args, CliError, CliResult};

const USAGE: &str = "dpbfl-client — host data workers for a dpbfl-server run

USAGE:
    dpbfl-client --connect ADDR --workers SPEC [--max-retries N] [--backoff-ms N]
                 [--drop-at-round N] [--skip-rounds LIST] [--flaky-pct P]
                 [--fault-seed N]

OPTIONS:
    --connect ADDR      tcp://HOST:PORT or unix://PATH printed by dpbfl-server
    --workers SPEC      global worker indices to claim: `0-2`, `0,1,2`, `0-2,5`
    --max-retries N     reconnect attempts after a connection failure (default 3)
    --backoff-ms N      base retry backoff, doubled per attempt, capped (default 50)
    --drop-at-round N   fault injection: drop the connection when round N begins
                        (once; the retry loop then reconnects)
    --skip-rounds LIST  fault injection: withhold all uploads in these rounds
                        (comma-separated round indices)
    --flaky-pct P       fault injection: withhold each upload with probability P%
                        (deterministic per (seed, worker, round))
    --fault-seed N      seed for the flaky/delay fault streams (default 0)

The server rejects claims that overlap another *live* client's or fall
outside the run's data-worker set; training starts once connected clients
cover the whole set. A claim over a dead predecessor's workers re-binds
them: the server replays the closed rounds the client has not stepped and
the run continues. It keeps only the last few closed rounds, so a fresh
process that claims pooled workers later in the run is refused.";

fn main() {
    cli::main(USAGE, connect)
}

fn connect(mut args: Args) -> CliResult {
    let connect = args.value("--connect")?;
    let workers = args.value("--workers")?.map(|v| index_list("--workers", &v)).transpose()?;
    let mut opts = ClientOptions::default();
    opts.max_retries =
        args.parsed("--max-retries", "an attempt count")?.unwrap_or(opts.max_retries);
    opts.backoff_ms = args.parsed("--backoff-ms", "milliseconds")?.unwrap_or(opts.backoff_ms);
    let fault = &mut opts.fault;
    fault.drop_at_round = args.parsed("--drop-at-round", "a round index")?;
    if let Some(rounds) = args.value("--skip-rounds")? {
        fault.skip_rounds = index_list("--skip-rounds", &rounds)?;
    }
    fault.flaky_pct = args.parsed("--flaky-pct", "a percentage")?.unwrap_or(fault.flaky_pct);
    fault.seed = args.parsed("--fault-seed", "a seed")?.unwrap_or(fault.seed);
    args.finish()?;
    let (Some(addr), Some(workers)) = (connect, workers) else {
        return Err(CliError::Usage("--connect and --workers are both required".into()));
    };
    let pct = opts.fault.flaky_pct;
    if !(pct.is_finite() && (0.0..=100.0).contains(&pct)) {
        return Err(CliError::Usage(format!("--flaky-pct must be in [0, 100], got {pct}")));
    }

    println!("connecting to {addr} claiming workers {workers:?}");
    let summary_json = run_client(&addr, &workers, &opts)?;
    println!("run complete; server summary:\n{summary_json}");
    Ok(())
}

/// [`parse_workers`] of `flag`'s value, naming both on failure.
fn index_list(flag: &str, value: &str) -> Result<Vec<usize>, CliError> {
    parse_workers(value).map_err(|e| CliError::Usage(format!("{flag} {value}: {e}")))
}

/// Parses a worker-index spec: comma-separated indices and inclusive
/// ranges, e.g. `0-2,5` → `[0, 1, 2, 5]`. Rejects duplicates.
fn parse_workers(spec: &str) -> Result<Vec<usize>, String> {
    let mut out: Vec<usize> = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err("empty element".into());
        }
        let parse =
            |s: &str| s.trim().parse::<usize>().map_err(|_| format!("`{s}` is not a worker index"));
        match part.split_once('-') {
            Some((lo, hi)) => {
                let (lo, hi) = (parse(lo)?, parse(hi)?);
                if lo > hi {
                    return Err(format!("range `{part}` runs backwards"));
                }
                out.extend(lo..=hi);
            }
            None => out.push(parse(part)?),
        }
    }
    let mut seen = out.clone();
    seen.sort_unstable();
    seen.dedup();
    if seen.len() != out.len() {
        return Err("duplicate worker index".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::parse_workers;

    #[test]
    fn specs_parse() {
        assert_eq!(parse_workers("0").unwrap(), [0]);
        assert_eq!(parse_workers("0,1,2").unwrap(), [0, 1, 2]);
        assert_eq!(parse_workers("0-2").unwrap(), [0, 1, 2]);
        assert_eq!(parse_workers("0-2,5").unwrap(), [0, 1, 2, 5]);
        assert_eq!(parse_workers("3-3").unwrap(), [3]);
    }

    #[test]
    fn bad_specs_reject() {
        assert!(parse_workers("").is_err());
        assert!(parse_workers("a").is_err());
        assert!(parse_workers("2-0").is_err());
        assert!(parse_workers("0,0").is_err());
        assert!(parse_workers("0-2,1").is_err());
    }
}
