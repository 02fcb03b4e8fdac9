//! `vcf-loadgen` — drive batched wire traffic at a `vcf-server`.
//!
//! ```text
//! vcf-loadgen --connect <tcp:ADDR|uds:PATH> [options]
//! vcf-loadgen --bench <uds:PATH-PREFIX> [--json FILE] [options]
//!
//! Options:
//!   --connect <EP>       target server endpoint
//!   --connections <N>    concurrent connections (default 2; --bench sweeps its list)
//!   --batch <N>          keys per frame (default 256)
//!   --ops <N>            total data ops across connections (default 100000)
//!   --read-fraction <F>  fraction of lookup frames (default 0.5)
//!   --keyspace <N>       per-connection live-window cap (default 65536)
//!   --workload <W>       uniform | zipf[:s] | churn | higgs (default uniform)
//!   --seed <N>           run seed
//!
//! Bench mode (spawns its own in-process UDS servers):
//!   --bench <PREFIX>         sweep connections × batch, sockets at PREFIX-*.sock
//!   --json <FILE>            write the flat BENCH map to FILE (default stdout)
//!   --connections-list <L>   comma-separated connection counts (default 1,2,4)
//!   --batch-list <L>         comma-separated batch sizes (default 1,16,256,1024)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use vcf_server::loadgen::{self, LoadgenConfig, SweepPoint, WorkloadKind};
use vcf_server::{Endpoint, ServerConfig, ServerHandle};

fn usage() -> &'static str {
    "usage: vcf-loadgen (--connect <EP> | --bench <PREFIX>) [--connections N] [--batch N] \
     [--ops N] [--read-fraction F] [--keyspace N] [--workload W] [--seed N] \
     [--json FILE] [--connections-list L] [--batch-list L]"
}

struct Cli {
    connect: Option<Endpoint>,
    bench_prefix: Option<PathBuf>,
    json: Option<PathBuf>,
    connections_list: Vec<usize>,
    batch_list: Vec<usize>,
    load: LoadgenConfig,
}

fn parse_list(text: &str, name: &str) -> Result<Vec<usize>, String> {
    text.split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .map_err(|_| format!("bad {name} entry {part:?}"))
        })
        .collect()
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        connect: None,
        bench_prefix: None,
        json: None,
        connections_list: vec![1, 2, 4],
        batch_list: vec![1, 16, 256, 1024],
        load: LoadgenConfig::new(Endpoint::Tcp("unset".to_owned())),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--connect" => cli.connect = Some(Endpoint::parse(&value("--connect")?)?),
            "--bench" => cli.bench_prefix = Some(PathBuf::from(value("--bench")?)),
            "--json" => cli.json = Some(PathBuf::from(value("--json")?)),
            "--connections-list" => {
                cli.connections_list =
                    parse_list(&value("--connections-list")?, "--connections-list")?;
            }
            "--batch-list" => cli.batch_list = parse_list(&value("--batch-list")?, "--batch-list")?,
            "--connections" => {
                cli.load.connections = value("--connections")?
                    .parse()
                    .map_err(|_| "bad --connections value".to_owned())?;
            }
            "--batch" => {
                cli.load.batch = value("--batch")?
                    .parse()
                    .map_err(|_| "bad --batch value".to_owned())?;
            }
            "--ops" => {
                cli.load.total_ops = value("--ops")?
                    .parse()
                    .map_err(|_| "bad --ops value".to_owned())?;
            }
            "--read-fraction" => {
                cli.load.read_fraction = value("--read-fraction")?
                    .parse()
                    .map_err(|_| "bad --read-fraction value".to_owned())?;
            }
            "--keyspace" => {
                cli.load.keyspace = value("--keyspace")?
                    .parse()
                    .map_err(|_| "bad --keyspace value".to_owned())?;
            }
            "--workload" => cli.load.workload = WorkloadKind::parse(&value("--workload")?)?,
            "--seed" => {
                cli.load.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed value".to_owned())?;
            }
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    if cli.connect.is_none() && cli.bench_prefix.is_none() {
        return Err(format!("--connect or --bench is required\n{}", usage()));
    }
    Ok(cli)
}

/// One sweep point: spawn an in-process UDS server, run the mixed
/// workload over `connections` connections at `batch`, report ops/sec.
fn bench_point(cli: &Cli, connections: usize, batch: usize) -> std::io::Result<SweepPoint> {
    let prefix = cli.bench_prefix.clone().unwrap_or_default();
    let socket = PathBuf::from(format!("{}-c{connections}-b{batch}.sock", prefix.display()));
    let mut server = ServerHandle::spawn(&ServerConfig::new(Endpoint::Uds(socket)))?;
    let mut load = cli.load.clone();
    load.endpoint = server.endpoint().clone();
    load.connections = connections;
    load.batch = batch;
    load.capture = false;
    let report = loadgen::run(&load)?;
    server.shutdown();
    Ok(SweepPoint {
        connections,
        batch,
        ops_per_sec: report.ops_per_sec,
    })
}

fn run_bench(cli: &Cli) -> std::io::Result<()> {
    let mut points = Vec::new();
    for &connections in &cli.connections_list {
        for &batch in &cli.batch_list {
            let point = bench_point(cli, connections, batch)?;
            eprintln!("c{connections} b{batch}: {:.0} ops/sec", point.ops_per_sec);
            points.push(point);
        }
    }
    let json = loadgen::sweep_json("uds", &points);
    match &cli.json {
        Some(path) => std::fs::write(path, json)?,
        None => print!("{json}"),
    }
    Ok(())
}

fn run_connect(cli: &Cli, endpoint: Endpoint) -> std::io::Result<()> {
    let mut load = cli.load.clone();
    load.endpoint = endpoint;
    let report = loadgen::run(&load)?;
    println!(
        "ops={} elapsed={:.3}s throughput={:.0} ops/sec (connections={} batch={} workload={:?})",
        report.data_ops,
        report.elapsed_secs,
        report.ops_per_sec,
        load.connections,
        load.batch,
        load.workload
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cli.connect.clone() {
        Some(endpoint) => run_connect(&cli, endpoint),
        None => run_bench(&cli),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("vcf-loadgen: {err}");
            ExitCode::FAILURE
        }
    }
}
