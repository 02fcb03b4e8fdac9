//! `vcf-server` — serve a sharded Vertical Cuckoo Filter over the
//! batched binary wire protocol.
//!
//! ```text
//! vcf-server --listen <tcp:ADDR|uds:PATH> [options]
//!
//! Options:
//!   --listen <EP>     endpoint, e.g. tcp:127.0.0.1:7171 or uds:/tmp/vcf.sock
//!   --slots <N>       total slot budget (default 1048576)
//!   --shard-bits <N>  log2 of the shard count (default 4)
//!   --elastic         serve the elastic (ScalableVcf) shard set
//!   --seed <N>        hash seed (default fixed)
//! ```
//!
//! The resolved endpoint is printed as `LISTENING <endpoint>` once the
//! socket is bound, so scripts can wait for readiness on stdout.

use std::process::ExitCode;
use vcf_server::{Endpoint, ServerConfig, ServerHandle};

fn usage() -> &'static str {
    "usage: vcf-server --listen <tcp:ADDR|uds:PATH> [--slots N] [--shard-bits N] \
     [--elastic] [--seed N]"
}

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut endpoint = None;
    let mut config = ServerConfig::new(Endpoint::Tcp("127.0.0.1:7171".to_owned()));
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--listen" => endpoint = Some(Endpoint::parse(&value("--listen")?)?),
            "--slots" => {
                config.slots = value("--slots")?
                    .parse()
                    .map_err(|_| "bad --slots value".to_owned())?;
            }
            "--shard-bits" => {
                config.shard_bits = value("--shard-bits")?
                    .parse()
                    .map_err(|_| "bad --shard-bits value".to_owned())?;
            }
            "--elastic" => config.elastic = true,
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed value".to_owned())?;
            }
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    config.endpoint = endpoint.ok_or_else(|| format!("--listen is required\n{}", usage()))?;
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let server = match ServerHandle::spawn(&config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("vcf-server: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!("LISTENING {}", server.endpoint());
    println!(
        "engine={} shards={} capacity={}",
        server.engine().engine_name(),
        server.engine().shard_count(),
        server.engine().total_capacity()
    );
    // Foreground server: serve until killed. The acceptor thread owns
    // the listener; parking the main thread keeps the handle alive.
    loop {
        std::thread::park();
    }
}
