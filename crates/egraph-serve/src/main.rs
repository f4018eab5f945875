//! The `egraph-serve` binary: run the evolving-graph HTTP server from the
//! command line, in any of its three roles.
//!
//! ```text
//! egraph-serve [--nodes N] [--undirected] [--port P]            # in-memory
//! egraph-serve --data-dir DIR [--nodes N] [--undirected] ...    # durable leader
//! egraph-serve --follow HOST:PORT [--port P]                    # follower replica
//! ```
//!
//! `--data-dir` boots from the event log in `DIR` if one exists (replaying
//! every sealed segment) and creates a fresh log otherwise; `--nodes` and
//! `--undirected` only apply on creation. `--follow` tails the given
//! leader and serves reads from the replica.

use std::net::SocketAddr;
use std::time::Duration;

use egraph_serve::{Server, ServerConfig};
use egraph_stream::{DurableGraph, LiveGraph};

struct Args {
    data_dir: Option<String>,
    follow: Option<SocketAddr>,
    nodes: usize,
    undirected: bool,
    config: ServerConfig,
}

const USAGE: &str = "usage: egraph-serve [--data-dir DIR | --follow HOST:PORT] \
                     [--nodes N] [--undirected] [--port P] \
                     [--max-inflight N] [--retry-after SECS] \
                     [--forward-attempts N] [--forward-backoff-ms MS] \
                     [--checkpoint-every N] [--retain-checkpoints N]";

const HELP: &str = "\
Serve evolving-graph search over HTTP, in one of three roles.

Roles (mutually exclusive):
  --data-dir DIR        durable leader: write-ahead log every event into
                        DIR, replaying an existing log on boot
  --follow HOST:PORT    follower replica: tail the leader's sealed-segment
                        stream, serve reads locally, forward writes
  (neither)             plain in-memory server; events die with the process

Graph creation (ignored when an existing log is replayed):
  --nodes N             initial node-universe size        [default: 16]
  --undirected          build an undirected graph         [default: directed]

Serving:
  --port P              listen on 127.0.0.1:P             [default: ephemeral]
  --max-inflight N      admission bound: shed connections with 503 +
                        Retry-After once N handlers are running
                                                          [default: 256]
  --retry-after SECS    Retry-After value stamped on shed responses
                                                          [default: 1]

Follower write-forwarding:
  --forward-attempts N  attempts (first included) to reach the leader
                        before answering 503              [default: 4]
  --forward-backoff-ms MS
                        base backoff between attempts (doubles, jittered);
                        also the tail reconnect pause     [default: 50]

Checkpointing (durable leader only):
  --checkpoint-every N  install a checkpoint of the sealed graph every N
                        seals and compact covered segments; 0 disables
                                                          [default: 0]
  --retain-checkpoints N
                        installed checkpoints kept on disk; must be >= 1
                                                          [default: 2]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        data_dir: None,
        follow: None,
        nodes: 16,
        undirected: false,
        config: ServerConfig::default(),
    };
    let config = &mut args.config;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs a {what}"));
        fn parsed<T: std::str::FromStr>(flag: &str, raw: String) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("unparseable {flag} {raw:?}"))
        }
        match flag.as_str() {
            "--data-dir" => args.data_dir = Some(value("directory")?),
            "--follow" => {
                let addr = value("leader address")?;
                args.follow = Some(
                    addr.parse()
                        .map_err(|_| format!("unparseable leader address {addr:?}"))?,
                );
            }
            "--nodes" => args.nodes = parsed(&flag, value("count")?)?,
            "--undirected" => args.undirected = true,
            "--port" => {
                let port: u16 = parsed(&flag, value("port")?)?;
                config.bind = Some(SocketAddr::from(([127, 0, 0, 1], port)));
            }
            "--max-inflight" => config.max_inflight = parsed(&flag, value("count")?)?,
            "--retry-after" => config.retry_after_secs = parsed(&flag, value("seconds")?)?,
            "--forward-attempts" => config.forward_attempts = parsed(&flag, value("count")?)?,
            "--forward-backoff-ms" => {
                let ms = parsed(&flag, value("milliseconds")?)?;
                config.forward_backoff = Duration::from_millis(ms);
            }
            "--checkpoint-every" => config.checkpoint_every = parsed(&flag, value("count")?)?,
            "--retain-checkpoints" => config.retain_checkpoints = parsed(&flag, value("count")?)?,
            "--help" | "-h" => {
                println!("{USAGE}\n\n{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.data_dir.is_some() && args.follow.is_some() {
        return Err("--data-dir and --follow are mutually exclusive".into());
    }
    Ok(args)
}

fn run(args: Args) -> Result<Server, String> {
    let config = args.config;
    config.validate()?;
    if let Some(leader) = args.follow {
        return Server::start_follower(leader, config).map_err(|e| e.to_string());
    }
    if let Some(dir) = args.data_dir {
        let recovered = DurableGraph::open_or_create(&dir, args.nodes, !args.undirected)
            .map_err(|e| e.to_string())?;
        let from_checkpoint = match recovered.checkpoint_seq {
            Some(seq) => format!("checkpoint {seq} + "),
            None => String::new(),
        };
        eprintln!(
            "egraph-serve: data dir {dir}: recovered from {from_checkpoint}{} segment(s) \
             ({} event(s) replayed){}",
            recovered.segments_replayed,
            recovered.recovery_replayed_events,
            if recovered.dropped_torn_tail {
                ", torn tail truncated"
            } else {
                ""
            }
        );
        return Server::start_durable(recovered, config).map_err(|e| e.to_string());
    }
    let live = if args.undirected {
        LiveGraph::undirected(args.nodes)
    } else {
        LiveGraph::directed(args.nodes)
    };
    Server::start(live, config).map_err(|e| e.to_string())
}

fn main() {
    // Operator fault scripting: EGRAPH_FAILPOINTS arms failpoint sites in
    // debug builds (release parses and validates the spec but every site
    // stays a no-op). A malformed spec is a refusal to start, not a
    // silently un-simulated fault.
    match egraph_fault::script_from_env() {
        Ok(0) => {}
        Ok(n) => eprintln!("egraph-serve: {n} failpoint site(s) scripted via EGRAPH_FAILPOINTS"),
        Err(message) => {
            eprintln!("egraph-serve: bad EGRAPH_FAILPOINTS: {message}");
            std::process::exit(2);
        }
    }
    let server = match parse_args().and_then(run) {
        Ok(server) => server,
        Err(message) => {
            eprintln!("egraph-serve: {message}");
            std::process::exit(2);
        }
    };
    println!("egraph-serve: listening on http://{}", server.addr());
    // Serve until killed; the accept loop lives on its own thread.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
