//! `alphahash` — a small command-line front end for the library, so the
//! algorithm can be tried on real programs without writing Rust:
//!
//! ```text
//! alphahash hash    <file>   # alpha-hash of the whole expression
//! alphahash classes <file>   # all equivalence classes of subexpressions
//! alphahash cse     <file>   # run CSE modulo alpha, print the rewrite
//! alphahash eval    <file>   # evaluate a closed program
//! ```
//!
//! and the daemon tier on top of the same store:
//!
//! ```text
//! alphahash serve --dir DIR [--addr 127.0.0.1:7474] [--sub-min-nodes N]
//!                 [--workers N] [--flush-terms N] [--linger-ms N]
//! alphahash client [--addr 127.0.0.1:7474] insert   <file|->
//! alphahash client [--addr ...]            lookup   <file|->
//! alphahash client [--addr ...]            contains <file|->
//! alphahash client [--addr ...]            update   <term> <path> <file|->
//! alphahash client [--addr ...]            stats | metrics | checkpoint | shutdown
//! ```
//!
//! `update` rewrites a term the server already holds: `<term>` is the
//! handle printed by `insert` (hex), `<path>` is a dot-separated list of
//! child slots into the term's canonical representative (`.` alone for
//! the whole term), and the file holds the replacement expression.
//!
//! Files contain one expression in the `lambda-lang` syntax (see
//! `lambda_lang::parse`); pass `-` to read from stdin.

use hash_modulo_alpha::prelude::*;
use std::io::Read;
use std::sync::Arc;

fn read_source(path: &str) -> Result<String, Box<dyn std::error::Error>> {
    if path == "-" {
        let mut buffer = String::new();
        std::io::stdin().read_to_string(&mut buffer)?;
        Ok(buffer)
    } else {
        Ok(std::fs::read_to_string(path)?)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: alphahash <hash|classes|cse|eval> <file|->\n\
         \x20      alphahash serve --dir DIR [--addr HOST:PORT] [--sub-min-nodes N]\n\
         \x20                      [--workers N] [--flush-terms N] [--linger-ms N]\n\
         \x20      alphahash client [--addr HOST:PORT] <insert|lookup|contains> <file|->\n\
         \x20      alphahash client [--addr HOST:PORT] update <term-hex> <path> <file|->\n\
         \x20      alphahash client [--addr HOST:PORT] <stats|metrics|checkpoint|shutdown>"
    );
    std::process::exit(2)
}

/// Pulls `--flag value` out of `args`, leaving everything else.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("alphahash: {flag} needs a value");
        std::process::exit(2);
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

fn serve(mut args: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let Some(dir) = take_flag(&mut args, "--dir") else {
        eprintln!("alphahash serve: --dir is required");
        std::process::exit(2);
    };
    let addr = take_flag(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:7474".to_owned());
    let sub_min_nodes = take_flag(&mut args, "--sub-min-nodes").map(|v| v.parse::<usize>());
    let mut config = alphahashd::DaemonConfig {
        addr,
        handle_signals: true,
        ..alphahashd::DaemonConfig::default()
    };
    if let Some(v) = take_flag(&mut args, "--workers") {
        config.ingest_workers = v.parse()?;
    }
    if let Some(v) = take_flag(&mut args, "--flush-terms") {
        config.flush_terms = v.parse()?;
    }
    if let Some(v) = take_flag(&mut args, "--linger-ms") {
        config.linger = std::time::Duration::from_millis(v.parse()?);
    }
    if !args.is_empty() {
        eprintln!("alphahash serve: unexpected arguments {args:?}");
        std::process::exit(2);
    }

    let mut builder = alpha_store::AlphaStore::<u64>::builder();
    if let Some(min_nodes) = sub_min_nodes {
        builder = builder.subexpressions(min_nodes?);
    }
    let store = Arc::new(builder.open_durable(&dir)?);
    let daemon = alphahashd::Daemon::spawn(store, config)?;
    eprintln!(
        "alphahashd: serving {dir} on {} ({} classes, {} terms); \
         SIGINT/SIGTERM or the Shutdown op drains and checkpoints",
        daemon.local_addr(),
        daemon.store().num_classes(),
        daemon.store().num_terms(),
    );
    daemon.join();
    eprintln!("alphahashd: shut down cleanly");
    Ok(())
}

fn client(mut args: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let addr = take_flag(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:7474".to_owned());
    if args.is_empty() {
        usage();
    }
    let op = args.remove(0);
    let mut client = alphahashd::Client::connect(addr)?;

    // The term-carrying ops parse one expression from a file/stdin.
    let parsed_term = |args: &mut Vec<String>| -> Result<_, Box<dyn std::error::Error>> {
        if args.is_empty() {
            usage();
        }
        let source = read_source(&args.remove(0))?;
        let mut arena = ExprArena::new();
        let root = parse(&mut arena, &source)?;
        Ok((arena, root))
    };

    match op.as_str() {
        "insert" => {
            let (arena, root) = parsed_term(&mut args)?;
            let outcome = client.insert(&arena, root)?;
            println!(
                "term {:#018x} class {:#018x} {}{}",
                outcome.term,
                outcome.class,
                if outcome.fresh { "(fresh)" } else { "(merged)" },
                if outcome.subs_indexed > 0 {
                    format!(" + {} subexpressions indexed", outcome.subs_indexed)
                } else {
                    String::new()
                }
            );
        }
        "update" => {
            if args.len() < 2 {
                usage();
            }
            let term_arg = args.remove(0);
            let term = u64::from_str_radix(term_arg.trim_start_matches("0x"), 16)
                .map_err(|e| format!("bad term handle {term_arg:?}: {e}"))?;
            let path_arg = args.remove(0);
            let path: Vec<u32> = if path_arg == "." {
                Vec::new()
            } else {
                path_arg
                    .split('.')
                    .map(|s| s.parse::<u32>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("bad path {path_arg:?}: {e}"))?
            };
            let (arena, root) = parsed_term(&mut args)?;
            let outcome = client.update(term, &path, &arena, root)?;
            println!(
                "term {:#018x} now class {:#018x} {}{}",
                outcome.term,
                outcome.class,
                if outcome.fresh { "(fresh)" } else { "(merged)" },
                if outcome.subs_indexed > 0 {
                    format!(" + {} subexpressions re-indexed", outcome.subs_indexed)
                } else {
                    String::new()
                }
            );
        }
        "lookup" => {
            let (arena, root) = parsed_term(&mut args)?;
            match client.lookup(&arena, root)? {
                Some(class) => println!("class {class:#018x}"),
                None => {
                    println!("not present");
                    std::process::exit(1);
                }
            }
        }
        "contains" => {
            let (arena, root) = parsed_term(&mut args)?;
            match client.contains(&arena, root)? {
                Some(class) => println!("contained in class {class:#018x}"),
                None => {
                    println!("not contained");
                    std::process::exit(1);
                }
            }
        }
        "stats" => {
            let stats = client.stats()?;
            println!("{}", stats.store);
            println!(
                "{} classes, {} terms held",
                stats.num_classes, stats.num_terms
            );
            match stats.wal_records {
                Some(records) => println!("durable: {records} WAL records since last checkpoint"),
                None => println!("in-memory store"),
            }
            println!(
                "health: {}",
                match stats.health_code {
                    0 => "healthy".to_owned(),
                    1 => format!("degraded ({})", stats.health_reason),
                    _ => format!("read-only ({})", stats.health_reason),
                }
            );
            if let Some((replayed, clean)) = stats.recovery {
                println!(
                    "recovery at open: {}",
                    if clean {
                        "clean reopen (no replay)".to_owned()
                    } else {
                        format!("replayed {replayed} WAL records")
                    }
                );
            }
            if !stats.obs_json.is_empty() {
                println!("{}", stats.obs_json);
            }
        }
        "metrics" => print!("{}", client.metrics_prometheus()?),
        "checkpoint" => {
            client.checkpoint()?;
            println!("checkpointed");
        }
        "shutdown" => {
            client.shutdown()?;
            println!("shutdown requested");
        }
        _ => usage(),
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    match args[0].as_str() {
        "serve" => return serve(args.split_off(1)),
        "client" => return client(args.split_off(1)),
        _ => {}
    }
    let [command, path] = args.as_slice() else {
        usage()
    };

    let source = read_source(path)?;
    let mut arena = ExprArena::new();
    let parsed = parse(&mut arena, &source)?;
    let (arena, root) = uniquify(&arena, parsed);
    let scheme: HashScheme<u128> = HashScheme::default();

    match command.as_str() {
        "hash" => {
            println!("{:032x}", hash_expr(&arena, root, &scheme));
        }
        "classes" => {
            let classes = hash_classes(&arena, root, &scheme);
            println!(
                "{} subexpressions, {} classes",
                arena.subtree_size(root),
                classes.len()
            );
            let mut sorted = classes;
            sorted.sort_by_key(|c| std::cmp::Reverse(c.len() * arena.subtree_size(c[0])));
            for class in sorted.iter().filter(|c| c.len() >= 2) {
                println!(
                    "  {} x {:>4} nodes  {}",
                    class.len(),
                    arena.subtree_size(class[0]),
                    print(&arena, class[0])
                );
            }
        }
        "cse" => {
            let scheme64: HashScheme<u64> = HashScheme::default();
            let result =
                eliminate_common_subexpressions(&arena, root, &scheme64, CseConfig::default());
            for rewrite in &result.rewrites {
                eprintln!(
                    "-- bound {} = {} ({} occurrences)",
                    rewrite.binder, rewrite.subexpr, rewrite.occurrences
                );
            }
            println!("{}", print(&result.arena, result.root));
        }
        "eval" => {
            let value = lambda_lang::eval::eval(&arena, root)?;
            println!("{value:?}");
        }
        _ => usage(),
    }
    Ok(())
}
