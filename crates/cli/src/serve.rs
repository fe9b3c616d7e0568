//! `carbon-edge serve` — a long-lived streaming daemon — and
//! `carbon-edge gen-arrivals`, its seeded request-stream generator.
//!
//! The daemon reads newline-delimited JSON request lines from stdin, a
//! Unix socket, or a TCP socket, accumulates them into the open slot,
//! and closes the slot on an explicit `{"slot_end": true}` marker, a
//! `--slot-requests` count, or a `--slot-ms` wall-clock deadline. Each
//! closed slot flows through the same `ServeSession` machinery the
//! batch driver uses, so a served trace is byte-comparable to a batch
//! replay of the same arrivals. Between slots the daemon can write a
//! versioned checkpoint (`--checkpoint`/`--checkpoint-every`), halt at
//! a planned slot (`--halt-at-slot`), or catch SIGINT/SIGTERM — and a
//! later `--resume` continues the run bit-identically. With `--wal DIR`
//! every arrival is also appended to a durable write-ahead log before
//! it is applied, so `--resume` recovers bit-identically even from a
//! SIGKILL or power loss: last checkpoint + WAL-tail replay. Ingest is
//! hardened against hostile clients (`--max-line-bytes`,
//! `--max-bad-lines`), transient transport/storage failures retry with
//! backoff, and persistent storage failures flip the daemon into an
//! explicit degraded-durability mode (503 on `/readyz`) instead of
//! killing it. The wire protocol, checkpoint format, and WAL format
//! are specified in `SERVING.md`.
//!
//! The loop itself — block reader, decode, WAL group commit, slot
//! closing, checkpoints, recovery — is `cne_core::daemon`. This module
//! turns flags into its options, opens the transport, handles signals,
//! runs the admin endpoint and prints the banner and the summary.

use std::io::Write as _;
use std::path::Path;
use std::sync::mpsc;
use std::time::Duration;

use cne_core::checkpoint::{load_zoo_snapshot, save_zoo_snapshot, zoo_snapshot_path};
use cne_core::combos::Combo;
use cne_core::daemon::{self, AdminState, DaemonOptions, ReaderMsg, SlotLoop};
use cne_core::{ServeOptions, ServeSession};
use cne_faults::WallRetry;
use cne_nn::{ModelZoo, ZooKey};
use cne_simdata::{ArrivalGen, ArrivalProcess};
use cne_util::json::Json;
use cne_util::SeedSequence;

use crate::admin;
use crate::args::Options;
use crate::commands::{build_config, build_zoo, write_telemetry, zoo_key};

/// Slots per synthetic day for `gen-arrivals` (matches the fast-test
/// workload cadence so a 40-slot quick horizon spans 2.5 days).
const SLOTS_PER_DAY: usize = 16;

#[cfg(unix)]
mod signals {
    //! Cooperative SIGINT/SIGTERM handling: the handler only flips an
    //! atomic flag (async-signal-safe); the serve loop polls it
    //! between slots and turns it into a checkpoint + clean exit.

    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" fn handle(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    pub fn install() {
        // SAFETY: `signal` with a handler that only stores to an
        // atomic is async-signal-safe; both signals default to
        // process termination, so replacing them cannot lose any
        // behavior the daemon relies on.
        unsafe {
            signal(SIGINT, handle);
            signal(SIGTERM, handle);
        }
    }

    pub fn triggered() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}

    pub fn triggered() -> bool {
        false
    }
}

/// Spawns the reader thread for a socket transport: it accepts one
/// connection (retrying transient `accept()` failures with backoff, or
/// sending [`ReaderMsg::Fatal`] once the listener fails for good),
/// pumps it into the loop's channel, then runs `done`.
fn spawn_accepting<L: Send + 'static, S: std::io::Read + 'static>(
    listener: L,
    accept: fn(&L) -> std::io::Result<S>,
    tx: mpsc::SyncSender<ReaderMsg>,
    max_line: usize,
    done: impl FnOnce() + Send + 'static,
) {
    std::thread::spawn(move || {
        match WallRetry::daemon_default().run(
            || accept(&listener).map_err(|e| format!("accept failed: {e}")),
            |attempt, err, delay| {
                let event = daemon::retry_event("transport_retry", attempt, delay, err);
                eprintln!("{event}");
            },
        ) {
            Ok(stream) => daemon::pump(stream, &tx, max_line),
            Err(e) => {
                let _ = tx.send(ReaderMsg::Fatal(e));
            }
        }
        done();
    });
}

/// Opens the transport and spawns its reader, so the serve loop can
/// poll deadlines and signals while the transport blocks. Dropping the
/// sender signals EOF.
fn spawn_reader(
    listen: Option<&str>,
    max_line: usize,
) -> Result<mpsc::Receiver<ReaderMsg>, String> {
    let (tx, rx) = daemon::channel();
    match listen {
        None => {
            std::thread::spawn(move || daemon::pump(std::io::stdin(), &tx, max_line));
        }
        #[cfg(unix)]
        Some(addr) if addr.starts_with("unix:") => {
            let path = addr["unix:".len()..].to_owned();
            // Stale socket files from a previous run would make bind
            // fail; the daemon owns the path.
            let _ = std::fs::remove_file(&path);
            let listener = std::os::unix::net::UnixListener::bind(&path)
                .map_err(|e| format!("cannot listen on unix:{path}: {e}"))?;
            eprintln!("serve        : listening on unix:{path}");
            let accept = |l: &std::os::unix::net::UnixListener| l.accept().map(|(s, _)| s);
            spawn_accepting(listener, accept, tx, max_line, move || {
                let _ = std::fs::remove_file(&path);
            });
        }
        Some(addr) if addr.starts_with("tcp:") => {
            let host = &addr["tcp:".len()..];
            let listener = std::net::TcpListener::bind(host)
                .map_err(|e| format!("cannot listen on tcp:{host}: {e}"))?;
            eprintln!("serve        : listening on tcp:{host}");
            let accept = |l: &std::net::TcpListener| l.accept().map(|(s, _)| s);
            spawn_accepting(listener, accept, tx, max_line, || {});
        }
        Some(other) => {
            return Err(format!(
                "unknown transport '{other}' (expected 'unix:PATH' or 'tcp:HOST:PORT')"
            ));
        }
    }
    Ok(rx)
}

/// The daemon's zoo, and whether it was loaded from a snapshot.
///
/// `--resume F` loads `F.zoo` when it is an intact snapshot of this
/// invocation's zoo. Otherwise — and on every fresh start — the zoo is
/// trained, and a rejected snapshot is reported as one
/// `zoo_snapshot_rejected` event.
fn obtain_zoo(opts: &Options, key: &ZooKey) -> (ModelZoo, bool) {
    if let Some(resume) = &opts.daemon.resume {
        let path = zoo_snapshot_path(Path::new(resume));
        match load_zoo_snapshot(&path, key) {
            Ok(zoo) => {
                eprintln!("zoo          : loaded snapshot {}", path.display());
                return (zoo, true);
            }
            Err(e) => eprintln!(
                "{{\"event\":\"zoo_snapshot_rejected\",\"path\":{},\"kind\":\"{}\",\
                 \"error\":{}}}",
                Json::Str(path.display().to_string()).encode(),
                e.kind(),
                Json::Str(e.to_string()).encode()
            ),
        }
    }
    (build_zoo(opts), false)
}

/// The one-line structured startup banner, written to stderr so it
/// never interleaves with the stdout summary or a piped trace.
fn startup_banner(
    opts: &Options,
    session: &ServeSession<'_>,
    run_seed: u64,
    scenario: Option<&str>,
    admin_addr: Option<&str>,
    zoo_loaded: bool,
) {
    let opt_str = |v: Option<&str>| v.map_or(Json::Null, |s| Json::Str(s.to_owned()));
    let d = &opts.daemon;
    let mut triggers = vec![Json::Str("slot_end".to_owned())];
    if let Some(n) = d.slot_requests {
        triggers.push(Json::Str(format!("requests:{n}")));
    }
    if let Some(ms) = d.slot_ms {
        triggers.push(Json::Str(format!("ms:{ms}")));
    }
    let zoo = if zoo_loaded { "snapshot" } else { "trained" };
    let listen = opts.listen.as_deref().unwrap_or("stdin");
    let edge_threads = opts.edge_threads.unwrap_or(1) as u64;
    let fields = [
        ("event", Json::Str("serve_start".to_owned())),
        ("policy", Json::Str(opts.policy.clone())),
        ("seed", Json::UInt(run_seed)),
        ("scenario", opt_str(scenario)),
        ("serve_mode", Json::Str("batched".to_owned())),
        ("zoo", Json::Str(zoo.to_owned())),
        ("edge_threads", Json::UInt(edge_threads)),
        ("next_slot", Json::UInt(session.next_slot() as u64)),
        ("horizon", Json::UInt(session.horizon() as u64)),
        ("edges", Json::UInt(session.num_edges() as u64)),
        ("listen", Json::Str(listen.to_owned())),
        ("admin", opt_str(admin_addr)),
        ("slot_triggers", Json::Arr(triggers)),
        ("telemetry", opt_str(opts.telemetry.as_deref())),
        ("checkpoint", opt_str(d.checkpoint.as_deref())),
        ("wal", opt_str(d.wal.as_deref())),
        ("wal_sync", Json::Str(d.wal_sync.to_string())),
        ("max_line_bytes", Json::UInt(d.max_line_bytes as u64)),
        ("max_bad_lines", Json::UInt(d.max_bad_lines)),
    ];
    let banner = Json::Obj(fields.map(|(k, v)| (k.to_owned(), v)).into());
    eprintln!("{}", banner.encode());
}

/// `carbon-edge serve`.
pub fn serve(opts: &Options) -> Result<(), String> {
    if opts.policy.eq_ignore_ascii_case("offline") {
        return Err("serve needs an online policy — the offline oracle \
                    requires the whole arrival sequence in advance"
            .to_owned());
    }
    let combo: Combo = opts.policy.parse().map_err(|e| format!("{e}"))?;
    if opts.daemon.checkpoint.is_none()
        && (opts.daemon.checkpoint_every.is_some() || opts.daemon.halt_at_slot.is_some())
    {
        return Err(
            "--checkpoint-every and --halt-at-slot need --checkpoint FILE \
                    (where should the state go?)"
                .to_owned(),
        );
    }

    let mut config = build_config(opts)?;
    if let Some(slots) = opts.slots {
        config.horizon = slots;
        config.validate()?;
    }
    let daemon_opts = DaemonOptions {
        seed: opts.seed,
        telemetry: opts.telemetry.clone(),
        ..opts.daemon.clone()
    };
    // Read the checkpoint before the zoo exists, so a bad one costs one
    // error line rather than a zoo build first.
    let checkpoint = daemon_opts.resume_checkpoint()?;
    let key = zoo_key(opts);
    let (zoo, zoo_loaded) = obtain_zoo(opts, &key);
    let scenario = config.faults.as_ref().map(|s| s.name.clone());
    let serve_opts = ServeOptions {
        edge_threads: opts.edge_threads.unwrap_or(1),
        telemetry: opts.telemetry.is_some(),
        // Both feed only the ops side channel (admin endpoint, watch,
        // ops sidecar); the deterministic trace never sees them.
        live_monitor: true,
        stage_profiler: true,
    };
    let run_seed = checkpoint.as_ref().map_or(opts.seed, |c| c.seed);
    let mut daemon = SlotLoop::recover(
        config,
        &zoo,
        combo,
        checkpoint.as_ref(),
        &serve_opts,
        daemon_opts,
    )?;

    // A trained zoo goes beside the checkpoint for the next --resume.
    // The snapshot only shortens that recovery, so a failed write is
    // reported, not fatal.
    if let (Some(checkpoint), false) = (&opts.daemon.checkpoint, zoo_loaded) {
        let path = zoo_snapshot_path(Path::new(checkpoint));
        if let Err(e) = save_zoo_snapshot(&path, &zoo, &key) {
            eprintln!(
                "{{\"event\":\"zoo_snapshot_unwritten\",\"error\":{}}}",
                Json::Str(e).encode()
            );
        }
    }
    signals::install();
    let admin_addr = match opts.admin.as_deref() {
        Some(addr) => {
            let state = AdminState::new(Duration::from_millis(opts.ready_deadline_ms));
            let bound = admin::spawn(addr, state.clone())?;
            eprintln!("admin        : /metrics /healthz /readyz on {bound}");
            daemon.attach_admin(state);
            Some(bound)
        }
        None => None,
    };
    startup_banner(
        opts,
        daemon.session(),
        run_seed,
        scenario.as_deref(),
        admin_addr.as_deref(),
        zoo_loaded,
    );
    let rx = spawn_reader(opts.listen.as_deref(), opts.daemon.max_line_bytes)?;
    let session = daemon.session();
    println!(
        "serve        : policy {} seed {run_seed}, slot {} of {}, {} edges",
        opts.policy,
        session.next_slot(),
        session.horizon(),
        session.num_edges()
    );

    if !daemon.run(&rx, &signals::triggered)? {
        return Ok(());
    }
    let horizon = daemon.session().horizon();
    let outcome = daemon.finish()?;
    println!("served       : {horizon} slots, policy {}", opts.policy);
    println!("total cost   : {:.1}", outcome.record.total_cost());
    println!(
        "violation    : {:.2} allowances",
        outcome.record.violation()
    );
    println!("switches     : {}", outcome.record.total_switches());
    println!("p1 regret    : {:.1}", outcome.p1_regret);
    if opts.telemetry.is_some() {
        println!(
            "envelopes    : {} theorem-envelope violations",
            outcome.envelope_violations
        );
    }
    if let Some(path) = &opts.telemetry {
        let rec = outcome.telemetry.expect("telemetry was requested");
        write_telemetry(path, std::slice::from_ref(&rec))?;
    }
    Ok(())
}

/// `carbon-edge gen-arrivals`.
pub fn gen_arrivals(opts: &Options) -> Result<(), String> {
    let process: ArrivalProcess = opts.process.parse().map_err(|e| format!("{e}"))?;
    let slots = opts.slots.unwrap_or(40);
    if opts.start_slot >= slots {
        return Err(format!(
            "--start-slot {} is past the last slot ({})",
            opts.start_slot,
            slots - 1
        ));
    }
    let peak = opts.peak.unwrap_or(120.0);
    let gen = ArrivalGen::new(
        process,
        opts.edges,
        SLOTS_PER_DAY,
        peak,
        &SeedSequence::new(opts.seed),
    );
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut io_err = |e: std::io::Error| format!("cannot write the request stream: {e}");
    for t in opts.start_slot..slots {
        for (i, &count) in gen.slot(t).iter().enumerate() {
            // Zero-count edges are omitted: the daemon defaults
            // unmentioned edges to zero arrivals.
            if count > 0 {
                writeln!(out, "{{\"edge\":{i},\"count\":{count}}}").map_err(&mut io_err)?;
            }
        }
        writeln!(out, "{{\"slot_end\":true}}").map_err(&mut io_err)?;
    }
    out.flush().map_err(&mut io_err)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cne_core::wire::{self, WireMsg};

    #[test]
    fn generated_stream_is_deterministic_and_well_formed() {
        let gen = ArrivalGen::new(
            ArrivalProcess::Bursty,
            3,
            SLOTS_PER_DAY,
            90.0,
            &SeedSequence::new(5),
        );
        // Every generated line must round-trip through the daemon's
        // own parser, and slot counts must reconstruct exactly.
        for t in 0..20 {
            let counts = gen.slot(t);
            let mut rebuilt = vec![0u64; 3];
            for (i, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let line = format!("{{\"edge\":{i},\"count\":{c}}}");
                match wire::decode_strict(&line, 3).expect("generated lines parse") {
                    WireMsg::Request { edge, count } => rebuilt[edge] += count,
                    WireMsg::SlotEnd => panic!("not a slot end"),
                }
            }
            assert_eq!(rebuilt, counts, "slot {t}");
        }
    }
}
