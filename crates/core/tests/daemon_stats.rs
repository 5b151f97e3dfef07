//! Fleet introspection over the real wire: a loaded `privacyscoped` must
//! answer `Stats` frames with a well-formed snapshot, and a daemon
//! restarted after `kill -9` must keep answering — with the recovered
//! jobs visible in the snapshot.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use privacyscope::protocol::{self, ClientFrame, ServerFrame};
use privacyscope::ServiceStats;

/// A running `privacyscoped`, killed when the test ends (pass or panic).
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(pool: usize, spool: &PathBuf, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_privacyscoped"))
            .args(["--listen", "127.0.0.1:0", "--pool", &pool.to_string()])
            .arg("--spool")
            .arg(spool)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn privacyscoped");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read the daemon banner");
        let addr = line
            .trim()
            .strip_prefix("privacyscoped: listening on ")
            .unwrap_or_else(|| panic!("unexpected daemon banner: {line:?}"))
            .to_string();
        Daemon { child, addr }
    }

    fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One NDJSON client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            writer: stream,
            reader,
        }
    }

    fn send(&mut self, frame: &ClientFrame) {
        let line = protocol::encode(frame).expect("encode frame");
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .expect("send frame");
    }

    fn recv(&mut self) -> ServerFrame {
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("read frame");
            assert!(n > 0, "daemon closed the connection unexpectedly");
            if line.trim().is_empty() {
                continue;
            }
            return protocol::decode(&line).expect("decode server frame");
        }
    }

    /// Sends `Stats` and returns the snapshot, skipping interleaved
    /// completion frames from jobs submitted on this connection.
    fn stats(&mut self) -> (ServiceStats, telemetry::MetricsSnapshot) {
        self.send(&ClientFrame::Stats);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            assert!(Instant::now() < deadline, "no Stats answer in 30s");
            if let ServerFrame::Stats { service, metrics } = self.recv() {
                return (service, metrics);
            }
        }
    }
}

fn spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ps-daemon-stats-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("spool dir");
    dir
}

fn submit_frame(module: &mlcorpus::Module, max_paths: u64) -> ClientFrame {
    ClientFrame::Submit {
        source: module.source.to_string(),
        edl: module.edl.to_string(),
        config: String::new(),
        function: module.entry.to_string(),
        max_paths,
        loop_bound: 2,
        workers: 1,
        deadline_ms: 0,
        progress: false,
    }
}

/// Structural invariants every wire snapshot must satisfy.
fn assert_well_formed(stats: &ServiceStats, context: &str) {
    assert!(
        stats.busy <= stats.pool,
        "{context}: busy {} exceeds pool {}",
        stats.busy,
        stats.pool
    );
    let mut previous = None;
    for job in &stats.jobs {
        assert!(
            previous.is_none_or(|p| p < job.id),
            "{context}: job ids not strictly increasing"
        );
        previous = Some(job.id);
        assert!(!job.state.is_empty(), "{context}: empty job state");
    }
}

/// Counter names must come out sorted-unique: the deterministic-field-order
/// contract the `top` renderer and `--stats-out` validators rely on.
fn assert_deterministic_order(metrics: &telemetry::MetricsSnapshot, context: &str) {
    let names: Vec<&str> = metrics
        .counters
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(names, sorted, "{context}: counter names not sorted-unique");
}

#[test]
fn stats_frames_are_well_formed_mid_load_and_after_kill_and_recover() {
    let spool = spool("recover");
    let mut daemon = Daemon::start(1, &spool, &["--slice-ms", "100", "--on-disconnect", "park"]);

    // Load the single worker: a slow kmeans job (its secret branch in the
    // entry function, so it forks at every assignment) plus queued fillers.
    let mut submitter = Client::connect(&daemon.addr);
    let kmeans = mlcorpus::kmeans::entry_branching();
    let filler = mlcorpus::recommender_vulnerable();
    submitter.send(&submit_frame(&kmeans, 16));
    submitter.send(&submit_frame(&filler, 12));
    submitter.send(&submit_frame(&filler, 12));
    for _ in 0..3 {
        match submitter.recv() {
            ServerFrame::Accepted { .. } => {}
            other => panic!("expected Accepted, got {other:?}"),
        }
    }

    // A second connection polls Stats while the pool is saturated.
    let mut observer = Client::connect(&daemon.addr);
    let (mid_load, metrics) = observer.stats();
    assert_well_formed(&mid_load, "mid-load");
    assert_deterministic_order(&metrics, "mid-load");
    assert_eq!(mid_load.pool, 1);
    assert_eq!(
        mid_load.jobs.len(),
        3,
        "all submitted jobs appear in the snapshot"
    );

    // Hard-kill with the work journaled, restart on the same spool: the
    // recovered daemon must answer Stats with the requeued/resumed jobs.
    daemon.kill9();
    drop(observer);
    drop(submitter);
    let daemon = Daemon::start(1, &spool, &["--slice-ms", "100"]);
    let mut observer = Client::connect(&daemon.addr);
    let (recovered, metrics) = observer.stats();
    assert_well_formed(&recovered, "after recovery");
    assert_deterministic_order(&metrics, "after recovery");
    assert!(
        !recovered.jobs.is_empty(),
        "journaled jobs must reappear after kill -9 + restart"
    );
    let recovery_counters: u64 = metrics.counter(telemetry::names::SERVICE_RECOVERY_REQUEUED)
        + metrics.counter(telemetry::names::SERVICE_RECOVERY_RESUMED);
    assert!(
        recovery_counters > 0,
        "recovery must be visible in the service.* counters"
    );

    // The recovered fleet must finish the work: poll until every job in
    // the snapshot reaches a terminal state.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (stats, _) = observer.stats();
        let done = stats
            .jobs
            .iter()
            .all(|job| job.state == "done" || job.state == "failed");
        if done && !stats.jobs.is_empty() {
            for job in &stats.jobs {
                assert_eq!(job.state, "done", "job {} failed after recovery", job.id);
                assert!(
                    job.steps > 0,
                    "job {}: completed jobs must report profile steps",
                    job.id
                );
            }
            break;
        }
        assert!(
            Instant::now() < deadline,
            "recovered jobs did not finish in time: {:?}",
            stats.jobs
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}
