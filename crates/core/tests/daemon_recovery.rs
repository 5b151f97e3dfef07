//! Daemon crash recovery over the real wire: `kill -9` a `privacyscoped`
//! with journaled jobs in flight, restart it on the same spool, and every
//! job must complete with a report byte-identical to an uninterrupted
//! direct run — at pool 1 and pool 4. Plus graceful drain: SIGTERM under
//! load exits 0 with no half-written spool files left behind.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use privacyscope::analyzer::{Analyzer, AnalyzerOptions};
use privacyscope::protocol::{self, ClientFrame, ServerFrame};

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
}

fn spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ps-daemon-rec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("spool dir");
    dir
}

struct Job {
    source: String,
    edl: String,
    entry: String,
    max_paths: u64,
}

fn corpus_job(name: &str, max_paths: u64) -> Job {
    let module = mlcorpus::modules()
        .into_iter()
        .chain(std::iter::once(mlcorpus::recommender_vulnerable()))
        .chain(std::iter::once(mlcorpus::kmeans::entry_branching()))
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("corpus has no module named `{name}`"));
    Job {
        source: module.source.to_string(),
        edl: module.edl.to_string(),
        entry: module.entry.to_string(),
        max_paths,
    }
}

fn submit_frame(job: &Job) -> ClientFrame {
    ClientFrame::Submit {
        source: job.source.clone(),
        edl: job.edl.clone(),
        config: String::new(),
        function: job.entry.clone(),
        max_paths: job.max_paths,
        loop_bound: 2,
        workers: 1,
        deadline_ms: 0,
        progress: false,
    }
}

/// Zeroes the wall-clock `"time"` stat, the only non-deterministic bytes
/// in a report's JSON.
fn normalize(json: &str) -> String {
    let marker = "\"time\": ";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(pos) = rest.find(marker) {
        let (head, tail) = rest.split_at(pos + marker.len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// The report an uninterrupted in-process run produces for this job.
fn direct_report(job: &Job) -> String {
    let options = AnalyzerOptions {
        max_paths: usize::try_from(job.max_paths).expect("small budget"),
        loop_bound: 2,
        workers: 1,
        ..AnalyzerOptions::default()
    };
    let analyzer =
        Analyzer::from_sources(&job.source, &job.edl, options).expect("corpus module parses");
    normalize(
        &analyzer
            .analyze(&job.entry)
            .expect("direct analysis succeeds")
            .to_json(),
    )
}

/// Polls `Fetch` until the job is terminal, returning its first report.
fn fetch_report(client: &mut Client, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        client.send(&ClientFrame::Fetch { job: id });
        match client.recv() {
            ServerFrame::Done { job, reports, .. } => {
                assert_eq!(job, id);
                assert_eq!(reports.len(), 1, "one target, one report");
                return normalize(&reports[0]);
            }
            ServerFrame::Error { message, .. } => {
                panic!("recovered job {id} failed: {message}")
            }
            ServerFrame::State { state, .. } => {
                assert_ne!(
                    state, "unknown",
                    "job {id} vanished across the restart (recovery lost it)"
                );
                assert!(
                    Instant::now() < deadline,
                    "job {id} never finished after recovery (stuck `{state}`)"
                );
                std::thread::sleep(Duration::from_millis(200));
            }
            other => panic!("unexpected reply to Fetch: {other:?}"),
        }
    }
}

/// The tentpole acceptance: kill -9 mid-run, restart on the same spool,
/// and every journaled job completes byte-identical to a direct run.
#[test]
fn kill9_restart_recovers_all_jobs_byte_identical() {
    // Kmeans with its secret branch in the entry function forks until its
    // path budget cuts it. At these budgets a job runs about 0.7 s and
    // 0.45 s in a release build (about ten times that in debug), far longer
    // than the kill window, so neither job can slip to Done before the -9
    // even on a loaded host.
    let jobs = [
        corpus_job("KmeansEntryBranching", 96),
        corpus_job("KmeansEntryBranching", 64),
    ];
    let expected: Vec<String> = jobs.iter().map(direct_report).collect();

    for pool in [1usize, 4] {
        let dir = spool(&format!("kill9-pool{pool}"));
        let first = Daemon::start(pool, &dir, &["--slice-ms", "200"]);
        let mut client = Client::connect(&first.addr);
        let mut ids = Vec::new();
        for job in &jobs {
            client.send(&submit_frame(job));
            match client.recv() {
                ServerFrame::Accepted { job: id } => ids.push(id),
                other => panic!("pool {pool}: submission not accepted: {other:?}"),
            }
        }
        // Hard kill with both jobs journaled and in flight.
        drop(first);

        let second = Daemon::start(pool, &dir, &[]);
        let mut client = Client::connect(&second.addr);
        client.send(&ClientFrame::Recovery);
        match client.recv() {
            ServerFrame::Recovery {
                requeued, resumed, ..
            } => {
                assert_eq!(
                    requeued + resumed,
                    jobs.len() as u64,
                    "pool {pool}: every journaled job must come back"
                );
            }
            other => panic!("pool {pool}: unexpected reply to Recovery: {other:?}"),
        }
        for (id, want) in ids.iter().zip(&expected) {
            let got = fetch_report(&mut client, *id);
            assert_eq!(
                &got, want,
                "pool {pool}, job {id}: recovered report diverged from the direct run"
            );
        }
    }
}

/// Graceful drain: SIGTERM with a job running parks the work and exits 0,
/// leaving no half-written (`.tmp`) spool files; a restart on the same
/// spool finishes the parked job.
#[test]
fn sigterm_drains_parks_and_exits_zero() {
    let dir = spool("sigterm");
    let job = corpus_job("KmeansEntryBranching", 16);
    let mut daemon = Daemon::start(1, &dir, &["--slice-ms", "200"]);
    let mut client = Client::connect(&daemon.addr);
    client.send(&submit_frame(&job));
    let id = match client.recv() {
        ServerFrame::Accepted { job } => job,
        other => panic!("submission not accepted: {other:?}"),
    };

    let status = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success(), "kill -TERM failed");
    let deadline = Instant::now() + Duration::from_secs(120);
    let exit = loop {
        if let Some(exit) = daemon.child.try_wait().expect("poll daemon") {
            break exit;
        }
        assert!(
            Instant::now() < deadline,
            "daemon did not exit after SIGTERM (drain hung)"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    assert_eq!(exit.code(), Some(0), "drain must exit 0, got {exit:?}");

    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .expect("read spool")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert_eq!(
        leftovers,
        Vec::<String>::new(),
        "a clean drain leaves no half-written spool files"
    );

    let restarted = Daemon::start(1, &dir, &[]);
    let mut client = Client::connect(&restarted.addr);
    client.send(&ClientFrame::Recovery);
    match client.recv() {
        ServerFrame::Recovery {
            requeued, resumed, ..
        } => assert_eq!(
            requeued + resumed,
            1,
            "the parked job must survive the drain"
        ),
        other => panic!("unexpected reply to Recovery: {other:?}"),
    }
    let got = fetch_report(&mut client, id);
    assert_eq!(
        got,
        direct_report(&job),
        "report diverged across a drain + restart"
    );
}
