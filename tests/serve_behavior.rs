//! Acceptance tests for the `vmcw serve` service mode: load shedding
//! under overload, deadline-driven cooperative cancellation, and
//! graceful drain with boot-time recovery of interrupted jobs.
//!
//! Everything here is driven through real loopback sockets via the
//! `vmcw_bench::load` client, against a `Server` bound to port 0, so
//! the whole stack — HTTP codec, admission queue, worker pool,
//! supervisor, journal — is exercised exactly as in production. The
//! tests are ordering-deterministic: every step first *observes* the
//! server state it depends on (via `/healthz` polling) before acting,
//! and the only wall-clock dependence is "a ~1.5 s replay outlives a
//! few milliseconds of polling", which holds with enormous margin.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use vmcw_bench::load::{request, HttpReply};
use vmcw_repro::core::health::HealthSnapshot;
use vmcw_repro::core::serve::{ServeConfig, Server, JOBS_DIR};
use vmcw_repro::core::signals;
use vmcw_repro::core::supervise::JOURNAL_FILE;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vmcw-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A job big enough to hold a worker for roughly 1.5 s (one cell,
/// scale 2.0, 44 days of replay).
const SLOW_JOB: &str = "{\"id\": \"slow\", \"dcs\": \"A\", \"planners\": [\"Semi-Static\"], \
                        \"scale\": 2.0, \"history_days\": 30, \"eval_days\": 14}";

/// A job that finishes in a few milliseconds.
fn tiny_job(id: &str) -> String {
    format!(
        "{{\"id\": \"{id}\", \"dcs\": \"A\", \"planners\": [\"Semi-Static\"], \
         \"scale\": 0.02, \"history_days\": 2, \"eval_days\": 1}}"
    )
}

fn healthz(port: u16) -> HealthSnapshot {
    let reply = request(port, "GET", "/healthz", "").expect("GET /healthz");
    assert_eq!(reply.status, 200, "{}", reply.body);
    HealthSnapshot::parse(&reply.body).expect("healthz parses")
}

/// Polls `/healthz` until `pred` holds; panics after 60 s.
fn wait_for(port: u16, what: &str, pred: impl Fn(&HealthSnapshot) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let snap = healthz(port);
        if pred(&snap) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Polls `GET /v1/jobs/<id>` until the body reports `state`.
fn wait_for_job_state(port: u16, id: &str, state: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let reply = request(port, "GET", &format!("/v1/jobs/{id}"), "").expect("job status");
        if reply.status == 200 && reply.body.contains(&format!("\"state\": \"{state}\"")) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for job {id} to reach {state}: {} {}",
            reply.status,
            reply.body
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn post(port: u16, body: String) -> HttpReply {
    request(port, "POST", "/v1/plan", &body).expect("POST /v1/plan")
}

/// Worker pool of 1, queue bound of 2: with one job running and two
/// queued, the fourth concurrent submission is shed with 503 +
/// `Retry-After`, while every admitted job still completes with 200.
#[test]
fn overload_sheds_the_fourth_request_and_completes_the_queued_ones() {
    let dir = tmp_dir("overload");
    let mut config = ServeConfig::new(&dir, 0);
    config.workers = 1;
    config.queue_depth = 2;
    let server = Server::bind(config).expect("bind");
    let port = server.port();

    // Occupy the single worker...
    let slow = std::thread::spawn(move || post(port, SLOW_JOB.to_owned()));
    wait_for(port, "slow job running", |s| {
        s.serve.as_ref().is_some_and(|sv| {
            sv.inflight
                .iter()
                .any(|j| j.job == "slow" && j.state == "running")
        })
    });
    // ...fill the admission queue...
    let q1 = std::thread::spawn(move || post(port, tiny_job("q1")));
    let q2 = std::thread::spawn(move || post(port, tiny_job("q2")));
    wait_for(port, "queue depth 2", |s| {
        s.serve.as_ref().is_some_and(|sv| sv.queue_depth == 2)
    });

    // ...and the next submission must be shed, not buffered.
    let shed = post(port, tiny_job("q3"));
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert!(shed.body.contains("queue is full"), "{}", shed.body);
    let retry_after = shed
        .header("Retry-After")
        .expect("shed responses carry Retry-After");
    assert!(retry_after.parse::<u64>().expect("integral Retry-After") >= 1);

    // The admitted jobs are unharmed by the shed.
    for (label, handle) in [("slow", slow), ("q1", q1), ("q2", q2)] {
        let reply = handle.join().expect("join submitter");
        assert_eq!(reply.status, 200, "{label}: {}", reply.body);
        assert!(
            reply.body.contains("\"status\": \"completed\""),
            "{label}: {}",
            reply.body
        );
    }

    let snap = healthz(port);
    let serve = snap.serve.expect("serve block");
    assert!(serve.shed_total >= 1, "shed_total = {}", serve.shed_total);
    assert_eq!(serve.queue_limit, 2);
    assert_eq!(serve.workers, 1);

    // A job that was never admitted must not exist in the registry.
    let reply = request(port, "GET", "/v1/jobs/q3", "").expect("job status");
    assert_eq!(reply.status, 404, "{}", reply.body);

    server.drain_handle().drain();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 100 ms deadline on a ~1.5 s replay: the request returns 504 with
/// partial progress, leaves a resumable journal on disk, the worker
/// immediately serves the next request, and a server reboot resumes
/// the interrupted job to completion from its checkpoint.
#[test]
fn deadline_cancels_cooperatively_and_leaves_a_resumable_checkpoint() {
    let dir = tmp_dir("deadline");
    let mut config = ServeConfig::new(&dir, 0);
    config.workers = 1;
    let server = Server::bind(config.clone()).expect("bind");
    let port = server.port();

    let body = "{\"id\": \"dl\", \"dcs\": \"A\", \"planners\": [\"Semi-Static\"], \
                \"scale\": 2.0, \"history_days\": 30, \"eval_days\": 14, \
                \"checkpoint_every_hours\": 2, \"deadline_ms\": 100}";
    let reply = post(port, body.to_owned());
    assert_eq!(reply.status, 504, "{}", reply.body);
    assert!(
        reply.body.contains("\"status\": \"timeout\""),
        "{}",
        reply.body
    );
    assert!(reply.body.contains("\"resumable\": true"), "{}", reply.body);

    // The interrupted replay checkpointed: its journal is on disk.
    let journal = dir.join(JOBS_DIR).join("dl").join(JOURNAL_FILE);
    assert!(journal.is_file(), "no journal at {}", journal.display());

    // The worker survived the timeout and serves the next request.
    let after = post(port, tiny_job("after"));
    assert_eq!(after.status, 200, "{}", after.body);

    // The registry remembers the timeout.
    let status = request(port, "GET", "/v1/jobs/dl", "").expect("job status");
    assert_eq!(status.status, 200);
    assert!(
        status.body.contains("\"state\": \"timeout\""),
        "{}",
        status.body
    );

    let snap = healthz(port);
    assert!(snap.serve.expect("serve block").deadline_timeouts >= 1);

    server.drain_handle().drain();
    server.join();

    // Reboot on the same directory: boot recovery re-enqueues the
    // interrupted job (without a deadline) and runs it to completion
    // from the checkpoint.
    let server2 = Server::bind(config).expect("rebind");
    let port2 = server2.port();
    wait_for_job_state(port2, "dl", "completed");
    server2.drain_handle().drain();
    server2.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// First termination signal mid-replay: `/readyz` flips to 503, new
/// submissions are refused, the in-flight job checkpoints and its
/// client gets a retryable 503, `join()` returns (the process would
/// exit 0), and a reboot resumes the job. The second-signal hard-exit
/// policy is asserted via [`signals::action_for`]; delivering a real
/// second signal would kill the test process and is covered by the CI
/// `serve-smoke` job instead.
#[test]
fn drain_on_signal_checkpoints_inflight_work_and_recovers_on_reboot() {
    let dir = tmp_dir("drain");
    let mut config = ServeConfig::new(&dir, 0);
    config.workers = 1;
    let server = Server::bind(config.clone()).expect("bind");
    let port = server.port();

    let ready = request(port, "GET", "/readyz", "").expect("GET /readyz");
    assert_eq!(ready.status, 200, "{}", ready.body);

    let inflight = std::thread::spawn(move || {
        request(
            port,
            "POST",
            "/v1/plan",
            "{\"id\": \"infl\", \"dcs\": \"A\", \"planners\": [\"Semi-Static\"], \
             \"scale\": 2.0, \"history_days\": 30, \"eval_days\": 14, \
             \"checkpoint_every_hours\": 2}",
        )
        .expect("POST inflight job")
    });
    wait_for(port, "inflight job running", |s| {
        s.serve.as_ref().is_some_and(|sv| {
            sv.inflight
                .iter()
                .any(|j| j.job == "infl" && j.state == "running")
        })
    });

    // Deliver the (simulated) first SIGTERM through the real wiring:
    // the signal watcher observes it and triggers the drain handle.
    let handle = server.drain_handle();
    signals::on_first_signal(move || handle.drain());
    assert_eq!(signals::action_for(1), signals::SignalAction::Drain);
    assert_eq!(signals::action_for(2), signals::SignalAction::HardExit);
    signals::simulate_signal();

    // Drain stops readiness...
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let ready = request(port, "GET", "/readyz", "").expect("GET /readyz");
        if ready.status == 503 {
            assert!(ready.body.contains("draining"), "{}", ready.body);
            break;
        }
        assert!(Instant::now() < deadline, "readyz never flipped to 503");
        std::thread::sleep(Duration::from_millis(10));
    }
    // ...and admission.
    let refused = post(port, tiny_job("late"));
    assert_eq!(refused.status, 503, "{}", refused.body);
    assert!(refused.body.contains("draining"), "{}", refused.body);

    // The in-flight client gets a retryable interruption, not a hang.
    let reply = inflight.join().expect("join inflight submitter");
    assert_eq!(reply.status, 503, "{}", reply.body);
    assert!(
        reply.body.contains("\"status\": \"interrupted\""),
        "{}",
        reply.body
    );
    assert!(reply.body.contains("\"resumable\": true"), "{}", reply.body);
    assert!(reply.header("Retry-After").is_some());

    // Workers wind down; join() returning is the in-process equivalent
    // of "the daemon exited 0".
    server.join();
    let journal = dir.join(JOBS_DIR).join("infl").join(JOURNAL_FILE);
    assert!(journal.is_file(), "no journal at {}", journal.display());

    // Reboot: the interrupted job resumes from its checkpoint and the
    // server is ready again.
    let server2 = Server::bind(config).expect("rebind");
    let port2 = server2.port();
    let ready = request(port2, "GET", "/readyz", "").expect("GET /readyz");
    assert_eq!(ready.status, 200, "{}", ready.body);
    wait_for_job_state(port2, "infl", "completed");
    server2.drain_handle().drain();
    server2.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Anonymous submissions never collide with jobs recovered from a
/// previous process: `next_id` restarts at 1 every boot, so the id
/// generator must skip ids already present in the registry or on disk
/// instead of answering a spurious 409.
#[test]
fn generated_ids_skip_jobs_recovered_from_a_previous_boot() {
    let dir = tmp_dir("autoid");
    let mut config = ServeConfig::new(&dir, 0);
    config.workers = 1;
    let server = Server::bind(config.clone()).expect("bind");
    let port = server.port();

    let anon = "{\"dcs\": \"A\", \"planners\": [\"Semi-Static\"], \
                \"scale\": 0.02, \"history_days\": 2, \"eval_days\": 1}";
    let reply = post(port, anon.to_owned());
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(
        reply.body.contains("\"job\": \"job-0001\""),
        "{}",
        reply.body
    );
    server.drain_handle().drain();
    server.join();

    // Reboot on the same directory: job-0001 is recovered from disk,
    // and the next anonymous submission gets a fresh id, not a 409.
    let server2 = Server::bind(config).expect("rebind");
    let port2 = server2.port();
    let reply = post(port2, anon.to_owned());
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(
        reply.body.contains("\"job\": \"job-0002\""),
        "{}",
        reply.body
    );
    server2.drain_handle().drain();
    server2.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Adversarial wire input against a live server: pipelined requests get
/// exactly one response (`Connection: close`), malformed framing gets
/// 400, an oversized head gets 431 — and the server stays up.
#[test]
fn wire_garbage_gets_typed_errors_and_exactly_one_response() {
    let dir = tmp_dir("wire");
    let mut config = ServeConfig::new(&dir, 0);
    config.workers = 1;
    let server = Server::bind(config).expect("bind");
    let port = server.port();

    let raw = |bytes: &[u8]| -> String {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        stream.write_all(bytes).expect("write");
        let mut out = Vec::new();
        stream.read_to_end(&mut out).expect("read");
        String::from_utf8_lossy(&out).into_owned()
    };

    // Pipelined requests: one response, then close.
    let text = raw(b"GET /readyz HTTP/1.1\r\n\r\nGET /readyz HTTP/1.1\r\n\r\n");
    assert_eq!(text.matches("HTTP/1.1").count(), 1, "{text}");
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");

    // Pipelined garbage after a complete body is ignored, and the bad
    // body itself is a 400, not a hang or crash.
    let text =
        raw(b"POST /v1/plan HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]\x00\xff pipelined trash");
    assert!(text.starts_with("HTTP/1.1 400"), "{text}");

    // Unparsable content-length.
    let text = raw(b"POST /v1/plan HTTP/1.1\r\nContent-Length: zebra\r\n\r\n");
    assert!(text.starts_with("HTTP/1.1 400"), "{text}");

    // A head that never ends within the limit. Sized to one byte past
    // the 16 KiB head cap so the server consumes every byte we send
    // before erroring — unread bytes at close would RST the connection
    // and could discard the buffered 431 on loopback.
    let mut big = b"GET /readyz HTTP/1.1\r\n".to_vec();
    big.extend(std::iter::repeat_n(b'a', 16 * 1024 + 1 - big.len()));
    let text = raw(&big);
    assert!(text.starts_with("HTTP/1.1 431"), "{text}");

    // After all that abuse the server still answers cleanly.
    let ready = request(port, "GET", "/readyz", "").expect("GET /readyz");
    assert_eq!(ready.status, 200, "{}", ready.body);

    server.drain_handle().drain();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
