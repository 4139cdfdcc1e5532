//! Registry, span, JSON, event-schema, and scrape-endpoint tests. Every
//! test enables telemetry (the flag is process-global; the disabled path
//! is exercised by the separate `zero_alloc` binary).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};

use fda_obs::json;
use fda_obs::metrics::{bucket_index, bucket_upper_bound};
use fda_obs::{DropRecord, Json, ManualClock, MembershipRecord, RoundEvent, RunEvent};

#[test]
fn counter_and_gauge_basics() {
    fda_obs::set_enabled(true);
    let c = fda_obs::registry().counter("test_basic_counter");
    c.add(3);
    c.inc();
    assert_eq!(c.get(), 4);
    // Same name returns the same handle.
    let c2 = fda_obs::registry().counter("test_basic_counter");
    assert!(std::ptr::eq(c, c2));

    let g = fda_obs::registry().gauge("test_basic_gauge");
    g.set(-7);
    assert_eq!(g.get(), -7);
}

#[test]
fn macro_handles_are_cached() {
    fda_obs::set_enabled(true);
    let a = fda_obs::counter!("test_macro_counter");
    let b = fda_obs::counter!("test_macro_counter");
    assert!(std::ptr::eq(a, b));
}

#[test]
fn concurrent_counter_and_histogram_updates_are_exact() {
    fda_obs::set_enabled(true);
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let c = fda_obs::registry().counter("test_concurrent_counter");
    let h = fda_obs::registry().histogram("test_concurrent_hist");
    let barrier = Arc::new(Barrier::new(THREADS));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                for i in 0..PER_THREAD {
                    c.add(1);
                    h.record(t as u64 * PER_THREAD + i);
                }
            });
        }
    });
    let n = THREADS as u64 * PER_THREAD;
    assert_eq!(c.get(), n);
    assert_eq!(h.count(), n);
    // Sum of 0..n
    assert_eq!(h.sum(), n * (n - 1) / 2);
    let bucket_total: u64 = (0..fda_obs::HIST_BUCKETS).map(|i| h.bucket(i)).sum();
    assert_eq!(bucket_total, n);
}

#[test]
fn histogram_bucket_boundaries_are_exact() {
    // bucket 0 holds only 0; bucket i holds [2^(i-1), 2^i).
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 1);
    assert_eq!(bucket_index(2), 2);
    assert_eq!(bucket_index(3), 2);
    assert_eq!(bucket_index(4), 3);
    for k in 1..62 {
        let v = 1u64 << k;
        assert_eq!(bucket_index(v), k + 1, "2^{k} lower edge");
        assert_eq!(bucket_index(v - 1), k, "2^{k}-1 upper edge");
    }
    // Saturation into the final bucket.
    assert_eq!(bucket_index(u64::MAX), fda_obs::HIST_BUCKETS - 1);
    assert_eq!(bucket_index(1u64 << 63), fda_obs::HIST_BUCKETS - 1);
    // Upper bounds agree with the index function: a value equal to the
    // bound lands in the bucket, bound+1 does not.
    for i in 1..fda_obs::HIST_BUCKETS - 1 {
        let ub = bucket_upper_bound(i);
        assert_eq!(bucket_index(ub), i);
        assert_eq!(bucket_index(ub + 1), i + 1);
    }
}

#[test]
fn span_records_elapsed_micros_with_manual_clock() {
    fda_obs::set_enabled(true);
    let h = fda_obs::registry().histogram("test_span_hist");
    let clock = ManualClock::new();
    {
        let _span = h.span_with(&clock);
        clock.advance_us(1500);
    }
    assert_eq!(h.count(), 1);
    assert_eq!(h.sum(), 1500);
    assert_eq!(h.bucket(bucket_index(1500)), 1);
}

#[test]
fn json_parse_and_accessors() {
    let v = json::parse(r#"{"a":1,"b":[true,null,"x\n"],"c":-2.5e3}"#).unwrap();
    assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
    let arr = v.get("b").unwrap().as_arr().unwrap();
    assert_eq!(arr[0].as_bool(), Some(true));
    assert_eq!(arr[1], Json::Null);
    assert_eq!(arr[2].as_str(), Some("x\n"));
    assert_eq!(v.get("c").unwrap().as_f64(), Some(-2500.0));
    assert!(json::parse("{").is_err());
    assert!(json::parse("[1,]").is_err());
    assert!(json::parse("\"unterminated").is_err());
}

#[test]
fn json_number_literals_survive_round_trip() {
    let src = r#"{"a":1.2300,"b":1e9,"c":-0.5,"d":42}"#;
    let v = json::parse(src).unwrap();
    assert_eq!(v.to_string(), src);
}

fn sample_round_event() -> RoundEvent {
    RoundEvent {
        source: "net".into(),
        round: 3,
        epoch: 2,
        alive: 3,
        decision: true,
        certified: false,
        estimate: 0.04321,
        theta: 0.02,
        codec: "uniform8".into(),
        state_bytes: 1024,
        model_bytes: 247_640,
        charged_bytes: 300_000,
        measured_bytes: 300_000,
        deposit_us: vec![(0, 120), (1, 95), (3, 4000)],
        drops: vec![DropRecord {
            worker: 2,
            reason: "timeout".into(),
        }],
    }
}

#[test]
fn round_event_round_trip_is_byte_identical() {
    let ev = sample_round_event();
    let line = ev.to_json().to_string();
    let parsed = json::parse(&line).unwrap();
    let ev2 = RoundEvent::from_json(&parsed).unwrap();
    assert_eq!(ev, ev2);
    assert_eq!(ev2.to_json().to_string(), line);
}

#[test]
fn run_event_round_trip_is_byte_identical() {
    let ev = RunEvent {
        source: "net".into(),
        workers: 4,
        variant: "sketch".into(),
        theta: 0.02,
        steps: 20,
        syncs: 5,
        decisions: "00101".into(),
        codec: "dense32".into(),
        charged_bytes: 123_456,
        measured_payload_bytes: 123_456,
        raw_tx_bytes: 200_000,
        raw_rx_bytes: 199_000,
        survivors: vec![0, 1, 3],
        membership: vec![
            MembershipRecord {
                round: 0,
                worker: 0,
                event: "join".into(),
            },
            MembershipRecord {
                round: 3,
                worker: 2,
                event: "drop-timeout".into(),
            },
        ],
    };
    let line = ev.to_json().to_string();
    let parsed = json::parse(&line).unwrap();
    let ev2 = RunEvent::from_json(&parsed).unwrap();
    assert_eq!(ev, ev2);
    assert_eq!(ev2.to_json().to_string(), line);
    assert!(parsed
        .get("measured_equals_charged")
        .unwrap()
        .as_bool()
        .unwrap());
}

#[test]
fn non_finite_estimate_serializes_as_null_and_parses_as_nan() {
    let mut ev = sample_round_event();
    ev.estimate = f32::NAN;
    let line = ev.to_json().to_string();
    assert!(line.contains("\"estimate\":null"));
    let ev2 = RoundEvent::from_json(&json::parse(&line).unwrap()).unwrap();
    assert!(ev2.estimate.is_nan());
}

#[test]
fn jsonl_writer_and_reader_round_trip() {
    let path = std::env::temp_dir().join(format!("fda_obs_jsonl_{}.jsonl", std::process::id()));
    {
        let mut w = fda_obs::JsonlWriter::create(&path).unwrap();
        w.write(&sample_round_event().to_json()).unwrap();
        w.write(&Json::Obj(vec![("x".into(), Json::u64(1))]))
            .unwrap();
    }
    let lines = fda_obs::event::read_jsonl(&path).unwrap();
    assert_eq!(lines.len(), 2);
    assert_eq!(
        RoundEvent::from_json(&lines[0]).unwrap(),
        sample_round_event()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn scrape_endpoint_serves_prometheus_text() {
    fda_obs::set_enabled(true);
    let c = fda_obs::registry().counter("test_scrape_counter");
    c.add(41);
    let h = fda_obs::registry().histogram("test_scrape_hist");
    h.record(5);
    h.record(900);

    let server = fda_obs::MetricsServer::bind("127.0.0.1:0").unwrap();
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();

    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("# TYPE test_scrape_counter counter"));
    assert!(response.contains("test_scrape_counter 41"));
    assert!(response.contains("# TYPE test_scrape_hist histogram"));
    assert!(response.contains("test_scrape_hist_count 2"));
    assert!(response.contains("test_scrape_hist_sum 905"));
    assert!(response.contains("test_scrape_hist_bucket{le=\"+Inf\"} 2"));
}
