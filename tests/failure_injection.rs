//! Failure injection across crate boundaries: corrupt files, truncated
//! pages, malformed XML, and hostile configurations must surface as typed
//! errors — never panics, hangs, or silent misdata.

use rased_core::{CubeSchema, Rased, RasedConfig};
use rased_index::{CacheConfig, IndexError, TemporalIndex};
use rased_osm_gen::{Dataset, DatasetConfig};
use rased_osm_xml::{DiffReader, PlanetReader};
use rased_storage::{IoCostModel, PageFile, StorageError};
use rased_temporal::{Date, DateRange, Period};

mod common;
use common::tmpdir;


#[test]
fn corrupt_cube_page_is_reported_not_misread() {
    let dir = tmpdir("corrupt-cube");
    let schema = CubeSchema::tiny();
    let index =
        TemporalIndex::create(&dir, schema, 4, CacheConfig::disabled(), IoCostModel::free())
            .unwrap();
    let day: Date = "2021-06-01".parse().unwrap();
    index
        .ingest_day(day, &rased_core::DataCube::zeroed(schema))
        .unwrap();
    index.sync().unwrap();
    drop(index);

    // Stomp the cube page's magic through the page file.
    {
        let pf = PageFile::open(&dir.join("cubes.pg"), IoCostModel::free()).unwrap();
        let mut page = pf.read_page_vec(rased_storage::PageId(0)).unwrap();
        page[0..8].copy_from_slice(b"GARBAGE!");
        pf.write_page(rased_storage::PageId(0), &page).unwrap();
        pf.sync().unwrap();
    }

    let index =
        TemporalIndex::open(&dir, schema, 4, CacheConfig::disabled(), IoCostModel::free()).unwrap();
    match index.fetch(Period::Day(day)) {
        Err(IndexError::Cube(_)) => {}
        other => panic!("expected cube corruption error, got {other:?}"),
    }
}

#[test]
fn truncated_page_file_is_reported() {
    let dir = tmpdir("truncated-pg");
    let path = dir.join("t.pg");
    {
        let pf = PageFile::create(&path, 4096, IoCostModel::free()).unwrap();
        pf.append_page(&[7u8; 4096]).unwrap();
        pf.sync().unwrap();
    }
    // Chop the file mid-page.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 100]).unwrap();

    let pf = PageFile::open(&path, IoCostModel::free()).unwrap();
    match pf.read_page_vec(rased_storage::PageId(0)) {
        Err(StorageError::Io(_)) => {}
        other => panic!("expected I/O error on truncated page, got {other:?}"),
    }
}

#[test]
fn malformed_xml_never_panics() {
    let hostile = [
        "",
        "<",
        "<osm",
        "<osm><node/></osm>",                       // node missing required attrs
        "<osm><node id='1'></osm>",                 // tag soup
        "<osmChange><modify><node id='1' lat='x' lon='0' version='1' timestamp='2020-01-01T00:00:00Z' changeset='1'/></modify></osmChange>",
        "<?xml version='1.0'?><!-- only a comment -->",
        "<osm>&unknown;</osm>",
        "<osm><way id='1' version='1' timestamp='9999-99-99T00:00:00Z' changeset='1'/></osm>",
    ];
    for doc in hostile {
        // Both readers must terminate with Ok(None) or Err — never hang or
        // panic. (Iterator form caps at a generous bound to catch loops.)
        let mut planet = PlanetReader::new(doc.as_bytes());
        for _ in 0..100 {
            match planet.next_element() {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
        let mut diff = DiffReader::new(doc.as_bytes());
        for _ in 0..100 {
            match diff.next_change() {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }
}

#[test]
fn ingest_with_missing_files_fails_cleanly() {
    let dir = tmpdir("missing-files");
    let mut cfg = DatasetConfig::small(61);
    cfg.range = DateRange::new(Date::new(2021, 1, 1).unwrap(), Date::new(2021, 1, 10).unwrap());
    cfg.sim.daily_edits_mean = 10.0;
    let ds = Dataset::generate(&dir.join("osm"), cfg).unwrap();

    // Delete one diff file.
    std::fs::remove_file(ds.paths.diff(Date::new(2021, 1, 5).unwrap())).unwrap();

    let schema = CubeSchema::new(ds.config.world.n_countries, ds.config.sim.n_road_types);
    let system =
        Rased::create(RasedConfig::new(dir.join("sys")).with_schema(schema)).unwrap();
    let err = system.ingest_dataset(&ds).unwrap_err();
    assert!(err.to_string().contains("I/O"), "{err}");
}

#[test]
fn schema_mismatch_on_reopen_is_detected() {
    let dir = tmpdir("schema-mismatch");
    let schema = CubeSchema::new(8, 4);
    {
        let index =
            TemporalIndex::create(&dir, schema, 4, CacheConfig::disabled(), IoCostModel::free())
                .unwrap();
        index
            .ingest_day("2021-01-01".parse().unwrap(), &rased_core::DataCube::zeroed(schema))
            .unwrap();
        index.sync().unwrap();
    }
    // Reopen claiming a different schema: fetch must fail, not misdecode.
    let wrong = CubeSchema::new(9, 4);
    let index =
        TemporalIndex::open(&dir, wrong, 4, CacheConfig::disabled(), IoCostModel::free()).unwrap();
    let day: Date = "2021-01-01".parse().unwrap();
    assert!(index.fetch(Period::Day(day)).is_err());
}

#[test]
fn cache_capacity_zero_and_warm_on_empty_index() {
    let dir = tmpdir("empty-warm");
    let schema = CubeSchema::tiny();
    let index = TemporalIndex::create(
        &dir,
        schema,
        4,
        CacheConfig { slots: 0, ..CacheConfig::paper_default() },
        IoCostModel::free(),
    )
    .unwrap();
    // Warming an empty index with a zero-slot cache is a no-op, not a crash.
    index.warm_cache().unwrap();
    assert!(index.cache().is_empty());
    assert_eq!(index.coverage(), None);
}

#[test]
fn queries_on_empty_system_return_empty() {
    let dir = tmpdir("empty-system");
    let system = Rased::create(RasedConfig::new(&*dir)).unwrap();
    let q = rased_core::AnalysisQuery::over(DateRange::new(
        Date::new(2020, 1, 1).unwrap(),
        Date::new(2020, 12, 31).unwrap(),
    ));
    let result = system.query(&q).unwrap();
    assert!(result.rows.is_empty());
    assert_eq!(result.stats.empty_days, 366);
    let samples = system
        .sample_region(&rased_geo::BBox::world(), 10)
        .unwrap();
    assert!(samples.is_empty());
}

// ---------------------------------------------------------------------------
// HTTP failure injection: hostile clients against the live serving tier.
// ---------------------------------------------------------------------------

mod http_hostile {
    use super::common::{self, read_response, tmpdir};
    use common::TestServer;
    use rased_core::{Rased, RasedConfig, ServerConfig};
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn empty_system(tag: &str) -> (common::TempDir, Arc<Rased>) {
        let dir = tmpdir(&format!("fail-http-{tag}"));
        let system = Rased::create(RasedConfig::new(dir.join("sys"))).unwrap();
        (dir, Arc::new(system))
    }

    fn hostile_config() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_depth: 8,
            read_timeout: Duration::from_millis(300),
            write_timeout: Duration::from_secs(2),
            max_request_line_bytes: 1024,
            max_header_bytes: 4096,
            max_body_bytes: 1024,
            ..ServerConfig::default()
        }
    }

    /// Slowloris: a client that trickles half a header block and stalls is
    /// reaped by the read timeout — answered 408 and disconnected, without
    /// hanging a worker.
    #[test]
    fn slowloris_is_reaped_by_read_timeout() {
        let (_dir, system) = empty_system("slowloris");
        let ts = TestServer::start(system, hostile_config());

        let started = Instant::now();
        let stream = TcpStream::connect(ts.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Half a request, then silence.
        write!(&stream, "GET /api/meta HTTP/1.1\r\nHost: slow").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let r = read_response(&mut reader).expect("server must answer 408, not hang");
        assert_eq!(r.status, 408);
        assert_eq!(r.header("connection"), Some("close"));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "reaping took {:?}",
            started.elapsed()
        );

        let server = Arc::clone(&ts.server);
        ts.stop().unwrap();
        assert!(server.metrics().timeouts_total() >= 1, "timeout not counted");
    }

    /// An idle keep-alive connection (no bytes at all) is closed silently
    /// when the read timeout expires — no 408 for a request that never
    /// started.
    #[test]
    fn idle_connection_expires_silently() {
        let (_dir, system) = empty_system("idle");
        let ts = TestServer::start(system, hostile_config());

        let stream = TcpStream::connect(ts.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // The server closes without writing anything.
        let err = read_response(&mut reader).expect_err("no response for an idle close");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        ts.stop().unwrap();
    }

    /// A body larger than the cap is rejected 413 from the declared
    /// Content-Length alone — the server never buffers the payload.
    #[test]
    fn oversized_body_is_413() {
        let (_dir, system) = empty_system("bigbody");
        let ts = TestServer::start(system, hostile_config());

        let stream = TcpStream::connect(ts.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(
            &stream,
            "POST /api/meta HTTP/1.1\r\nHost: t\r\nContent-Length: 1000000\r\n\r\n"
        )
        .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let r = read_response(&mut reader).unwrap();
        assert_eq!(r.status, 413);
        assert_eq!(r.header("connection"), Some("close"));
        ts.stop().unwrap();
    }

    /// Malformed requests get typed 4xx responses — never panics or hangs.
    #[test]
    fn malformed_requests_get_typed_4xx() {
        let (_dir, system) = empty_system("malformed");
        let ts = TestServer::start(system, hostile_config());

        let cases: Vec<(Vec<u8>, u16)> = vec![
            (b"GARBAGE\r\n\r\n".to_vec(), 400),
            (b"GET / HTTP/1.1\r\nNoColon\r\n\r\n".to_vec(), 400),
            (b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec(), 400),
            (b"GET / HTTP/3.0\r\n\r\n".to_vec(), 505),
            // Request line beyond the 1 KiB cap → 431.
            (format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(4096)).into_bytes(), 431),
            // Header block beyond the 4 KiB cap → 431.
            (
                format!("GET / HTTP/1.1\r\n{}\r\n", "X-Flood: yyyyyyyyyyyyyyyyyyyy\r\n".repeat(400))
                    .into_bytes(),
                431,
            ),
            // A declared body is not awaited once the request line or a
            // header name already settles the verdict.
            (b"GET / HTTP/2.0\r\nContent-Length: 5\r\n\r\n".to_vec(), 505),
            (b"GARBAGE\r\nContent-Length: 5\r\n\r\n".to_vec(), 400),
            (b"POST / HTTP/1.1\r\nBad Name: x\r\nContent-Length: 5\r\n\r\n".to_vec(), 400),
        ];
        for (bytes, want) in cases {
            let stream = TcpStream::connect(ts.addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            (&stream).write_all(&bytes).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let r = read_response(&mut reader).unwrap();
            assert_eq!(r.status, want, "{:?}...", &bytes[..bytes.len().min(40)]);
        }
        ts.stop().unwrap();
    }

    /// Stalled clients park in the event loop, not on pool threads: with a
    /// single worker, several simultaneous slowloris connections must not
    /// delay a healthy request, and the busy-worker watermark must never
    /// exceed the pool size.
    #[test]
    fn stalled_clients_do_not_pin_workers() {
        let (_dir, system) = empty_system("noworkerpin");
        let config = ServerConfig { workers: 1, ..hostile_config() };
        let ts = TestServer::start(system, config);

        let mut stalled = Vec::new();
        for _ in 0..4 {
            let s = TcpStream::connect(ts.addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            write!(&s, "GET /api/meta HTTP/1.1\r\nHost: sl").unwrap();
            stalled.push(s);
        }
        std::thread::sleep(Duration::from_millis(50));

        // A healthy request must be answered while all four still stall —
        // well inside the 300 ms it takes to reap even *one* of them.
        let t0 = Instant::now();
        let r = common::http_get(ts.addr, "/api/meta").unwrap();
        assert_eq!(r.status, 200);
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "healthy request waited {:?} behind stalled clients",
            t0.elapsed()
        );

        // Every stalled client is still reaped with its own 408.
        for s in stalled {
            let mut reader = BufReader::new(s.try_clone().unwrap());
            let r = read_response(&mut reader).expect("stalled client must get 408");
            assert_eq!(r.status, 408);
        }

        let server = Arc::clone(&ts.server);
        ts.stop().unwrap();
        let m = server.metrics();
        assert!(m.timeouts_total() >= 4, "stalls not reaped: {}", m.timeouts_total());
        assert!(m.max_busy_workers() <= 1, "pool bound broken: {}", m.max_busy_workers());
    }

    /// Graceful shutdown drains parked connections deterministically: a
    /// connection parked mid-request is answered 408, an idle one closes
    /// silently, and `stop()` returns once every connection is gone —
    /// bounded by the read timeout, never hanging on parked sockets.
    #[test]
    fn graceful_shutdown_drains_parked_connections() {
        let (_dir, system) = empty_system("drainpark");
        let ts = TestServer::start(system, hostile_config());

        // Parked in Reading with nothing buffered: must close silently.
        let idle = TcpStream::connect(ts.addr).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Parked in Reading mid-request: must be answered 408.
        let stalled = TcpStream::connect(ts.addr).unwrap();
        stalled.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(&stalled, "GET /api/meta HTTP/1.1\r\nHost: park").unwrap();

        // Wait until both are inside the loop, then stop.
        let deadline = Instant::now() + Duration::from_secs(5);
        while ts.server.metrics().accepted() < 2 {
            assert!(Instant::now() < deadline, "acceptor stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        let server = Arc::clone(&ts.server);
        let t0 = Instant::now();
        ts.stop().unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown hung {:?} on parked connections",
            t0.elapsed()
        );

        // The stalled client got its deterministic 408 …
        let mut reader = BufReader::new(stalled.try_clone().unwrap());
        let r = read_response(&mut reader).expect("parked mid-request must get 408 on drain");
        assert_eq!(r.status, 408);
        // … the idle one a silent close …
        let mut reader = BufReader::new(idle.try_clone().unwrap());
        let err = read_response(&mut reader).expect_err("idle park must close silently");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        // … and the books balance.
        let m = server.metrics();
        assert_eq!(m.active(), 0, "connections left open after drain");
        assert_eq!(m.completed(), m.accepted(), "parked connections were leaked");
    }

    /// Backpressure: with 1 worker and a queue depth of 1, at most two
    /// connections are open at once; the next one is rejected 503 +
    /// Retry-After instead of queueing unboundedly.
    #[test]
    fn queue_full_gets_503_with_retry_after() {
        let (_dir, system) = empty_system("queuefull");
        let config = ServerConfig {
            workers: 1,
            queue_depth: 1,
            read_timeout: Duration::from_secs(5),
            ..hostile_config()
        };
        let ts = TestServer::start(system, config);
        let wait_accepted = |n: u64| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while ts.server.metrics().accepted() < n {
                assert!(Instant::now() < deadline, "acceptor stalled");
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        // A and B, idle, fill the `workers + queue_depth` connection cap.
        // The loop accepts in arrival order, so waiting for each accept
        // makes C the one over the cap.
        let a = TcpStream::connect(ts.addr).unwrap();
        wait_accepted(1);
        let _b = TcpStream::connect(ts.addr).unwrap();
        wait_accepted(2);
        // C: over the cap → immediate 503.
        let c = TcpStream::connect(ts.addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(c.try_clone().unwrap());
        let r = read_response(&mut reader).unwrap();
        assert_eq!(r.status, 503);
        assert!(r.header("retry-after").is_some(), "503 without Retry-After");

        // A can still complete its request: load-shedding never broke the
        // connections already admitted.
        write!(&a, "GET /api/meta HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
        let mut reader = BufReader::new(a.try_clone().unwrap());
        let r = read_response(&mut reader).unwrap();
        assert_eq!(r.status, 200);

        let server = Arc::clone(&ts.server);
        ts.stop().unwrap();
        assert!(server.metrics().queue_full_total() >= 1);
    }
}
