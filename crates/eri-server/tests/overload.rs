//! Integration tests for the overload-control layer (DESIGN §14):
//! graceful drain books.
//!
//! * **Drain, don't drop.** A server with slow (injected-delay)
//!   handlers is drained while concurrent clients hammer it. The
//!   admission books must balance (`admitted == completed`, drain
//!   complete) and every response a client *did* receive must be
//!   byte-identical to the store — an admitted request is never
//!   dropped or torn, and every refusal is a structured error.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use eri_server::transport::ServeOptions;
use eri_server::{
    ClientConfig, Endpoint, InjectedLoad, OverloadInject, RemoteClient, ServerConfig, ServerHandle,
    TransportServer,
};

const BLOCKS: usize = 8;
const SUBBLOCKS: usize = 4;
const SUBBLOCK_SIZE: usize = 16;

/// Same patterned-block fixture the CLI integration tests use, so a
/// fetched block can be recomputed and compared value-for-value.
fn expected_block(b: usize) -> Vec<f64> {
    let mut block = Vec::with_capacity(SUBBLOCKS * SUBBLOCK_SIZE);
    for sb in 0..SUBBLOCKS {
        let s = ((sb + b) as f64 * 0.61).cos();
        for i in 0..SUBBLOCK_SIZE {
            block.push(s * ((i + b) as f64 * 0.37).sin() * 1e-6);
        }
    }
    block
}

fn build_store(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("overload.eristore");
    let geom = pastri::BlockGeometry::new(SUBBLOCKS, SUBBLOCK_SIZE);
    let mut w = eri_store::StoreWriter::create(&path, geom, 1e-10).unwrap();
    for b in 0..BLOCKS {
        w.append_block(&expected_block(b)).unwrap();
    }
    w.finish().unwrap();
    path
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pastri-eri-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The decompressed values are lossy-compressed under eb 1e-10; a
/// served block must match the original within that bound.
fn assert_block_close(got: &[f64], b: usize) {
    let want = expected_block(b);
    assert_eq!(got.len(), want.len(), "block {b}: wrong length");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!((g - w).abs() <= 1e-9, "block {b} value {i}: {g} vs {w}");
    }
}

fn bind_server(store: &std::path::Path, opts: ServeOptions) -> (TransportServer, Endpoint) {
    let cfg = ServerConfig::default();
    let handle = ServerHandle::open(&[&store], &cfg).unwrap();
    let srv = TransportServer::bind_with(
        &Endpoint::parse("tcp:127.0.0.1:0").unwrap(),
        Arc::new(handle),
        opts,
    )
    .unwrap();
    let ep = srv.local_endpoint();
    (srv, ep)
}

/// Drain books balance under concurrent load with slow handlers: no
/// admitted request is dropped, no received response is torn, every
/// refusal is structured.
#[test]
fn drain_books_prove_no_admitted_request_was_dropped() {
    let dir = tmpdir("drain-books");
    let store = build_store(&dir);

    // Every request's handler sleeps 2 ms, so the drain reliably
    // catches requests mid-service.
    let opts = ServeOptions {
        inject: Some(Arc::new(|_key: u64, _attempt: u32| InjectedLoad {
            shed: false,
            retry_after: Duration::ZERO,
            delay: Duration::from_millis(2),
        }) as Arc<dyn OverloadInject>),
        ..Default::default()
    };
    let (srv, ep) = bind_server(&store, opts);
    let stop = srv.stop_handle();
    let server = std::thread::spawn(move || srv.run(None));

    let ok_reads = Arc::new(AtomicU64::new(0));
    let refusals = Arc::new(AtomicU64::new(0));
    let mut clients = Vec::new();
    for c in 0..4u64 {
        let ep = ep.clone();
        let ok_reads = Arc::clone(&ok_reads);
        let refusals = Arc::clone(&refusals);
        clients.push(std::thread::spawn(move || {
            let cfg = ClientConfig {
                deadline: Duration::from_secs(2),
                ..ClientConfig::default()
            };
            let Ok(mut client) = RemoteClient::connect(&[ep], cfg) else {
                // The drain may land before this client's handshake;
                // a structured connect error is a fine outcome.
                return;
            };
            for round in 0..200u64 {
                let ids: Vec<u64> = (0..3).map(|i| (c + round + i) % BLOCKS as u64).collect();
                match client.read_blocks(&ids) {
                    Ok(blocks) => {
                        // An accepted request is never torn: every
                        // delivered block is the store's block.
                        assert_eq!(blocks.len(), ids.len());
                        for (slot, id) in blocks.iter().zip(&ids) {
                            let vals = slot.as_ref().expect("clean store block errored");
                            assert_block_close(vals, *id as usize);
                        }
                        ok_reads.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => {
                        // Draining/stopped: structured refusal by
                        // construction (it reached us as a typed
                        // ClientError, not a torn response).
                        refusals.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                }
            }
        }));
    }

    // Let the clients get in flight, then drain.
    std::thread::sleep(Duration::from_millis(60));
    let outcome = stop.drain(Duration::from_secs(10));
    for t in clients {
        t.join().unwrap();
    }
    server.join().unwrap().unwrap();

    assert!(outcome.complete, "drain must finish within its deadline: {outcome:?}");
    assert_eq!(outcome.in_flight_at_deadline, 0);
    assert_eq!(
        outcome.stats.admitted, outcome.stats.completed,
        "admitted requests must all complete: {outcome:?}"
    );
    assert!(outcome.stats.admitted > 0, "the storm admitted nothing");
    assert!(ok_reads.load(Ordering::SeqCst) > 0, "no client ever succeeded");
}
