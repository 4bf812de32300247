//! The protocol's wire bytes, pinned against the build *before* the
//! plan cache kept a plan's rendered form: `fixtures/responses.txt`
//! holds request lines and the exact response lines that build gave.
//! The harness only compares served against in-process answers of one
//! build, so it cannot see a rendering change; this replay can.

use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread;

use fupermod_core::json::quote;
use fupermod_store::protocol::{handle, parse_request};
use fupermod_store::server::{serve, Client};
use fupermod_store::{ModelStore, StoreConfig};

/// `(request, response)` pairs in file order.
fn fixture() -> Vec<(&'static str, &'static str)> {
    let lines: Vec<&str> = include_str!("fixtures/responses.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect();
    assert_eq!(lines.len() % 2, 0, "fixture lines pair up");
    assert!(lines.len() >= 500, "fixture truncated: {} lines", lines.len());
    lines.chunks(2).map(|pair| (pair[0], pair[1])).collect()
}

#[test]
fn parse_and_handle_replay_the_parent_bytes() {
    let store = ModelStore::new(StoreConfig::default());
    for (i, (request, want)) in fixture().into_iter().enumerate() {
        let got = match parse_request(request) {
            Ok(parsed) => handle(&store, &parsed),
            Err(e) => format!("{{\"ok\":false,\"error\":{}}}", quote(&e.to_string())),
        };
        assert_eq!(got, want, "pair {i}: {request}");
    }
}

#[test]
fn a_live_daemon_replays_the_parent_bytes() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let store = Arc::new(ModelStore::new(StoreConfig::default()));
    let server = thread::spawn(move || serve(listener, store, Arc::new(AtomicBool::new(false))));
    let mut client = Client::connect(addr).unwrap();
    for (i, (request, want)) in fixture().into_iter().enumerate() {
        assert_eq!(client.request(request).unwrap(), want, "pair {i}: {request}");
    }
    client.request(r#"{"op":"shutdown"}"#).unwrap();
    server.join().unwrap().unwrap();
}
