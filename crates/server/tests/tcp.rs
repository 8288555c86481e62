//! The TCP transport end to end: a client connects to
//! `net::serve_tcp`, speaks two protocol lines, and a `shutdown` request
//! stops the listener.

use privcluster_engine::{Engine, EngineConfig};
use privcluster_server::{net, ShardedServer};
use std::io::{BufRead, BufReader, Write};
use std::sync::{mpsc, Arc};

#[test]
fn tcp_round_trip() {
    let (addr_tx, addr_rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        let engine = Engine::new(EngineConfig {
            threads: 1,
            cache_capacity: 8,
            ..EngineConfig::default()
        });
        let server = Arc::new(ShardedServer::new(vec![engine], 8));
        net::serve_tcp(&server, "127.0.0.1:0", move |addr| {
            addr_tx.send(addr).unwrap();
        })
        .unwrap();
    });
    let addr = addr_rx.recv().unwrap();
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    writeln!(stream, r#"{{"op":"list"}}"#).unwrap();
    writeln!(stream, r#"{{"op":"shutdown"}}"#).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""op":"list""#));
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""op":"shutdown""#));
    server.join().unwrap();
}
