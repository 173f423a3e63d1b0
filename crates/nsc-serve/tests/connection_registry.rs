//! The TCP front's connection registry does not leak: a connection that
//! ends leaves it and closes its socket.  After 64 connections, opened
//! and closed one after another with one request each, the process holds
//! about as many file descriptors as before them.
//!
//! A process of its own, with one test, so that no other test opens or
//! closes descriptors while this one counts them (Linux: `/proc/self/fd`).
#![cfg(target_os = "linux")]

use nsc_core::ast as a;
use nsc_core::types::Type;
use nsc_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .count()
}

#[test]
fn closed_connections_leave_no_descriptor_behind() {
    let mut server = Server::new(ServeConfig::default());
    let sq1 = a::map(a::lam(
        "x",
        a::add(a::mul(a::var("x"), a::var("x")), a::nat(1)),
    ));
    server.register("sq1", &sq1, &Type::seq(Type::Nat));
    let server = Arc::new(server);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let serving = std::thread::spawn(move || nsc_serve::front::serve_tcp(&server, listener));

    let request = |i: u64| {
        let mut stream = TcpStream::connect(addr).unwrap();
        writeln!(stream, r#"{{"fn": "sq1", "input": "[{i}]", "id": {i}}}"#).unwrap();
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).unwrap();
        assert_eq!(
            reply,
            format!("{{\"id\": {i}, \"output\": \"[{}]\"}}\n", i * i + 1)
        );
    };
    // The first request starts whatever the server starts lazily.
    request(0);
    let baseline = open_fds();
    for i in 1..=64 {
        request(i);
    }
    // Each connection thread leaves the registry after the client's EOF,
    // which it may read after this thread has moved on.
    let guard = Instant::now() + Duration::from_secs(30);
    let mut now_open = open_fds();
    while now_open > baseline + 4 && Instant::now() < guard {
        std::thread::sleep(Duration::from_millis(10));
        now_open = open_fds();
    }
    assert!(
        now_open <= baseline + 4,
        "{now_open} descriptors open after 64 closed connections, {baseline} before"
    );

    let mut stop = TcpStream::connect(addr).unwrap();
    writeln!(stop, r#"{{"cmd": "shutdown"}}"#).unwrap();
    serving
        .join()
        .expect("serve_tcp returns")
        .expect("serve_tcp returns Ok");
}
