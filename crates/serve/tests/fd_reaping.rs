//! A closed client connection must not keep its socket open for the
//! daemon's lifetime: the accept loop reaps finished sessions, so the
//! process's open file descriptors stay flat under connection churn.

use std::io::{BufRead, BufReader};
use std::os::unix::net::UnixStream;

use fcm_serve::server::{start, Listen, ServerConfig};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("read /proc/self/fd")
        .count()
}

#[test]
fn closed_connections_release_their_sockets() {
    let dir = std::env::temp_dir().join(format!("fcm-serve-fd-reaping-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let h = start(ServerConfig::new(
        Listen::Unix(dir.join("serve.sock")),
        "paper",
    ))
    .expect("server starts");
    let before = open_fds();
    // Sequential open/close: only a handful of sessions are ever alive.
    for _ in 0..500 {
        let stream = UnixStream::connect(h.addr()).expect("connect");
        let mut hello = String::new();
        BufReader::new(stream)
            .read_line(&mut hello)
            .expect("read hello");
        assert!(hello.contains("fcm-serve"), "{hello}");
    }
    let after = open_fds();
    h.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        after <= before + 16,
        "open fds grew from {before} to {after} over 500 closed connections"
    );
}
