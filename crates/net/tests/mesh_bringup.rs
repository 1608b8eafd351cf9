//! The multi-process bring-up path, in one process: providers joining
//! with `MuxEndpoint::establish_with_options` (dial / accept / hello),
//! the incarnation floor at admission, and the bounded budget that names
//! a missing peer.

use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use dauctioneer_net::{frame, MeshOptions, MuxEndpoint, WireError};
use dauctioneer_types::ProviderId;

const RECV: Duration = Duration::from_secs(5);

/// `m` listeners on ephemeral loopback ports and their addresses.
fn listeners(m: usize) -> (Vec<TcpListener>, Vec<SocketAddr>) {
    let listeners: Vec<_> = (0..m).map(|_| TcpListener::bind(("127.0.0.1", 0)).unwrap()).collect();
    let addrs = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    (listeners, addrs)
}

/// Provider `me` joins a one-lane mesh on its own thread.
fn join(
    me: u32,
    listener: TcpListener,
    addrs: &[SocketAddr],
    options: MeshOptions,
) -> JoinHandle<std::io::Result<MuxEndpoint>> {
    let addrs = addrs.to_vec();
    std::thread::spawn(move || {
        MuxEndpoint::establish_with_options(ProviderId(me), 1, listener, &addrs, &options)
            .map(|mut lanes| lanes.remove(0))
    })
}

/// The peers a failed bring-up reports as missing.
fn missing_peers(err: &std::io::Error) -> Vec<String> {
    match err.get_ref().and_then(|inner| inner.downcast_ref::<WireError>()) {
        Some(WireError::BringUpExpired { missing }) => missing.clone(),
        other => panic!("expected BringUpExpired, got {other:?} ({err})"),
    }
}

#[test]
fn providers_join_in_any_order_and_the_floor_and_budget_hold() {
    // Four providers start in reverse id order: the highest dials first,
    // before any lower id is accepting, and the mesh still comes up.
    let m = 4;
    let (mut ls, addrs) = listeners(m);
    let mut handles = Vec::new();
    for me in (0..m).rev() {
        handles.push(join(me as u32, ls.pop().unwrap(), &addrs, MeshOptions::default()));
        std::thread::sleep(Duration::from_millis(10));
    }
    handles.reverse();
    let eps: Vec<MuxEndpoint> = handles.into_iter().map(|h| h.join().unwrap().unwrap()).collect();
    for from in 0..m {
        for to in (0..m).filter(|&to| to != from) {
            let body = frame(3, &[from as u8, to as u8]);
            eps[from].send(ProviderId(to as u32), body.clone());
            let (who, payload) = eps[to].recv_timeout(RECV).unwrap();
            assert_eq!(who, ProviderId(from as u32));
            assert_eq!(payload, body);
        }
    }
    drop(eps);

    // A hello below the acceptor's floor for that peer is refused: the
    // stale dialler finishes its side, but the acceptor never admits it
    // and its budget expires naming exactly that peer.
    let short = Duration::from_millis(300);
    let (mut ls, addrs) = listeners(2);
    let guarded = MeshOptions { incarnation: 0, min_incarnations: vec![0, 5], budget: short };
    let stale = MeshOptions { incarnation: 4, min_incarnations: Vec::new(), budget: short };
    let dialler = join(1, ls.pop().unwrap(), &addrs, stale);
    let acceptor = join(0, ls.pop().unwrap(), &addrs, guarded.clone());
    let stale_ep = dialler.join().unwrap().expect("the dialler's hello was written");
    let err = acceptor.join().unwrap().expect_err("a stale hello must not be admitted");
    assert_eq!(missing_peers(&err), vec![format!("provider 1 @ {}", addrs[1])]);
    drop(stale_ep);

    // The same floor admits the peer's current life.
    let (mut ls, addrs) = listeners(2);
    let current = MeshOptions { incarnation: 5, min_incarnations: Vec::new(), budget: RECV };
    let dialler = join(1, ls.pop().unwrap(), &addrs, current);
    let acceptor = join(0, ls.pop().unwrap(), &addrs, MeshOptions { budget: RECV, ..guarded });
    let e1 = dialler.join().unwrap().unwrap();
    let e0 = acceptor.join().unwrap().unwrap();
    e1.send(ProviderId(0), Bytes::from_static(b"admitted"));
    assert_eq!(&e0.recv_timeout(RECV).unwrap().1[..], b"admitted");
    drop((e0, e1));

    // A peer that never shows up: bring-up fails within the short budget
    // with an error naming it, instead of blocking.
    let (mut ls, addrs) = listeners(3);
    let absent = ls.pop().unwrap(); // provider 2 is bound but never joins
    let p1 =
        join(1, ls.pop().unwrap(), &addrs, MeshOptions { budget: short, ..Default::default() });
    let p0 =
        join(0, ls.pop().unwrap(), &addrs, MeshOptions { budget: short, ..Default::default() });
    let err = p1.join().unwrap().expect_err("provider 2 never joined");
    assert_eq!(missing_peers(&err), vec![format!("provider 2 @ {}", addrs[2])]);
    let err = p0.join().unwrap().expect_err("provider 2 never joined");
    assert_eq!(missing_peers(&err), vec![format!("provider 2 @ {}", addrs[2])]);
    drop(absent);
}
