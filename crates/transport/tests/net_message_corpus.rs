//! Decoder corpus for `NetMessage` bytes off a real socket: whatever a
//! peer writes after its hello, the transport's reader neither panics
//! nor wedges, counts what it could not decode, and stays frame-synced.
//!
//! A raw `TcpStream` plays the peer against a live [`TcpTransport`]:
//!
//! * every strict prefix of a framed block, then close;
//! * a frame whose payload has one flipped bit, at a few hundred seeded
//!   positions — each followed by a valid block that must still arrive;
//! * a length header above the frame cap, which must close the
//!   connection without allocating what it claims.
//!
//! One `#[test]`, its own binary: the panic hook and the allocator below
//! are process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use dagbft_codec::decode_from_slice;
use dagbft_core::{Block, Label, LabeledRequest, NetMessage, SeqNum};
use dagbft_crypto::{KeyRegistry, ServerId, Signer};
use dagbft_transport::frame::{write_frame, write_net_message, Hello, MAX_FRAME_LEN};
use dagbft_transport::TcpTransport;

/// The largest single allocation requested since the process started.
static LARGEST_ALLOCATION: AtomicUsize = AtomicUsize::new(0);
/// Panics on any thread since the hook was installed.
static PANICS: AtomicUsize = AtomicUsize::new(0);

struct Watching;

// SAFETY: every call is passed to `System` with its arguments unchanged, so
// `System`'s guarantees are this allocator's; the high-water mark touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`
        // is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Watching = Watching;

/// The identity the raw socket claims; the transport under test is server 0.
fn peer() -> ServerId {
    ServerId::new(1)
}

const PATIENCE: Duration = Duration::from_secs(10);

/// A connection that has said hello as [`peer`].
fn connect(to: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(to).expect("transport is listening");
    write_frame(&mut stream, &Hello::new(peer())).expect("hello");
    stream
}

fn block(signer: &Signer, seq: u64) -> Block {
    Block::build(
        peer(),
        SeqNum::new(seq),
        vec![],
        vec![LabeledRequest::encode(Label::new(seq), &seq)],
        signer,
    )
}

fn framed(block: &Block) -> Vec<u8> {
    let mut frame = Vec::new();
    write_net_message(&mut frame, &NetMessage::Block(block.clone())).expect("writing to a Vec");
    frame
}

/// The next message the transport hands up, which must come from [`peer`].
fn next_incoming(transport: &TcpTransport) -> NetMessage {
    let (from, message) = transport
        .incoming()
        .recv_timeout(PATIENCE)
        .expect("the reader is wedged or gone: nothing arrived");
    assert_eq!(from, peer());
    message
}

#[test]
fn bytes_off_a_socket_never_panic_or_wedge_the_reader() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        default_hook(info);
    }));

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // The peer's own address is never dialled: this transport sends nothing.
    let transport =
        TcpTransport::from_listener(ServerId::new(0), listener, vec![addr, addr]).unwrap();
    let registry = KeyRegistry::generate(2, 31);
    let signer = registry.signer(peer()).unwrap();
    let mut next_seq = 0u64;
    let mut fresh_block = || {
        next_seq += 1;
        block(&signer, next_seq)
    };
    // Frames written so far that decode as some `NetMessage`.
    let mut decodable_sent = 0u64;

    // (i) Every strict prefix of a framed block, then close: a torn frame
    // is neither a message nor a decode error, and the accept loop lives.
    let torn = framed(&fresh_block());
    for cut in 0..torn.len() {
        let mut stream = connect(addr);
        stream.write_all(&torn[..cut]).unwrap();
    }
    let sentinel = fresh_block();
    let mut stream = connect(addr);
    stream.write_all(&framed(&sentinel)).unwrap();
    decodable_sent += 1;
    assert_eq!(next_incoming(&transport), NetMessage::Block(sentinel));

    // (ii) + (iv) One flipped payload bit per frame, on one connection,
    // each followed by a valid block. A flip either breaks the encoding
    // (counted, nothing handed up) or yields some other decodable message
    // (handed up; signatures are the gossip layer's business) — and the
    // valid block arrives right behind it either way.
    let victim = framed(&fresh_block());
    let payload_bits = (victim.len() - 4) * 8;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut undecodable = 0u64;
    for _ in 0..300 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let bit = (state % payload_bits as u64) as usize;
        let mut corrupt = victim.clone();
        corrupt[4 + bit / 8] ^= 1 << (bit % 8);
        let decodes = decode_from_slice::<NetMessage>(&corrupt[4..]).ok();
        let follower = fresh_block();
        stream.write_all(&corrupt).unwrap();
        stream.write_all(&framed(&follower)).unwrap();
        decodable_sent += 1;
        match decodes {
            Some(message) => {
                assert_eq!(next_incoming(&transport), message, "bit {bit}");
                decodable_sent += 1;
            }
            None => undecodable += 1,
        }
        assert_eq!(
            next_incoming(&transport),
            NetMessage::Block(follower),
            "bit {bit}: the reader lost frame sync"
        );
    }
    assert!(undecodable > 0, "no flip broke the encoding");
    let traffic = transport.peer_traffic()[peer().index()];
    assert_eq!(traffic.recv_decode_errors, undecodable);
    assert_eq!(traffic.recv_msgs, decodable_sent);

    // (iii) A length header above the cap: the connection is closed (the
    // stream position cannot be trusted), the claimed length is never
    // allocated, and the block behind it is not read.
    let mut oversized = u32::MAX.to_le_bytes().to_vec();
    oversized.extend_from_slice(&framed(&fresh_block()));
    stream.write_all(&oversized).unwrap();
    stream.set_read_timeout(Some(PATIENCE)).unwrap();
    // Closing with the follow-up block unread resets the connection, so
    // the peer sees EOF or a reset — never data, never a timeout.
    match stream.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Ok(_) => panic!("the transport writes nothing on an inbound connection"),
        Err(err) => assert!(
            !matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "the connection is still open after an oversized header"
        ),
    }
    assert!(LARGEST_ALLOCATION.load(Ordering::Relaxed) < MAX_FRAME_LEN);

    // The transport as a whole is unharmed: a fresh connection delivers.
    let last = fresh_block();
    connect(addr).write_all(&framed(&last)).unwrap();
    assert_eq!(next_incoming(&transport), NetMessage::Block(last));
    let traffic = transport.peer_traffic()[peer().index()];
    assert_eq!(traffic.recv_decode_errors, undecodable);
    assert_eq!(traffic.recv_msgs, decodable_sent + 1);

    transport.shutdown();
    assert_eq!(
        PANICS.load(Ordering::SeqCst),
        0,
        "a transport thread panicked"
    );
}
